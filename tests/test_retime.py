"""One re-time path (``ScenarioSTA._retime``) and the edit bookkeeping
it reads.

An ECO edit names what it changed: a tree-list edit stamps its slots on
the forest, which the flat memo splices and records in the new
flattening's lineage; a netlist op's levelization changes the pin caps
of the nets it touched.  The STA re-times only those trees (plus any
whose coordinates moved), so after every step every array of its
``BatchState`` must equal a whole-forest rebuild from scratch
(``repro.testing.oracles.rebuilt_state``) bit for bit.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.eco import BufferInsertOp, EcoContext, NudgeOp, RerouteOp, ResizeOp, clone_state
from repro.eco.ops import _fresh_tree
from repro.flow.pipeline import prepare_design
from repro.mcmm.scenario import ScenarioSet
from repro.mcmm.sta import ScenarioSTA
from repro.obs import Telemetry, telemetry_session
from repro.steiner.flat_forest import build_flat_forest, flat_forest_of
from repro.testing.oracles import rebuilt_state

#: Every array of a ``BatchState`` the re-time path keeps.
STATE_ARRAYS = (
    "arr_setup", "slew_setup", "arr_hold", "slew_hold",
    "wire_delay_G", "wire_deg_G", "net_load_G", "base_r", "base_c", "xy",
)


@pytest.fixture(scope="module")
def spm_state():
    return prepare_design("spm")


def _scenarios() -> ScenarioSet:
    return ScenarioSet.from_names(("slow_setup", "fast_hold"))


def _assert_matches_rebuild(sta: ScenarioSTA, step) -> None:
    got, want = sta._state, rebuilt_state(sta)
    for name in STATE_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, (step, name)
        assert a.tobytes() == b.tobytes(), (step, name)
    assert got.net_has_tree.tobytes() == want.net_has_tree.tobytes(), step


def _ops(netlist, forest, rng):
    """One random op of each kind the ECO loop draws."""
    nets = [t.net_index for t in forest.trees if t.n_steiner > 0]
    net = nets[rng.integers(len(nets))]
    kind = ("nudge", "reroute", "resize", "buffer")[rng.integers(4)]
    if kind == "nudge":
        return NudgeOp(net, *rng.choice([-4.0, 3.0], 2))
    if kind == "reroute":
        return RerouteOp(net)
    if kind == "buffer":
        sinks = netlist.nets[net].sinks
        return BufferInsertOp(net, sinks[rng.integers(len(sinks))])
    moves = [
        (cell.index, v, cell.cell_type.name)
        for cell in netlist.cells
        if not cell.cell_type.is_sequential
        for v in netlist.library.variants_of(cell.cell_type)
        if v.name != cell.cell_type.name
    ]
    cell, to_ct, frm = moves[rng.integers(len(moves))]
    return ResizeOp(cell, to_ct, from_name=frm)


def _walk(state, seed: int, steps: int) -> None:
    """Apply, query and revert random ops, in and out of LIFO order,
    checking the state against a rebuild after every query."""
    netlist, forest = clone_state(*state)
    ctx = EcoContext(netlist, forest, _scenarios())
    ctx.run()
    _assert_matches_rebuild(ctx.sta, "start")
    rng = np.random.default_rng(seed)
    applied = []
    for step in range(steps):
        if applied and rng.random() < 0.45:
            # Mostly the newest op; sometimes one below it.
            k = len(applied) - 1 if rng.random() < 0.7 else rng.integers(len(applied))
            op = applied.pop(k)
            ctx.revert(op)
        else:
            op = _ops(netlist, forest, rng)
            if isinstance(op, ResizeOp) and any(
                isinstance(o, ResizeOp) and o.cell_index == op.cell_index for o in applied
            ):
                continue  # one pending resize per cell
            ctx.apply(op)
            applied.append(op)
        ctx.run()
        _assert_matches_rebuild(ctx.sta, (step, op.describe()))


class TestRetimeParity:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_walks_equal_rebuild(self, spm_state, seed):
        _walk(spm_state, seed, steps=14)

    def test_raw_tree_surgery_without_undo(self, spm_state):
        """Edits made straight on the forest (no ``EcoContext`` undo to
        put a state back) re-time from the last state through the
        flattening's lineage, also across two splices between queries
        and after a pop from the tail."""
        netlist, forest = clone_state(*spm_state)
        sta = ScenarioSTA(netlist, forest, _scenarios())
        sta.run()
        nets = [t.net_index for t in forest.trees if t.n_steiner > 0]
        slot = forest.tree_slot(nets[0])
        forest.trees[slot] = _fresh_tree(netlist, nets[0])
        forest.refresh_offsets(slot)
        sta.run()
        assert sta.last_dirty_trees == 1 and sta.num_full == 1
        _assert_matches_rebuild(sta, "replace")
        # Two splices before the next query: the lineage is followed.
        for net in nets[1:3]:
            slot = forest.tree_slot(net)
            forest.trees[slot] = _fresh_tree(netlist, net)
            forest.refresh_offsets(slot)
            flat_forest_of(forest)
        tail = forest.trees.pop()
        forest.refresh_offsets(len(forest.trees))
        sta.run()
        assert sta.num_full == 1
        _assert_matches_rebuild(sta, "two splices and a pop")
        forest.trees.append(tail)
        forest.refresh_offsets(len(forest.trees) - 1)
        sta.run()
        _assert_matches_rebuild(sta, "append")

    def test_coordinate_moves_with_an_edit(self, spm_state):
        """Moves of untouched trees made before a query are found by the
        coordinate compare next to the edited trees."""
        netlist, forest = clone_state(*spm_state)
        ctx = EcoContext(netlist, forest, _scenarios())
        ctx.run()
        nets = [t.net_index for t in forest.trees if t.n_steiner > 0]
        ctx.apply(RerouteOp(nets[0]))
        forest.trees[forest.tree_slot(nets[1])].steiner_xy[...] += 2.5
        ctx.run()
        assert ctx.sta.last_dirty_trees == 2
        _assert_matches_rebuild(ctx.sta, "reroute + move")


@pytest.mark.eco_smoke
@pytest.mark.parametrize("seed", range(2))
def test_des3_random_walks_equal_rebuild(seed):
    _walk(prepare_design("des3"), seed, steps=12)


class TestDirtyTrees:
    def test_reroute_retimes_one_tree_and_a_buffer_two(self, spm_state):
        netlist, forest = clone_state(*spm_state)
        ctx = EcoContext(netlist, forest, _scenarios())
        ctx.run()
        net = next(t.net_index for t in forest.trees if len(t.pin_ids) > 2)
        op = RerouteOp(net)
        ctx.apply(op)
        ctx.run()
        assert ctx.sta.last_dirty_trees == 1
        ctx.revert(op)
        ctx.run()
        assert ctx.sta.last_dirty_trees == 0
        op = BufferInsertOp(net, netlist.nets[net].sinks[-1])
        ctx.apply(op)
        ctx.run()
        assert ctx.sta.last_dirty_trees == 2

    def test_retime_span_and_histogram_from_both_paths(self, spm_state):
        """Every query books one ``sta.retime`` span with ``trees`` and
        ``full``, and one ``mcmm.dirty_trees`` sample: the first (full)
        query, an edit's carried re-time and a move's in-place one."""
        netlist, forest = clone_state(*spm_state)
        with Telemetry() as tel, telemetry_session(tel):
            ctx = EcoContext(netlist, forest, _scenarios())
            ctx.run()
            net = next(t.net_index for t in forest.trees if t.n_steiner > 0)
            ctx.apply(RerouteOp(net))
            ctx.run()
            ctx.apply(NudgeOp(net, 3.0, 0.0))
            ctx.run()
        spans = [
            e["attrs"] for e in tel.events
            if e["kind"] == "span_start" and e["name"] == "sta.retime"
        ]
        ends = [
            e["attrs"] for e in tel.events
            if e["kind"] == "span_end" and e["name"] == "sta.retime"
        ]
        assert [s["full"] for s in spans] == [True, False, False]
        assert [e.get("trees") for e in ends] == [forest.num_trees, 1, 1]
        assert tel.metrics_snapshot()["hists"]["mcmm.dirty_trees"]["count"] == 3


class TestFlatMemoEdits:
    """Without a sweep over the trees, every edit that changes a
    flattening still misses the memo: the forest is told."""

    def _check(self, forest, before):
        got = flat_forest_of(forest)
        assert got is not before
        fresh = forest.copy()
        for tree in fresh.trees:
            tree.invalidate_topology()
        want = build_flat_forest(fresh)
        for field in dataclasses.fields(want):
            a, b = getattr(got, field.name), getattr(want, field.name)
            if field.name == "levels":
                assert [x.tobytes() for x in a] == [x.tobytes() for x in b]
            elif isinstance(b, np.ndarray):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field.name
            else:
                assert a == b, field.name

    def test_tree_list_surgery(self, spm_state):
        netlist, forest = clone_state(*spm_state)
        before = flat_forest_of(forest)
        net = forest.trees[3].net_index
        forest.trees[3] = _fresh_tree(netlist, net)
        forest.refresh_offsets()
        self._check(forest, before)

    def test_invalidate_topology(self, spm_state):
        _, forest = clone_state(*spm_state)
        before = flat_forest_of(forest)
        tree = next(t for t in forest.trees if t.n_steiner > 0)
        tree.edges = list(reversed(tree.edges))
        tree.invalidate_topology()
        self._check(forest, before)

    def test_pin_xy_reassignment(self, spm_state):
        _, forest = clone_state(*spm_state)
        before = flat_forest_of(forest)
        tree = forest.trees[len(forest.trees) // 2]
        tree.pin_xy = tree.pin_xy + 1.0
        self._check(forest, before)

    def test_copy_keeps_pending_edits_and_its_own(self, spm_state):
        """A copy shares the memo entry: an edit pending in the source
        stays pending in the copy, and an edit to either side leaves
        the other's lookups alone."""
        _, forest = clone_state(*spm_state)
        before = flat_forest_of(forest)
        forest.trees[1].pin_xy = forest.trees[1].pin_xy + 1.0
        dup = forest.copy()
        self._check(dup, before)
        self._check(forest, before)
        mine = flat_forest_of(forest)
        dup.trees[2].pin_xy = dup.trees[2].pin_xy + 1.0
        assert flat_forest_of(forest) is mine
        self._check(dup, mine)

    def test_moves_keep_the_memo(self, spm_state):
        _, forest = clone_state(*spm_state)
        before = flat_forest_of(forest)
        forest.set_steiner_coords(forest.coords + 1.0)
        assert flat_forest_of(forest) is before

    def test_spliced_flattening_does_not_keep_its_predecessor(self, spm_state):
        import gc
        import weakref

        netlist, forest = clone_state(*spm_state)
        ref = weakref.ref(flat_forest_of(forest))
        net = forest.trees[0].net_index
        forest.trees[0] = _fresh_tree(netlist, net)
        forest.refresh_offsets(0)
        new = flat_forest_of(forest)
        gc.collect()
        assert ref() is None and new.lineage[0]() is None


class TestTreeSlot:
    def _linear(self, forest, net):
        return next(i for i, t in enumerate(forest.trees) if t.net_index == net)

    def test_slot_map_follows_reroute_buffer_and_reverts(self, spm_state):
        netlist, forest = clone_state(*spm_state)
        net = next(t.net_index for t in forest.trees if len(t.pin_ids) > 2)
        ops = [RerouteOp(net), BufferInsertOp(net, netlist.nets[net].sinks[-1])]
        for op in ops:
            op.apply(netlist, forest)
            for n in {t.net_index for t in forest.trees}:
                assert forest.tree_slot(n) == self._linear(forest, n)
        new_net = ops[1]._saved["new_net"]
        assert forest.tree_slot(new_net) == len(forest.trees) - 1
        for op in reversed(ops):
            op.revert(netlist, forest)
            for n in {t.net_index for t in forest.trees}:
                assert forest.tree_slot(n) == self._linear(forest, n)
        with pytest.raises(KeyError, match=f"no tree for net {new_net}"):
            forest.tree_slot(new_net)
