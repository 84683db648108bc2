"""Spliced flattening (``repro.steiner.flat_forest.flat_forest_of``).

After a tree-list edit, the memo re-gathers only the trees that changed
(plus any appended or removed at the tail) and splices them into the
columns it kept.  The result must equal a from-scratch flattening and
the per-tree loop oracle field by field and bitwise, it must be a new
object, and the flattening it replaces (which ECO undo entries and STA
states still hold) must keep every byte.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.eco import BufferInsertOp, RerouteOp, clone_state
from repro.eco.ops import _fresh_tree
from repro.flow.pipeline import prepare_design
from repro.obs import Telemetry, telemetry_session
from repro.steiner.flat_forest import (
    build_flat_forest,
    flat_forest_of,
    restore_flat_cache,
)
from repro.testing.oracles import reference_flat_forest


@pytest.fixture(scope="module", params=["spm", "picorv32a"])
def design(request):
    return prepare_design(request.param)


def _snapshot(flat):
    """Every field of a FlatForest as comparable bytes (levels expanded)."""
    out = {}
    for field in dataclasses.fields(flat):
        value = getattr(flat, field.name)
        if field.name == "levels":
            out["levels"] = [(a.dtype.str, a.shape, a.tobytes()) for a in value]
        elif isinstance(value, np.ndarray):
            out[field.name] = (value.dtype.str, value.shape, value.tobytes())
        else:
            out[field.name] = value
    return out


def _assert_equal(got, want):
    a, b = _snapshot(got), _snapshot(want)
    assert a.keys() == b.keys()
    for name in b:
        assert a[name] == b[name], name


def _flatten_checked(netlist, forest, spliced):
    """``flat_forest_of`` after an edit: one ``steiner.flatten`` span
    (``spliced=`` the re-gathered tree count, or None for a full
    flattening), equal to a fresh build and to the loop oracle."""
    with Telemetry() as tel, telemetry_session(tel):
        got = flat_forest_of(forest)
    spans = [
        e["attrs"] for e in tel.events
        if e["kind"] == "span_start" and e["name"] == "steiner.flatten"
    ]
    assert len(spans) == 1
    assert spans[0].get("spliced") == spliced
    assert tel.counters.get("steiner.flat_splices", 0) == (spliced is not None)
    fresh = forest.copy()
    for tree in fresh.trees:
        tree.invalidate_topology()
    _assert_equal(got, build_flat_forest(fresh))
    want, _ = reference_flat_forest(forest, np.zeros(netlist.num_pins))
    _assert_equal(got, want)
    return got


def _spliced(forest, k):
    """The expected ``spliced`` attribute after an edit to ``k`` trees:
    past a quarter of the trees the memo flattens in full."""
    return k if 4 * k <= forest.num_trees else None


class TestSpliceParity:
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_tree_list_edits(self, design, data):
        """Slot replaced by a fresh tree, tree appended, tail popped, and
        an edit on a ``copy()`` (which shares the memo entry)."""
        netlist, forest = clone_state(*design)
        flat_forest_of(forest)
        nets = [t.net_index for t in forest.trees]
        for _ in range(data.draw(st.integers(1, 5))):
            before = flat_forest_of(forest)
            snap = _snapshot(before)
            kind = data.draw(st.sampled_from(("replace", "append", "pop", "copy")))
            net = nets[data.draw(st.integers(0, len(nets) - 1))]
            if kind == "copy":
                source, forest = forest, forest.copy()
                assert flat_forest_of(forest) is before  # the shared entry
            slot = data.draw(st.integers(0, forest.num_trees - 1))
            if kind == "append":
                forest.trees.append(_fresh_tree(netlist, net))
            elif kind == "pop" and forest.num_trees > 1:
                forest.trees.pop()
            elif kind == "pop":
                continue
            else:
                forest.trees[slot] = _fresh_tree(netlist, net)
            forest.refresh_offsets()
            k = 0 if kind == "pop" else 1
            got = _flatten_checked(netlist, forest, _spliced(forest, k))
            assert got is not before
            assert _snapshot(before) == snap  # the old flattening is intact
            if kind == "copy":
                assert flat_forest_of(source) is before

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_op_apply_and_revert(self, design, data):
        """``BufferInsertOp`` (a slot and an appended tree) and
        ``RerouteOp`` (a slot), applied and reverted in LIFO order."""
        netlist, forest = clone_state(*design)
        flat_forest_of(forest)
        applied = []
        for _ in range(data.draw(st.integers(1, 6))):
            before = flat_forest_of(forest)
            snap = _snapshot(before)
            if applied and data.draw(st.booleans()):
                op = applied.pop()
                op.revert(netlist, forest)
                k = 1  # the restored slot (a buffer's revert also pops)
            elif data.draw(st.booleans()):
                pairs = [(n.index, s) for n in netlist.nets if n.degree > 1 for s in n.sinks]
                net, sink = pairs[data.draw(st.integers(0, len(pairs) - 1))]
                op = BufferInsertOp(net, sink)
                op.apply(netlist, forest)
                applied.append(op)
                k = 2
            else:
                tree = forest.trees[data.draw(st.integers(0, forest.num_trees - 1))]
                op = RerouteOp(tree.net_index)
                op.apply(netlist, forest)
                applied.append(op)
                k = 1
            got = _flatten_checked(netlist, forest, _spliced(forest, k))
            assert got is not before
            assert _snapshot(before) == snap

    def test_full_flattening_without_entry_or_past_a_quarter(self, design):
        """Without a memo entry, or when more than a quarter of the trees
        changed, every tree is gathered (no ``spliced``); a quarter is
        still a splice."""
        netlist, forest = clone_state(*design)
        restore_flat_cache(forest, None)
        before = _flatten_checked(netlist, forest, None)
        snap = _snapshot(before)
        quarter = forest.num_trees // 4
        for tree in forest.trees[:quarter]:
            tree.invalidate_topology()
        _flatten_checked(netlist, forest, quarter)
        for tree in forest.trees[: quarter + 1]:
            tree.invalidate_topology()
        _flatten_checked(netlist, forest, None)
        assert _snapshot(before) == snap
