"""Parity tests for the vectorized / incremental STA stack.

Five contracts (docs/PERFORMANCE.md):

* the vectorized ``build_flat_forest`` and ``flat_caps`` write every
  ``FlatForest`` and ``FlatCaps`` field bitwise equal to the per-tree
  loop ``repro.testing.oracles.reference_flat_forest``;
* the batched CSR Elmore kernel reproduces the per-net reference
  analysis to 1e-12;
* ``routed_edge_rc`` over the columns of a ``GlobalRouteResult`` is
  bitwise equal to the per-segment loop
  ``repro.testing.oracles.reference_routed_edge_rc``, fresh and
  memo-hit, with and without coupling;
* ``STAEngine.run`` agrees with the scalar oracle
  ``repro.testing.oracles.reference_sta`` to 1e-9 on WNS/TNS and
  endpoint slacks (float re-association only);
* :class:`~repro.sta.incremental.IncrementalSTA` is *bitwise* equal to
  a from-scratch flat run after arbitrary move / revert / mode-switch /
  resume sequences, and stale caches (topology edits, interrupted
  queries) can never leak into a later answer.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.refine import RefinementConfig, refine
from repro.flow.pipeline import prepare_design
from repro.groute.layer_assign import assign_layers
from repro.groute.router import GlobalRouter, RouteMemo
from repro.mcmm import ScenarioSet, ScenarioSTA
from repro.routegrid.grid import GCellGrid
from repro.runtime import faults
from repro.sta import IncrementalSTA, STAEngine
from repro.sta import flat as flatmod
from repro.eco import BufferInsertOp, RerouteOp, clone_state
from repro.steiner.flat_forest import build_flat_forest, flat_forest_of
from repro.steiner.forest import SteinerForest
from repro.steiner.tree import SteinerTree
from repro.testing.oracles import (
    compute_net_timing,
    reference_flat_forest,
    reference_routed_edge_rc,
    reference_sta,
)

from tests.test_failure_injection import _FaultyModel, _QuadraticModel
from tests.test_checkpoint_resume import _assert_refinement_identical


@pytest.fixture(scope="module")
def design():
    return prepare_design("usb_cdc_core")


@pytest.fixture(scope="module")
def routed(design):
    netlist, forest = design
    grid = GCellGrid(netlist.die_width, netlist.die_height, netlist.technology)
    rr = GlobalRouter(grid).route(forest)
    assign_layers(rr, netlist.technology, grid.nx * grid.ny)
    return rr, grid.utilization_map()


def _random_moves(forest, rng, fraction=0.02, sigma=2.0):
    c = forest.get_steiner_coords()
    k = max(1, int(len(c) * fraction))
    idx = rng.choice(len(c), size=k, replace=False)
    c[idx] += rng.normal(0.0, sigma, size=(k, 2))
    return forest.clamp_coords(c)


# ----------------------------------------------------------------------
# Vectorized flat-forest build vs the per-tree loop
# ----------------------------------------------------------------------
def _assert_arrays_bitwise(got, want, name):
    assert got.dtype == want.dtype, name
    assert got.shape == want.shape, name
    assert got.tobytes() == want.tobytes(), name


def _assert_flat_bitwise(forest, pin_cap):
    """The cap-free topology and the engine's cap gather, every field of
    both, against the one loop oracle."""
    got = build_flat_forest(forest)
    caps = flatmod.flat_caps(got, pin_cap)
    want, want_caps = reference_flat_forest(forest, pin_cap)
    for a_obj, b_obj in ((got, want), (caps, want_caps)):
        for field in dataclasses.fields(b_obj):
            a, b = getattr(a_obj, field.name), getattr(b_obj, field.name)
            if isinstance(b, np.ndarray):
                _assert_arrays_bitwise(a, b, field.name)
            elif field.name == "levels":
                assert len(a) == len(b)
                for d, (la, lb) in enumerate(zip(a, b)):
                    _assert_arrays_bitwise(la, lb, f"levels[{d}]")
            else:
                assert type(a) is type(b) and a == b, field.name
    return got, caps


class TestFlatForestBuild:
    @pytest.mark.parametrize("name", ["spm", "picorv32a", "des3"])
    def test_matches_reference_on_designs(self, name):
        netlist, forest = prepare_design(name)
        flat, _ = _assert_flat_bitwise(forest, STAEngine(netlist).pert().pin_cap)
        if name == "des3":
            # numpy sums 8+ values pairwise: the long-segment path of
            # the lumped-cap sum must be exercised.
            assert int(np.diff(flat.sink_offset).max()) >= 8

    def test_matches_reference_after_eco_surgery(self):
        netlist, forest = clone_state(*prepare_design("spm"))
        pairs = [(n.index, s) for n in netlist.nets if n.degree > 1 for s in n.sinks]
        BufferInsertOp(*pairs[0]).apply(netlist, forest)
        RerouteOp(forest.trees[1].net_index).apply(netlist, forest)
        BufferInsertOp(*pairs[-1], buffer_cell="BUF_X4").apply(netlist, forest)
        _assert_flat_bitwise(forest, STAEngine(netlist).pert().pin_cap)

    def test_matches_reference_on_degenerate_trees(self, design):
        """Edgeless single-pin trees, Steiner-free trees, a wide tree
        and the empty forest."""
        netlist, forest = design
        pin_cap = STAEngine(netlist).pert().pin_cap
        net = max(netlist.nets, key=lambda n: (n.degree, -n.index))
        pos = netlist.pin_positions()
        lone = SteinerTree(net.index, [net.driver], pos[[net.driver]], np.zeros((0, 2)))
        a, b = net.driver, net.sinks[0]
        pair = SteinerTree(
            net.index, [a, b], pos[[a, b]], np.zeros((0, 2)), edges=[(0, 1)]
        )
        # A star on the driver: no Steiner points, every sink at depth 1.
        star_pins = [net.driver] + list(net.sinks)
        star = SteinerTree(
            net.index,
            star_pins,
            pos[star_pins],
            np.zeros((0, 2)),
            edges=[(0, k) for k in range(1, len(star_pins))],
        )
        trees = [lone, forest.trees[0], pair, lone, star, forest.trees[-1], lone]
        flat, _ = _assert_flat_bitwise(SteinerForest(netlist, trees), pin_cap)
        assert not flat.tree_has_edges[0] and not flat.tree_has_edges[-1]
        assert int(np.diff(flat.sink_offset).max()) >= 8
        _assert_flat_bitwise(SteinerForest(netlist, []), pin_cap)


# ----------------------------------------------------------------------
# Batched Elmore vs per-net reference
# ----------------------------------------------------------------------
class TestElmoreParity:
    def test_batched_elmore_matches_per_net_reference(self, design):
        netlist, forest = design
        engine = STAEngine(netlist)
        pin_cap = engine.pert().pin_cap
        pin_caps = dict(enumerate(pin_cap.tolist()))
        flat = flat_forest_of(forest)
        caps = flatmod.flat_caps(flat, pin_cap)
        xy = flat.node_positions(forest.get_steiner_coords())
        edge_r, edge_c = flatmod.preroute_edge_rc(flat, netlist.technology, xy)
        state = flatmod.elmore_forest(flat, caps, edge_r, edge_c)

        for t, tree in enumerate(forest.trees):
            ref = compute_net_timing(tree, pin_caps, netlist.technology)
            assert state.total_cap[t] == pytest.approx(ref.total_cap, abs=1e-12)
            s0, s1 = int(flat.sink_offset[t]), int(flat.sink_offset[t + 1])
            for row in range(s0, s1):
                pin = int(flat.sink_pin[row])
                assert state.sink_delay[row] == pytest.approx(
                    ref.sink_delay[pin], abs=1e-12
                )
                assert state.sink_slew_deg[row] == pytest.approx(
                    ref.sink_slew_degradation[pin], abs=1e-12
                )

    def test_subset_elmore_update_is_bitwise(self, design):
        """A tree-subset update must write exactly a full recompute."""
        netlist, forest = design
        engine = STAEngine(netlist)
        flat = flat_forest_of(forest)
        caps = flatmod.flat_caps(flat, engine.pert().pin_cap)
        coords = forest.get_steiner_coords()
        xy = flat.node_positions(coords)
        edge_r, edge_c = flatmod.preroute_edge_rc(flat, netlist.technology, xy)
        full = flatmod.elmore_forest(flat, caps, edge_r, edge_c)

        # Perturb a few trees' geometry, update only those trees.
        rng = np.random.default_rng(3)
        trees = rng.choice(flat.n_trees, size=5, replace=False)
        trees = np.unique(trees)
        moved = coords.copy()
        sel = np.isin(flat.steiner_tree, trees)
        moved[sel] += 1.0
        xy2 = flat.node_positions(moved)
        er2, ec2 = flatmod.preroute_edge_rc(flat, netlist.technology, xy2)
        flatmod.elmore_update(flat, caps, er2, ec2, full, trees=trees)

        scratch = flatmod.elmore_forest(flat, caps, er2, ec2)
        for name in ("node_cap", "subtree_cap", "delay", "total_cap",
                     "sink_delay", "sink_slew_deg"):
            assert np.array_equal(getattr(full, name), getattr(scratch, name)), name


# ----------------------------------------------------------------------
# Columnar routed RC vs the per-segment loop
# ----------------------------------------------------------------------
def _sub_gcell_move(forest, grid, seed):
    """A copy with every Steiner point moved inside its GCell: same
    route memo key, new um deltas."""
    coords = forest.get_steiner_coords()
    cell = np.clip(np.floor(coords / grid.gcell), 0, [[grid.nx - 1, grid.ny - 1]])
    frac = np.random.default_rng(seed).uniform(0.05, 0.95, coords.shape)
    moved = forest.copy()
    moved.set_steiner_coords((cell + frac) * grid.gcell)
    return moved


class TestRoutedEdgeRC:
    @pytest.mark.parametrize("name", ["usb_cdc_core", "picorv32a", "des3"])
    def test_columns_match_per_segment_loop(self, name):
        netlist, forest = prepare_design(name)
        tech = netlist.technology
        engine = STAEngine(netlist)

        def make_grid():
            return GCellGrid(netlist.die_width, netlist.die_height, tech)

        memo = RouteMemo()
        fresh_grid, hit_grid = make_grid(), make_grid()
        fresh = GlobalRouter(fresh_grid, memo=memo).route(forest)
        moved = _sub_gcell_move(forest, hit_grid, seed=3)
        hit = GlobalRouter(hit_grid, memo=memo).route(moved)
        assert hit.memo_hit and not fresh.memo_hit
        for work, rr, grid in ((forest, fresh, fresh_grid), (moved, hit, hit_grid)):
            assign_layers(rr, tech, grid.nx * grid.ny)
            flat = flat_forest_of(work)
            xy = flat.node_positions(work.get_steiner_coords())
            util = grid.utilization_map()
            for u, k in ((None, 0.0), (util, engine.COUPLING_K)):
                got = flatmod.routed_edge_rc(flat, tech, xy, rr, u, k)
                want = reference_routed_edge_rc(flat, tech, xy, rr, u, k)
                for a, b in zip(got, want):
                    _assert_arrays_bitwise(a, b, f"{name} memo_hit={rr.memo_hit} k={k}")

    def test_forest_edge_row_maps_every_routed_key(self, design):
        netlist, forest = design
        flat = flat_forest_of(forest)
        rows = dict(zip(zip(flat.edge_tree.tolist(), flat.edge_local.tolist()), range(flat.n_edges)))
        grid = GCellGrid(netlist.die_width, netlist.die_height, netlist.technology)
        rr = GlobalRouter(grid).route(forest)
        mapped = flat.forest_edge_row[rr.edge].tolist()
        assert mapped == [rows.get(key, -1) for key in rr.keys()]

    def test_incremental_after_reroute_equals_full_recompute(self, design):
        """A routed ScenarioSTA query re-timed after a sparse move and a
        re-route (fresh, then a memo hit) equals a from-scratch pass."""
        netlist, forest = design
        work = forest.copy()
        scenarios = ScenarioSet.signoff()
        inc = ScenarioSTA(netlist, work, scenarios)
        memo = RouteMemo()
        rng = np.random.default_rng(17)
        anchor = work.get_steiner_coords()
        for coords in (None, _random_moves(work, rng), anchor, anchor):
            if coords is not None:
                work.set_steiner_coords(coords)
            grid = GCellGrid(netlist.die_width, netlist.die_height, netlist.technology)
            rr = GlobalRouter(grid, memo=memo).route(work)
            assign_layers(rr, netlist.technology, grid.nx * grid.ny)
            util = grid.utilization_map()
            got = inc.run(route_result=rr, utilization=util)
            # A copy: a second engine's pin caps would re-key the forest's flat cache.
            want = ScenarioSTA(netlist, work.copy(), scenarios).full_recompute(rr, util)
            assert (got.merged_wns, got.merged_tns) == (want.merged_wns, want.merged_tns)
            assert [(m.wns, m.tns) for m in got.scenarios] == [
                (m.wns, m.tns) for m in want.scenarios
            ]
        assert rr.memo_hit and inc.num_full == 1


# ----------------------------------------------------------------------
# Engine vs scalar oracle
# ----------------------------------------------------------------------
class TestEngineParity:
    @pytest.mark.parametrize("mode", ["preroute", "routed"])
    def test_flat_matches_reference(self, design, routed, mode):
        netlist, forest = design
        rr, util = (None, None) if mode == "preroute" else routed
        engine = STAEngine(netlist)
        ref = reference_sta(engine, forest, rr, utilization=util)
        fast = engine.run(forest, rr, utilization=util)
        assert fast.wns == pytest.approx(ref.wns, abs=1e-9)
        assert fast.tns == pytest.approx(ref.tns, abs=1e-9)
        assert fast.num_violations == ref.num_violations
        assert set(fast.slack) == set(ref.slack)
        for ep, s in ref.slack.items():
            assert fast.slack[ep] == pytest.approx(s, abs=1e-9)
        assert np.allclose(fast.arrival, ref.arrival, atol=1e-9, equal_nan=True)
        assert np.allclose(fast.slew, ref.slew, atol=1e-9, equal_nan=True)


# ----------------------------------------------------------------------
# Incremental STA vs full recompute
# ----------------------------------------------------------------------
class TestIncrementalParity:
    def test_move_revert_sequence_bitwise(self, design):
        """Incremental == a fresh full flat run after every query."""
        netlist, forest = design
        work = forest.copy()
        inc = IncrementalSTA(netlist, work)
        engine = STAEngine(netlist)
        rng = np.random.default_rng(11)
        base = work.get_steiner_coords()
        for q in range(8):
            if q % 3 == 2:
                work.set_steiner_coords(base)  # revert to the anchor
            else:
                work.set_steiner_coords(_random_moves(work, rng))
            rep = inc.run()
            full = engine.run(work)
            assert rep.wns == full.wns and rep.tns == full.tns
            assert np.array_equal(rep.arrival, full.arrival, equal_nan=True)
            assert np.array_equal(rep.slew, full.slew, equal_nan=True)

    def test_mode_switch_bitwise(self, design, routed):
        netlist, forest = design
        rr, util = routed
        work = forest.copy()
        inc = IncrementalSTA(netlist, work)
        engine = STAEngine(netlist)
        rng = np.random.default_rng(5)
        for mode in ("pre", "routed", "pre", "routed"):
            work.set_steiner_coords(_random_moves(work, rng))
            if mode == "routed":
                rep = inc.run(route_result=rr, utilization=util)
                full = engine.run(work, rr, utilization=util)
            else:
                rep = inc.run()
                full = engine.run(work)
            assert rep.wns == full.wns and rep.tns == full.tns
            assert np.array_equal(rep.arrival, full.arrival, equal_nan=True)

    def test_invalidate_forces_full_rebuild(self, design):
        netlist, forest = design
        work = forest.copy()
        inc = IncrementalSTA(netlist, work)
        r1 = inc.run()
        inc.invalidate()
        r2 = inc.run()
        assert r2.wns == r1.wns and r2.tns == r1.tns

    def test_failed_query_drops_state(self, design, monkeypatch):
        """An exception mid-query must not leave a stale dirty set
        behind (docs/RESILIENCE.md): the next query rebuilds fully."""
        netlist, forest = design
        work = forest.copy()
        inc = IncrementalSTA(netlist, work)
        inc.run()
        rng = np.random.default_rng(2)
        work.set_steiner_coords(_random_moves(work, rng))

        boom = RuntimeError("injected mid-query fault")

        def exploding(*a, **k):
            raise boom

        monkeypatch.setattr(flatmod, "elmore_update", exploding)
        with pytest.raises(RuntimeError):
            inc.run()
        monkeypatch.undo()
        assert inc._state is None  # stale state dropped, not half-updated

        rep = inc.run()  # full rebuild
        full = STAEngine(netlist).run(work)
        assert rep.wns == full.wns and rep.tns == full.tns
        assert np.array_equal(rep.arrival, full.arrival, equal_nan=True)


class TestAdapterSequences:
    """`IncrementalSTA` is a report adapter over the batched
    ``ScenarioSTA`` at S=1: after every step of a seeded mix of
    pre-route and routed queries, mode switches and invalidations, its
    report equals a fresh full ``STAEngine.run`` bitwise."""

    @pytest.mark.parametrize("name", ["spm", "picorv32a"])
    def test_mixed_sequence_bitwise(self, name):
        netlist, forest = prepare_design(name)
        work = forest.copy()
        # One engine for both sides: the flat-forest cache is keyed on
        # the engine's pin caps, so a second engine would force every
        # adapter query down the full-rebuild path.
        engine = STAEngine(netlist)
        inc = IncrementalSTA(netlist, work, engine=engine)
        rng = np.random.default_rng(23)
        actions = ["pre", "routed", "pre", "pre", "invalidate", "routed",
                   "routed", "pre", "invalidate", "pre", "routed"]
        for step, action in enumerate(actions):
            if action == "invalidate":
                inc.invalidate()
            else:
                work.set_steiner_coords(_random_moves(work, rng))
            rr = util = None
            if action == "routed":
                grid = GCellGrid(netlist.die_width, netlist.die_height, netlist.technology)
                rr = GlobalRouter(grid).route(work)
                assign_layers(rr, netlist.technology, grid.nx * grid.ny)
                util = grid.utilization_map()
            got = inc.run(route_result=rr, utilization=util)
            want = engine.run(work, rr, utilization=util)
            assert np.array_equal(got.arrival, want.arrival, equal_nan=True), step
            assert np.array_equal(got.slew, want.slew, equal_nan=True), step
            assert got.slack == want.slack, step
            assert got.net_load == want.net_load, step
            assert (got.wns, got.tns, got.num_violations) == (
                want.wns, want.tns, want.num_violations
            ), step
        assert inc.num_full == 3  # first query + two invalidations


# ----------------------------------------------------------------------
# Topology-cache invalidation
# ----------------------------------------------------------------------
class TestTopologyInvalidation:
    def test_prune_invalidates_flat_cache(self, design):
        netlist, forest = design
        work = forest.copy()
        engine = STAEngine(netlist)
        engine.run(work)  # populate the flat cache
        flat_before = flat_forest_of(work)

        for tree in work.trees:
            tree.prune_degree2_steiner()
        flat_after = flat_forest_of(work)
        assert flat_after is not flat_before  # cache rebuilt, not stale

        # Post-prune timing agrees with a never-cached engine run.
        fresh = STAEngine(netlist)
        a = engine.run(work)
        b = fresh.run(work)
        assert a.wns == b.wns and a.tns == b.tns
        assert np.array_equal(a.arrival, b.arrival, equal_nan=True)

    def test_refreshed_pin_positions_reach_signoff(self):
        """Re-placement reassigns ``tree.pin_xy``: the memoized
        flattening must not keep serving the old pin positions."""
        netlist, forest = clone_state(*prepare_design("spm"))
        engine = STAEngine(netlist)
        before = engine.run(forest)  # memoize the flattening
        cell = netlist.cells[len(netlist.cells) // 2]
        cell.x = netlist.die_width - cell.x
        cell.y = netlist.die_height - cell.y
        forest.refresh_pin_positions()
        got = engine.run(forest)
        fresh = SteinerForest(netlist, [t.copy() for t in forest.trees])
        want = STAEngine(netlist).run(fresh)
        assert got.arrival.tobytes() != before.arrival.tobytes()  # the move matters
        assert got.arrival.tobytes() == want.arrival.tobytes()
        assert got.slew.tobytes() == want.slew.tobytes()
        assert got.slack == want.slack
        assert (got.wns, got.tns) == (want.wns, want.tns)


# ----------------------------------------------------------------------
# One flattening per topology, shared by every consumer
# ----------------------------------------------------------------------
def _flatten_spans(tel) -> int:
    return sum(
        1 for e in tel.events
        if e["kind"] == "span_start" and e["name"] == "steiner.flatten"
    )


class TestOneFlattening:
    def test_copy_shares_the_flattening_until_it_diverges(self, design):
        netlist, forest = design
        work = forest.copy()
        flat = flat_forest_of(work)
        twin = work.copy()
        assert flat_forest_of(twin) is flat
        for tree in twin.trees:
            tree.prune_degree2_steiner()
        assert flat_forest_of(twin) is not flat
        assert flat_forest_of(work) is flat

    def test_optimize_flattens_once(self):
        """The congestion probe, the graph build, the probe routes and
        the probe STAs of one hybrid ``optimize()`` share one build."""
        from repro.core.tsteiner import TSteiner
        from repro.obs import Telemetry, telemetry_session
        from repro.timing_model.model import EvaluatorConfig, TimingEvaluator

        netlist, forest = prepare_design("spm")
        work = SteinerForest(netlist, [t.copy() for t in forest.trees])
        model = TimingEvaluator(EvaluatorConfig(seed=0, hidden=16))
        cfg = RefinementConfig(max_iterations=4, validate_every=2, polish_probes=3)
        with Telemetry() as tel, telemetry_session(tel):
            TSteiner(model, cfg).optimize(netlist, work, telemetry=tel)
        assert tel.counters["refine.validator_probes"] > 0
        assert _flatten_spans(tel) == 1
        assert tel.counters["sta.flat_cache_misses"] == 1
        assert tel.counters["sta.flat_cache_hits"] > 0

    def test_eco_resize_regathers_caps_buffer_reflattens_once(self):
        """A resize changes pin caps, not trees: its apply, query and
        revert build no flattening and no engine.  A buffer insertion adds and
        replaces trees: one build; its revert restores the old entry,
        as a re-route's does."""
        from repro.eco import EcoContext, ResizeOp
        from repro.obs import Telemetry, telemetry_session

        netlist, forest = clone_state(*prepare_design("spm"))
        ctx = EcoContext(netlist, forest)
        ctx.run()
        cell, to_ct = next(
            (c, v)
            for c in netlist.cells
            if not c.is_sequential
            for v in netlist.library.variants_of(c.cell_type)
            if v.pin_caps != c.cell_type.pin_caps
        )
        resize = ResizeOp(cell.index, to_ct)
        with Telemetry() as tel, telemetry_session(tel):
            ctx.apply(resize)
            ctx.run()
            ctx.revert(resize)
            ctx.run()
        assert ctx.rebuilds == 0  # the engine was patched, not rebuilt
        assert _flatten_spans(tel) == 0
        assert tel.counters.get("sta.flat_cache_misses", 0) == 0

        net = next(n for n in netlist.nets if n.degree > 2)
        buf = BufferInsertOp(net.index, net.sinks[-1])
        with Telemetry() as tel, telemetry_session(tel):
            ctx.apply(buf)
            ctx.run()
        assert _flatten_spans(tel) == 1
        with Telemetry() as tel, telemetry_session(tel):
            ctx.revert(buf)
            ctx.run()
        assert _flatten_spans(tel) == 0
        assert tel.counters.get("sta.flat_cache_misses", 0) == 0

        # A re-route changes one tree in place of the netlist: its
        # revert puts the pre-apply entry back as well.
        reroute = RerouteOp(net.index)
        ctx.apply(reroute)
        ctx.run()
        with Telemetry() as tel, telemetry_session(tel):
            ctx.revert(reroute)
            ctx.run()
        assert _flatten_spans(tel) == 0


# ----------------------------------------------------------------------
# Refinement checkpoint-resume with an incremental validator
# ----------------------------------------------------------------------
class TestHybridResumeWithIncrementalValidator:
    def test_resume_bit_identical(self, tmp_path):
        """Kill-and-resume with the production (IncrementalSTA-backed)
        validator reproduces the uninterrupted run byte for byte —
        the restore path resets the incremental state, so cached
        timing from the dead attempt cannot skew the resumed one."""
        from repro.core.tsteiner import TSteiner
        from repro.timing_model.graph import build_timing_graph

        netlist, forest = prepare_design("spm")
        graph = build_timing_graph(netlist, forest)
        coords0 = forest.get_steiner_coords()
        cfg = RefinementConfig(
            max_iterations=6,
            converge_ratio=1e9,
            acceptance="hybrid",
            validate_every=2,
            polish_probes=0,
        )

        full = refine(
            _QuadraticModel(),
            graph,
            coords0,
            cfg,
            clamp_fn=forest.clamp_coords,
            validator=TSteiner._make_validator(netlist, forest),
        )

        path = tmp_path / "refine.npz"
        killer = _FaultyModel(
            _QuadraticModel(), faults.FaultSpec(at_call=6, exc=RuntimeError)
        )
        with pytest.raises(RuntimeError):
            refine(
                killer,
                graph,
                coords0,
                cfg,
                clamp_fn=forest.clamp_coords,
                validator=TSteiner._make_validator(netlist, forest),
                checkpoint_path=path,
            )
        assert path.exists()
        resumed = refine(
            _QuadraticModel(),
            graph,
            coords0,
            cfg,
            clamp_fn=forest.clamp_coords,
            validator=TSteiner._make_validator(netlist, forest),
            checkpoint_path=path,
            resume=True,
        )
        assert resumed.resumed is True
        _assert_refinement_identical(resumed, full)
