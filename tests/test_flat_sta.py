"""Parity tests for the vectorized / incremental STA stack.

Three contracts (docs/PERFORMANCE.md):

* the batched CSR Elmore kernel reproduces the per-net reference
  analysis to 1e-12;
* ``STAEngine.run`` agrees with the scalar oracle
  ``repro.testing.oracles.reference_sta`` to 1e-9 on WNS/TNS and
  endpoint slacks (float re-association only);
* :class:`~repro.sta.incremental.IncrementalSTA` is *bitwise* equal to
  a from-scratch flat run after arbitrary move / revert / mode-switch /
  resume sequences, and stale caches (topology edits, interrupted
  queries) can never leak into a later answer.
"""

import numpy as np
import pytest

from repro.core.refine import RefinementConfig, refine
from repro.flow.pipeline import prepare_design
from repro.groute.layer_assign import assign_layers
from repro.groute.router import GlobalRouter
from repro.routegrid.grid import GCellGrid
from repro.runtime import faults
from repro.sta import IncrementalSTA, STAEngine
from repro.sta import flat as flatmod
from repro.testing.oracles import compute_net_timing, reference_sta

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
# Batched Elmore vs per-net reference
# ----------------------------------------------------------------------
class TestElmoreParity:
    def test_batched_elmore_matches_per_net_reference(self, design):
        netlist, forest = design
        engine = STAEngine(netlist)
        pin_caps = engine.pert().pin_caps
        flat = flatmod.flat_forest_of(forest, pin_caps)
        xy = flatmod.node_positions(flat, forest.get_steiner_coords())
        edge_r, edge_c = flatmod.preroute_edge_rc(flat, netlist.technology, xy)
        state = flatmod.elmore_forest(flat, edge_r, edge_c)

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
        flat = flatmod.flat_forest_of(forest, engine.pert().pin_caps)
        coords = forest.get_steiner_coords()
        xy = flatmod.node_positions(flat, coords)
        edge_r, edge_c = flatmod.preroute_edge_rc(flat, netlist.technology, xy)
        full = flatmod.elmore_forest(flat, edge_r, edge_c)

        # Perturb a few trees' geometry, update only those trees.
        rng = np.random.default_rng(3)
        trees = rng.choice(flat.n_trees, size=5, replace=False)
        trees = np.unique(trees)
        moved = coords.copy()
        sel = np.isin(flat.steiner_tree, trees)
        moved[sel] += 1.0
        xy2 = flatmod.node_positions(flat, moved)
        er2, ec2 = flatmod.preroute_edge_rc(flat, netlist.technology, xy2)
        flatmod.elmore_update(flat, er2, ec2, full, trees=trees)

        scratch = flatmod.elmore_forest(flat, er2, ec2)
        for name in ("node_cap", "subtree_cap", "delay", "total_cap",
                     "sink_delay", "sink_slew_deg"):
            assert np.array_equal(getattr(full, name), getattr(scratch, name)), name


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
        flat_before = flatmod.flat_forest_of(work, engine.pert().pin_caps)

        for tree in work.trees:
            tree.prune_degree2_steiner()
        flat_after = flatmod.flat_forest_of(work, engine.pert().pin_caps)
        assert flat_after is not flat_before  # cache rebuilt, not stale

        # Post-prune timing agrees with a never-cached engine run.
        fresh = STAEngine(netlist)
        a = engine.run(work)
        b = fresh.run(work)
        assert a.wns == b.wns and a.tns == b.tns
        assert np.array_equal(a.arrival, b.arrival, equal_nan=True)


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
