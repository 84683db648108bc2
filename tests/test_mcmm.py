"""MCMM scenario engine tests (docs/MCMM.md).

The load-bearing contracts pinned down here:

* a one-element neutral `ScenarioSet` reproduces the single-scenario
  engine **bitwise** — batched STA rows, refine() trajectories, flow
  metrics;
* the batched cross-scenario STA rows equal N independent
  single-scenario runs bitwise, both full and incremental;
* scenario-merged refinement against a deliberately conflicting
  fast-hold corner improves the merged verdict without wrecking any
  individual scenario;
* checkpoint/resume restores per-scenario state byte-identically and
  rejects scenario-set mismatches in both directions;
* a real evaluator's merged-objective refinement on the compiled tape
  matches the closure reference bitwise across a pruner mask switch.
"""

import json

import numpy as np
import pytest

from repro.core.refine import RefinementConfig, refine
from repro.flow.pipeline import prepare_design, run_routing_flow
from repro.groute.layer_assign import assign_layers
from repro.groute.router import GlobalRouter, RouterConfig
from repro.mcmm import (
    DominancePruner,
    Mode,
    NEUTRAL_HOLD,
    Scenario,
    ScenarioPenalty,
    ScenarioSet,
    ScenarioSTA,
    get_mode,
)
from repro.obs import Telemetry
from repro.pdk.clocks import ClockSpec
from repro.pdk.corners import DEFAULT_HOLD_TIME, Corner, get_corner
from repro.routegrid.grid import GCellGrid
from repro.runtime import CheckpointError, faults
from repro.sta.engine import STAEngine
from repro.testing.parity import ClosureOnly, assert_same_trajectory
from repro.timing_model.graph import build_timing_graph
from repro.timing_model.model import EvaluatorConfig, TimingEvaluator

from tests.test_failure_injection import _FaultyModel, _QuadraticModel


@pytest.fixture(scope="module")
def spm_design():
    netlist, forest = prepare_design("spm")
    graph = build_timing_graph(netlist, forest)
    return netlist, forest, graph


def _route(netlist, forest):
    grid = GCellGrid(netlist.die_width, netlist.die_height, netlist.technology)
    rr = GlobalRouter(grid, RouterConfig()).route(forest)
    assign_layers(rr, netlist.technology, grid.nx * grid.ny)
    return rr, grid.utilization_map()


def _assert_metrics_bitwise(got, want):
    assert got.name == want.name
    assert got.check == want.check
    assert got.wns == want.wns
    assert got.tns == want.tns
    assert got.num_violations == want.num_violations
    assert got.slack == want.slack
    assert np.array_equal(got.arrival, want.arrival, equal_nan=True)


# ----------------------------------------------------------------------
# Scenario model
# ----------------------------------------------------------------------
class TestScenarioModel:
    def test_from_names_cross_product(self):
        ss = ScenarioSet.from_names(("typ", "slow_setup"), modes=("func", "overdrive"))
        assert ss.names == (
            "typ@func", "slow_setup@func", "typ@overdrive", "slow_setup@overdrive"
        )
        assert len(ss) == 4

    def test_default_is_single_neutral(self):
        ss = ScenarioSet.default()
        assert ss.is_single_neutral()
        assert ss.names == ("typ@func",)

    def test_signoff_set(self):
        ss = ScenarioSet.signoff()
        assert not ss.is_single_neutral()
        assert ss.setup_indices() == (0, 1)
        assert ss.hold_indices() == (2,)

    def test_duplicate_names_rejected(self):
        sc = Scenario(get_corner("typ"), get_mode("func"))
        with pytest.raises(ValueError):
            ScenarioSet([sc, sc])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSet([])

    def test_unknown_mode_rejected(self):
        with pytest.raises(KeyError):
            get_mode("no_such_mode")

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            Mode("bad", clock_scale=0.0)

    def test_scenario_clock_scaling(self):
        base = ClockSpec(period=2.0, uncertainty=0.1, latency=0.3)
        sc = Scenario(get_corner("slow_setup"), get_mode("overdrive"))
        clk = sc.clock(base)
        assert clk.period == 2.0 * 0.9
        assert clk.uncertainty == 0.1 * get_corner("slow_setup").uncertainty_scale
        assert clk.latency == 0.3

    def test_neutral_clock_bitwise_identical(self):
        base = ClockSpec(period=0.55, uncertainty=0.05)
        sc = Scenario(get_corner("typ"), get_mode("func"))
        assert sc.is_neutral
        assert sc.clock(base) == base


# ----------------------------------------------------------------------
# Batched cross-scenario STA
# ----------------------------------------------------------------------
class TestScenarioSTA:
    def test_single_neutral_delegates_and_matches_engine(self, spm_design):
        netlist, forest, _ = spm_design
        engine = STAEngine(netlist)
        want = engine.run(forest)
        rep = ScenarioSTA(netlist, forest, ScenarioSet.default(), engine=engine).run()
        m = rep.scenarios[0]
        assert m.wns == want.wns == rep.merged_wns
        assert m.tns == want.tns == rep.merged_tns
        assert m.num_violations == want.num_violations
        assert m.slack == want.slack
        assert np.array_equal(m.arrival, want.arrival, equal_nan=True)

    def test_single_neutral_batched_kernel_bitwise(self, spm_design):
        """The batched kernel itself (not just the delegate) reproduces
        the engine bitwise for the neutral scenario."""
        netlist, forest, _ = spm_design
        engine = STAEngine(netlist)
        want = engine.run(forest)
        rep = ScenarioSTA(
            netlist, forest, ScenarioSet.default(), engine=engine
        ).run()
        m = rep.scenarios[0]
        assert m.wns == want.wns
        assert m.tns == want.tns
        assert m.slack == want.slack
        assert np.array_equal(m.arrival, want.arrival, equal_nan=True)

    def test_batched_rows_match_independent_runs(self, spm_design):
        netlist, forest, _ = spm_design
        scenarios = ScenarioSet.signoff()
        batched = ScenarioSTA(netlist, forest, scenarios).run()
        for sc, got in zip(scenarios, batched.scenarios):
            want = ScenarioSTA(
                netlist, forest, ScenarioSet((sc,))
            ).run().scenarios[0]
            _assert_metrics_bitwise(got, want)
        assert batched.merged_wns == min(m.wns for m in batched.scenarios)
        assert batched.merged_tns == sum(m.tns for m in batched.scenarios)

    def test_batched_rows_match_independent_runs_routed(self, spm_design):
        netlist, forest, _ = spm_design
        rr, util = _route(netlist, forest)
        scenarios = ScenarioSet.signoff()
        batched = ScenarioSTA(netlist, forest, scenarios).run(
            route_result=rr, utilization=util
        )
        for sc, got in zip(scenarios, batched.scenarios):
            want = ScenarioSTA(
                netlist, forest, ScenarioSet((sc,))
            ).run(route_result=rr, utilization=util).scenarios[0]
            _assert_metrics_bitwise(got, want)

    def test_incremental_matches_full_rebuild(self, spm_design):
        netlist, forest, _ = spm_design
        scenarios = ScenarioSet.signoff()
        # One shared engine: the flat-forest cache is keyed on the
        # engine's pin-caps identity, so inc and the fresh rebuilds must
        # agree on it for the incremental path to stay warm.
        engine = STAEngine(netlist)
        inc = ScenarioSTA(netlist, forest, scenarios, engine=engine)
        base = forest.get_steiner_coords()
        inc.run()  # warm
        rng = np.random.default_rng(11)
        try:
            for _ in range(3):
                c = base.copy()
                idx = rng.choice(len(c), size=2, replace=False)
                c[idx] += rng.normal(0.0, 2.0, size=(2, 2))
                forest.set_steiner_coords(forest.clamp_coords(c))
                got = inc.run()
                assert inc.last_dirty_trees < inc.forest.num_trees
                fresh = ScenarioSTA(
                    netlist, forest, scenarios, engine=engine,
                ).run()
                for g, w in zip(got.scenarios, fresh.scenarios):
                    _assert_metrics_bitwise(g, w)
        finally:
            forest.set_steiner_coords(base)

    def test_probe_batch_multi_group_equals_full_and_writes_nothing(self):
        """Each probe of a batch over three wire groups and both check
        blocks times exactly what committing that move and re-running
        from scratch times, and the call writes nothing to the committed
        state: its arrays are read-only during the call and unchanged
        after it."""
        netlist, forest = prepare_design("picorv32a")
        work = forest.copy()
        scenarios = ScenarioSet.signoff()
        engine = STAEngine(netlist)
        sta = ScenarioSTA(netlist, work, scenarios, engine=engine)
        assert len(sta._wire_keys) == 3
        assert scenarios.setup_indices() and scenarios.hold_indices()
        sta.run()
        base = work.get_steiner_coords()
        rng = np.random.default_rng(3)
        probes = []
        for k in range(6):
            c = base.copy()
            if k != 2:  # one probe moves nothing
                rows = rng.choice(len(c), size=1 + k % 3, replace=False)
                c[rows] += rng.normal(0.0, 12.0, size=(rows.size, 2))
            probes.append(c)
        probes.append(probes[1].copy())  # a repeated move

        st = sta._state
        arrays = {
            k: v for k, v in vars(st).items() if isinstance(v, np.ndarray)
        }
        before = {k: v.copy() for k, v in arrays.items()}
        for v in arrays.values():
            v.setflags(write=False)
        try:
            _, got = sta.probe_batch(probes)
        finally:
            for v in arrays.values():
                v.setflags(write=True)
        assert sta._state is st
        for k, v in arrays.items():
            assert vars(st)[k] is v and np.array_equal(
                v, before[k], equal_nan=True
            ), k
        assert sta.last_probe_dirty[2] == 0

        for c, rep in zip(probes, got):
            work.set_steiner_coords(c)
            want = ScenarioSTA(netlist, work, scenarios, engine=engine).run()
            assert [
                (m.name, m.wns, m.tns, m.num_violations) for m in rep.scenarios
            ] == [
                (m.name, m.wns, m.tns, m.num_violations) for m in want.scenarios
            ]

    def test_slow_corner_pessimistic(self, spm_design):
        netlist, forest, _ = spm_design
        rep = ScenarioSTA(
            netlist, forest, ScenarioSet.from_names(("typ", "slow_setup"))
        ).run()
        typ, slow = rep.scenarios
        assert slow.wns < typ.wns
        assert rep.merged_wns == slow.wns

    def test_disabled_endpoints_excluded(self, spm_design):
        netlist, forest, _ = spm_design
        typ = ScenarioSTA(netlist, forest, ScenarioSet.default()).run().scenarios[0]
        worst_ep = min(typ.slack, key=typ.slack.get)
        mode = Mode("func_masked", disabled_endpoints=(worst_ep,))
        rep = ScenarioSTA(
            netlist,
            forest,
            ScenarioSet([Scenario(get_corner("typ"), mode)]),
        ).run()
        m = rep.scenarios[0]
        assert worst_ep not in m.slack
        assert m.wns > typ.wns

    def test_hold_matches_hold_analysis(self, spm_design):
        """The neutral-hold row of a batched sign-off set is the
        one-scenario hold analysis bitwise, and its slacks are the
        earliest arrival minus launch, library hold time and clock
        uncertainty."""
        netlist, forest, _ = spm_design
        engine = STAEngine(netlist)
        alone = ScenarioSTA(
            netlist, forest, ScenarioSet([NEUTRAL_HOLD]), engine=engine
        ).run().scenarios[0]
        batched = ScenarioSet(list(ScenarioSet.signoff()) + [NEUTRAL_HOLD])
        m = ScenarioSTA(netlist, forest, batched, engine=engine).run().by_name(
            NEUTRAL_HOLD.name
        )
        assert m.check == "hold"
        assert (m.wns, m.tns, m.num_violations) == (
            alone.wns, alone.tns, alone.num_violations
        )
        assert m.slack == alone.slack and m.slack
        assert np.array_equal(m.arrival, alone.arrival, equal_nan=True)
        clock = netlist.clock
        requirement = DEFAULT_HOLD_TIME + clock.uncertainty
        for ep, slack in m.slack.items():
            assert slack == m.arrival[ep] - clock.launch_time() - requirement


# ----------------------------------------------------------------------
# Scenario penalty + dominance pruning
# ----------------------------------------------------------------------
class TestScenarioPenalty:
    def test_hard_all_merges_min_and_sum(self, spm_design):
        netlist, forest, graph = spm_design
        pen = ScenarioPenalty(graph, ScenarioSet.signoff())
        arrival = _QuadraticModel().predict_arrivals(
            graph, forest.get_steiner_coords()
        )
        per_wns, per_tns, m_wns, m_tns = pen.hard_all(arrival)
        assert m_wns == per_wns.min()
        assert m_tns == per_tns.sum()

    def test_merged_penalty_differentiable(self, spm_design):
        from repro.autodiff.tensor import Tensor
        from repro.core.penalty import PenaltyConfig

        _, forest, graph = spm_design
        pen = ScenarioPenalty(graph, ScenarioSet.signoff())
        model = _QuadraticModel()
        coords = Tensor(forest.get_steiner_coords(), requires_grad=True)
        out = model(graph, coords)
        p = pen.merged_penalty(out["arrival"], PenaltyConfig())
        p.backward()
        assert np.isfinite(p.item())
        assert np.isfinite(coords.grad).all()

    def test_specs_match_register_walk(self, spm_design):
        """The penalty reads the graph's endpoint table: the same
        endpoints, in the same register-first order, and setup required
        times bitwise equal to the inline formula over a walk of the
        registers and ports."""
        netlist, _, graph = spm_design
        eps, setup, is_reg = [], [], []
        for cell in netlist.registers():
            ct = cell.cell_type
            for name in ct.input_pins:
                if name != ct.clock_pin:
                    eps.append(cell.pin_indices[name])
                    setup.append(ct.setup_time)
                    is_reg.append(True)
        for port in netlist.primary_outputs():
            eps += [port.index]
            setup += [0.0]
            is_reg += [False]
        eps, setup, is_reg = np.array(eps), np.array(setup), np.array(is_reg)
        cut = Mode("cut", clock_scale=0.9, disabled_endpoints=(int(eps[0]), int(eps[-1])))
        scenarios = ScenarioSet(
            [Scenario(get_corner(c), m) for m in (get_mode("func"), cut)
             for c in ("typ", "slow_setup", "fast_hold")]
        )
        pen = ScenarioPenalty(graph, scenarios)
        for sc, spec in zip(scenarios, pen.specs):
            clock = sc.clock(netlist.clock)
            enabled = ~np.isin(eps, sc.mode.disabled_endpoints)
            if sc.check == "hold":
                assert spec.ep_idx.tolist() == eps[enabled & is_reg].tolist()
                continue
            req = np.where(
                is_reg,
                clock.period + clock.latency
                - (setup + sc.corner.setup_margin) - clock.uncertainty,
                clock.period - clock.output_delay - clock.uncertainty,
            )
            assert spec.ep_idx.tolist() == eps[enabled].tolist()
            assert spec.required.tobytes() == req[enabled].tobytes()

    def test_no_active_scenario_rejected(self, spm_design):
        from repro.core.penalty import PenaltyConfig
        from repro.autodiff.tensor import Tensor

        _, forest, graph = spm_design
        pen = ScenarioPenalty(graph, ScenarioSet.signoff())
        arrival = Tensor(np.zeros(graph.n_pins))
        with pytest.raises(ValueError):
            pen.merged_penalty(
                arrival, PenaltyConfig(), active=np.zeros(3, dtype=bool)
            )


class TestDominancePruner:
    def test_prunes_after_streak_but_never_argmin(self):
        p = DominancePruner(("a", "b", "c"), prune_after=2, margin=0.05)
        # a is worst (never pruned); b is dominated; c sits within the
        # margin of the merged WNS and stays active.
        wns = np.array([-1.0, -0.1, -0.98])
        p.observe(wns)
        assert p.active.all()  # streak 1 < prune_after
        p.observe(wns)
        assert p.active.tolist() == [True, False, True]

    def test_margin_protects_near_critical(self):
        p = DominancePruner(("a", "b"), prune_after=1, margin=0.5)
        p.observe(np.array([-1.0, -0.7]))  # within 0.5 of merged: kept
        assert p.active.tolist() == [True, True]

    def test_streak_resets_when_not_dominated(self):
        p = DominancePruner(("a", "b"), prune_after=3, margin=0.01)
        p.observe(np.array([-1.0, -0.2]))
        p.observe(np.array([-1.0, -0.2]))
        p.observe(np.array([-0.2, -1.0]))  # b becomes critical: reset
        assert p.streak[1] == 0
        assert p.active.all()

    def test_periodic_recheck_restores(self):
        p = DominancePruner(("a", "b"), prune_after=1, recheck_every=3, margin=0.01)
        p.observe(np.array([-1.0, -0.2]))
        assert not p.active[1]
        p.tick()
        p.tick()
        p.tick()  # eval 3: full restore
        assert p.active.all()

    def test_state_roundtrip(self):
        p = DominancePruner(("a", "b", "c"), prune_after=1)
        p.tick()
        p.observe(np.array([-1.0, -0.2, -0.3]))
        q = DominancePruner(("a", "b", "c"), prune_after=1)
        q.load_state_arrays(p.state_arrays())
        assert np.array_equal(q.active, p.active)
        assert np.array_equal(q.streak, p.streak)
        assert q.evals == p.evals


# ----------------------------------------------------------------------
# Scenario-merged refinement
# ----------------------------------------------------------------------
def _conflicting_set() -> ScenarioSet:
    """typ setup vs a fast-hold corner tuned so the quadratic toy model
    starts hold-violating on spm: shrinking coordinates (the setup
    gradient's wish) makes hold worse, so only a merged objective
    settles in the feasible window between the two."""
    fast_hold = Corner(
        "fast_hold_tight", check="hold", cell_derate=0.88, hold_margin=0.22
    )
    return ScenarioSet(
        [
            Scenario(get_corner("typ"), get_mode("func")),
            Scenario(fast_hold, get_mode("func")),
        ]
    )


class TestRefineMCMM:
    def _cfg(self, iters=8):
        return RefinementConfig(
            max_iterations=iters,
            converge_ratio=1e9,
            acceptance="evaluator",
            polish_probes=0,
        )

    def test_neutral_scenarios_bitwise_identical_to_none(self, spm_design):
        """refine(scenarios=neutral single) takes the pre-MCMM path."""
        _, forest, graph = spm_design
        coords0 = forest.get_steiner_coords()
        cfg = self._cfg()
        plain = refine(_QuadraticModel(), graph, coords0, cfg)
        neutral = refine(
            _QuadraticModel(), graph, coords0, cfg, scenarios=ScenarioSet.default()
        )
        assert neutral.coords.tobytes() == plain.coords.tobytes()
        assert neutral.history == plain.history
        assert neutral.best_wns == plain.best_wns
        assert neutral.best_tns == plain.best_tns

    def test_tape_matches_closure_bitwise(self, tmp_path):
        """A real evaluator's MCMM run replays the merged penalty on the
        compiled tape, one tape per pruner mask, and matches the closure
        reference bit for bit — coordinates, history, best WNS/TNS and
        every ``refine_iter`` penalty — across a mask switch."""
        netlist, forest = prepare_design("usb_cdc_core")
        graph = build_timing_graph(netlist, forest)
        model = TimingEvaluator(EvaluatorConfig(seed=0))
        coords0 = forest.get_steiner_coords()
        runs = {}
        for label, evaluator in (("closure", ClosureOnly(model)), ("tape", model)):
            graph._static.clear()
            path = tmp_path / f"{label}.jsonl"
            with Telemetry(path=str(path)) as tel:
                result = refine(
                    evaluator, graph, coords0, self._cfg(iters=16),
                    clamp_fn=forest.clamp_coords,
                    scenarios=ScenarioSet.signoff(), telemetry=tel,
                )
            runs[label] = result, [json.loads(line) for line in path.read_text().splitlines()]

        def kinds(events, kind):
            return [e for e in events if e.get("kind") == kind]

        def per_run(pick):
            return {label: pick(events) for label, (_, events) in runs.items()}

        prunes = per_run(lambda ev: [(e["action"], e.get("scenarios")) for e in kinds(ev, "mcmm_prune")])
        assert prunes["tape"] == prunes["closure"] != []  # the mask switched
        compiles = per_run(
            lambda ev: [e for e in kinds(ev, "span_end") if e["name"] == "tape_compile"]
        )
        assert compiles["closure"] == []
        assert len(compiles["tape"]) >= 2  # one tape per visited mask
        assert_same_trajectory(runs["closure"][0], runs["tape"][0])
        penalties = per_run(lambda ev: [e["penalty"] for e in kinds(ev, "refine_iter")])
        assert len(penalties["tape"]) == 16
        assert penalties["tape"] == penalties["closure"]

    def test_conflicting_corner_improves_merged_without_regressions(
        self, spm_design
    ):
        _, forest, graph = spm_design
        scenarios = _conflicting_set()
        pen = ScenarioPenalty(graph, scenarios)
        model = _QuadraticModel()
        coords0 = forest.get_steiner_coords()

        init_wns, init_tns, init_m_wns, init_m_tns = pen.hard_all(
            model.predict_arrivals(graph, coords0)
        )
        assert init_m_wns < 0  # the hold corner starts violating

        result = refine(
            model, graph, coords0, self._cfg(iters=25), scenarios=scenarios
        )
        final_wns, _, final_m_wns, final_m_tns = pen.hard_all(
            model.predict_arrivals(graph, result.coords)
        )
        assert final_m_wns > init_m_wns
        assert final_m_tns >= init_m_tns
        assert result.best_wns == final_m_wns
        # No individual scenario may regress beyond tolerance.
        tol = 0.05
        for s in range(len(scenarios)):
            assert final_wns[s] >= min(init_wns[s], 0.0) - tol

    def test_resume_bit_identical_with_scenarios(self, spm_design, tmp_path):
        _, forest, graph = spm_design
        coords0 = forest.get_steiner_coords()
        scenarios = _conflicting_set()
        cfg = self._cfg()
        full = refine(_QuadraticModel(), graph, coords0, cfg, scenarios=scenarios)
        assert full.iterations == 8 and full.resumed is False

        ckpt = tmp_path / "refine.npz"
        dying = _FaultyModel(
            _QuadraticModel(), faults.FaultSpec(at_call=7, exc=RuntimeError)
        )
        with pytest.raises(RuntimeError):
            refine(
                dying, graph, coords0, cfg,
                scenarios=scenarios, checkpoint_path=ckpt,
            )
        assert ckpt.exists()

        resumed = refine(
            _QuadraticModel(), graph, coords0, cfg,
            scenarios=scenarios, checkpoint_path=ckpt, resume=True,
        )
        assert resumed.resumed is True
        assert resumed.coords.tobytes() == full.coords.tobytes()
        assert resumed.history == full.history
        assert resumed.best_wns == full.best_wns
        assert resumed.best_tns == full.best_tns
        assert resumed.iterations == full.iterations
        assert resumed.accepted == full.accepted

    def test_scenario_mismatch_rejected_on_resume(self, spm_design, tmp_path):
        _, forest, graph = spm_design
        coords0 = forest.get_steiner_coords()
        cfg = self._cfg(iters=3)
        scenarios = _conflicting_set()

        # Checkpoint written WITH scenarios ...
        ckpt = tmp_path / "mcmm.npz"
        refine(
            _QuadraticModel(), graph, coords0, cfg,
            scenarios=scenarios, checkpoint_path=ckpt,
        )
        # ... resumed without them: rejected.
        with pytest.raises(CheckpointError):
            refine(
                _QuadraticModel(), graph, coords0, cfg,
                checkpoint_path=ckpt, resume=True,
            )
        # ... or with a different set: rejected.
        with pytest.raises(CheckpointError):
            refine(
                _QuadraticModel(), graph, coords0, cfg,
                scenarios=ScenarioSet.signoff(),
                checkpoint_path=ckpt, resume=True,
            )

        # Checkpoint written WITHOUT scenarios, resumed with them: rejected.
        plain = tmp_path / "plain.npz"
        refine(_QuadraticModel(), graph, coords0, cfg, checkpoint_path=plain)
        with pytest.raises(CheckpointError):
            refine(
                _QuadraticModel(), graph, coords0, cfg,
                scenarios=scenarios, checkpoint_path=plain, resume=True,
            )


# ----------------------------------------------------------------------
# Flow integration
# ----------------------------------------------------------------------
class TestFlowMCMM:
    def test_flow_scenario_report(self):
        netlist, forest = prepare_design("spm")
        base = run_routing_flow(netlist, forest)
        res = run_routing_flow(netlist, forest, scenarios=ScenarioSet.signoff())
        assert res.scenario_report is not None
        typ = res.scenario_report.by_name("typ@func")
        # The neutral scenario inside the set reproduces the
        # single-scenario flow metrics bitwise.
        assert typ.wns == base.wns
        assert typ.tns == base.tns
        assert res.wns == res.scenario_report.merged_wns
        assert res.tns == res.scenario_report.merged_tns
        assert res.wns <= base.wns
        assert res.scenario_report.by_name("fast_hold@func").check == "hold"

    def test_flow_neutral_scenarios_no_report(self):
        netlist, forest = prepare_design("spm")
        res = run_routing_flow(netlist, forest, scenarios=ScenarioSet.default())
        assert res.scenario_report is None

    def test_experiment_config_scenario_set(self):
        from repro.experiments.common import ExperimentConfig

        cfg = ExperimentConfig.quick()
        assert cfg.scenario_set() is None
        import dataclasses

        mc = dataclasses.replace(cfg, corners=("typ", "fast_hold"))
        ss = mc.scenario_set()
        assert ss is not None and ss.names == ("typ@func", "fast_hold@func")
