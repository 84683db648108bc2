"""Tests for the flow pipeline and random-disturbance baseline."""

import numpy as np
import pytest

from repro.flow.baseline import random_disturbance, random_move_trials
from repro.flow.pipeline import make_training_samples, prepare_design, run_routing_flow
from repro.groute.layer_assign import assign_layers
from repro.groute.router import GlobalRouter
from repro.mcmm import NEUTRAL_HOLD, ScenarioSet, ScenarioSTA
from repro.obs import Telemetry, get_telemetry, telemetry_session
from repro.routegrid.grid import GCellGrid
from repro.sta import STAEngine


def _route_fresh(netlist, forest):
    """Route ``forest`` on a fresh grid as the flow does; returns the
    route and the grid's utilization map."""
    grid = GCellGrid(netlist.die_width, netlist.die_height, netlist.technology)
    routed = GlobalRouter(grid).route(forest)
    assign_layers(routed, netlist.technology, grid.nx * grid.ny)
    return routed, grid.utilization_map()


def _neutral_hold_pass(netlist, forest, routed, util):
    sta = ScenarioSTA(netlist, forest, ScenarioSet([NEUTRAL_HOLD]))
    return sta.run(route_result=routed, utilization=util).scenarios[0]


def _assert_same_metrics(got, want):
    assert (got.name, got.check) == (want.name, want.check)
    assert (got.wns, got.tns, got.num_violations) == (
        want.wns, want.tns, want.num_violations
    )
    assert got.slack == want.slack
    assert np.array_equal(got.arrival, want.arrival, equal_nan=True)


@pytest.fixture(scope="module")
def spm():
    return prepare_design("spm")


@pytest.fixture(scope="module")
def spm_baseline(spm):
    netlist, forest = spm
    return run_routing_flow(netlist, forest)


class TestPrepareDesign:
    def test_deterministic(self):
        nl1, f1 = prepare_design("spm")
        nl2, f2 = prepare_design("spm")
        assert np.allclose(f1.get_steiner_coords(), f2.get_steiner_coords())
        assert np.allclose(
            [(c.x, c.y) for c in nl1.cells], [(c.x, c.y) for c in nl2.cells]
        )

    def test_without_edge_shifting(self):
        nl, forest = prepare_design("spm", edge_shift_passes=0)
        forest.validate()


class TestRunRoutingFlow:
    def test_metrics_present(self, spm_baseline):
        r = spm_baseline
        assert np.isfinite(r.wns)
        assert np.isfinite(r.tns)
        assert r.wirelength > 0
        assert r.num_vias > 0
        assert set(r.runtimes) == {"groute", "droute", "sta"}
        assert r.total_runtime > 0

    def test_design_violates_as_configured(self, spm_baseline):
        # Benchmarks are clocked to violate, like the paper's designs.
        assert spm_baseline.wns < 0
        assert spm_baseline.tns < 0
        assert spm_baseline.num_violations > 0

    def test_does_not_mutate_input_forest(self, spm):
        netlist, forest = spm
        before = forest.get_steiner_coords()
        run_routing_flow(netlist, forest)
        assert np.allclose(forest.get_steiner_coords(), before)

    def test_untraced_flow_carries_hold_report(self, spm, spm_baseline):
        """Hold sign-off is part of every successful sign-off, traced or
        not: it equals a neutral-hold pass over the same routed forest."""
        assert not get_telemetry().enabled
        netlist, forest = spm
        routed, util = _route_fresh(netlist, forest)
        assert STAEngine(netlist).run(forest, routed, utilization=util).wns == spm_baseline.wns
        got = spm_baseline.hold_report
        assert got is not None and got.slack
        assert got.name == NEUTRAL_HOLD.name
        _assert_same_metrics(got, _neutral_hold_pass(netlist, forest, routed, util))

    def test_repeatable(self, spm, spm_baseline):
        netlist, forest = spm
        again = run_routing_flow(netlist, forest)
        assert again.wns == spm_baseline.wns
        assert again.tns == spm_baseline.tns
        assert again.wirelength == spm_baseline.wirelength


class _SpanCounters(Telemetry):
    """Telemetry that also books each counter increment under every
    span open at the time."""

    def __init__(self) -> None:
        super().__init__()
        self.booked = []

    def count(self, name, n=1):
        super().count(name, n)
        self.booked.append((name, n, tuple(self._stack)))

    def counted_under(self, span_name, counter):
        ids = {
            e["span"] for e in self.events
            if e["kind"] == "span_start" and e["name"] == span_name
        }
        return sum(n for name, n, stack in self.booked if name == counter and ids & set(stack))


class TestOneSignoffPass:
    """The flow's STA stage times the routed forest once: the setup
    report, the MCMM report and the hold verdict are rows of one
    ``ScenarioSTA`` pass, bitwise equal to separate fresh passes."""

    @pytest.mark.parametrize(
        "scenarios",
        [None, ScenarioSet.signoff(), ScenarioSet.from_names(("slow_setup", "fast_hold"))],
        ids=["none", "signoff", "no_typ"],
    )
    def test_one_pass_equals_separate_passes(self, spm, scenarios):
        netlist, forest = spm
        tel = _SpanCounters()
        with tel, telemetry_session(tel):
            result = run_routing_flow(netlist, forest, scenarios=scenarios, telemetry=tel)
        assert not result.stage_errors
        assert tel.counted_under("flow.sta", "mcmm.full_rebuilds") == 1

        routed, util = _route_fresh(netlist, forest)
        want = STAEngine(netlist).run(forest, routed, utilization=util)
        got = result.report
        assert (got.wns, got.tns, got.num_violations) == (
            want.wns, want.tns, want.num_violations
        )
        assert got.slack == want.slack and got.required == want.required
        assert got.net_load == want.net_load
        assert np.array_equal(got.arrival, want.arrival, equal_nan=True)
        assert np.array_equal(got.slew, want.slew, equal_nan=True)

        if scenarios is None:
            assert result.scenario_report is None
        else:
            want_mcmm = ScenarioSTA(netlist, forest, scenarios).run(routed, util)
            got_mcmm = result.scenario_report
            assert [m.name for m in got_mcmm.scenarios] == list(scenarios.names)
            assert (got_mcmm.merged_wns, got_mcmm.merged_tns, got_mcmm.merged_violations) == (
                want_mcmm.merged_wns, want_mcmm.merged_tns, want_mcmm.merged_violations
            )
            for g, w in zip(got_mcmm.scenarios, want_mcmm.scenarios):
                _assert_same_metrics(g, w)
            assert (result.wns, result.tns) == (want_mcmm.merged_wns, want_mcmm.merged_tns)

        _assert_same_metrics(
            result.hold_report, _neutral_hold_pass(netlist, forest, routed, util)
        )


class TestRandomDisturbance:
    def test_moves_bounded(self, spm):
        _, forest = spm
        rng = np.random.default_rng(0)
        disturbed = random_disturbance(forest, rng, max_distance=2.0)
        delta = np.abs(
            disturbed.get_steiner_coords() - forest.get_steiner_coords()
        )
        assert delta.max() <= 2.0 + 1e-9

    def test_original_untouched(self, spm):
        _, forest = spm
        before = forest.get_steiner_coords()
        random_disturbance(forest, np.random.default_rng(1))
        assert np.allclose(forest.get_steiner_coords(), before)

    def test_clamped_to_die(self, spm):
        netlist, forest = spm
        rng = np.random.default_rng(2)
        disturbed = random_disturbance(forest, rng, max_distance=1e6)
        coords = disturbed.get_steiner_coords()
        assert coords[:, 0].min() >= 0.0
        assert coords[:, 0].max() <= netlist.die_width

    def test_trials_produce_ratios(self, spm, spm_baseline):
        netlist, forest = spm
        stats = random_move_trials(netlist, forest, spm_baseline, trials=3, seed=1)
        assert len(stats.tns_ratios) == 3
        assert stats.mean_tns_ratio > 0
        assert stats.tns_spread >= 0


class TestTrainingSamples:
    def test_split_flags(self):
        samples = make_training_samples(
            ["spm", "usb_cdc_core"], train_names=["spm"], augment=0
        )
        flags = {s.name: s.is_train for s in samples}
        assert flags["spm"] is True
        assert flags["usb_cdc_core"] is False

    def test_augmented_only_for_train(self):
        samples = make_training_samples(
            ["spm", "usb_cdc_core"], train_names=["spm"], augment=1
        )
        names = [s.name for s in samples]
        assert "spm@aug0" in names
        assert not any(n.startswith("usb_cdc_core@aug") for n in names)

    def test_labels_are_signoff(self):
        samples = make_training_samples(["spm"], train_names=["spm"], augment=0)
        sample = samples[0]
        assert sample.report is not None
        assert sample.label_mask.sum() > 0
        assert np.isfinite(sample.arrival_label[sample.label_mask]).all()

    def test_congestion_attached(self):
        samples = make_training_samples(["spm"], train_names=["spm"], augment=0)
        assert samples[0].graph.congestion is not None


def test_second_flow_reuses_the_prepared_forests_flattening():
    """``run_routing_flow`` flattens the caller's forest before copying
    it, so every copy shares that one memo entry: a second flow on one
    prepared forest books no whole-forest ``steiner.flatten`` span, and
    its results equal the first's bit for bit."""
    from repro.core.refine import RefinementConfig
    from repro.timing_model.model import EvaluatorConfig, TimingEvaluator

    netlist, forest = prepare_design("spm")
    model = TimingEvaluator(EvaluatorConfig(seed=0))
    cfg = RefinementConfig(max_iterations=4, validate_every=2, polish_probes=2)

    def flow():
        with Telemetry() as tel, telemetry_session(tel):
            result = run_routing_flow(netlist, forest, model=model, refinement_config=cfg)
        full = [
            e for e in tel.events
            if e["kind"] == "span_start" and e["name"] == "steiner.flatten"
            and "spliced" not in e["attrs"]
        ]
        assert not result.stage_errors
        return result, len(full)

    first, first_full = flow()
    second, second_full = flow()
    assert (first_full, second_full) == (1, 0)
    assert (first.wns, first.tns, first.wirelength) == (second.wns, second.tns, second.wirelength)
    assert first.refinement.coords.tobytes() == second.refinement.coords.tobytes()
    assert first.refinement.history == second.refinement.history
