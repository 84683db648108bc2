"""Failure-injection and degenerate-input tests (DESIGN.md §6).

Every subsystem must behave sanely at the edges: single-pin nets,
coincident pins, zero gradients, designs with no violations, saturated
routing grids, and empty structures.

The fault-harness suites at the bottom drive the resilience runtime
(docs/RESILIENCE.md) with deterministic injected failures: a validator
that dies mid-refinement, NaN gradients mid-loop, and deadlines that
expire mid-refinement / mid-training must all produce usable flagged
results instead of unhandled crashes.
"""

import numpy as np
import pytest

from repro.autodiff.tensor import Tensor
from repro.core.penalty import PenaltyConfig, hard_metrics, smoothed_penalty
from repro.core.refine import RefinementConfig, refine
from repro.flow.pipeline import prepare_design, run_routing_flow
from repro.groute.router import GlobalRouter
from repro.netlist.netlist import Netlist, PinDirection
from repro.pdk.clocks import ClockSpec
from repro.pdk.liberty import default_library
from repro.pdk.technology import default_technology
from repro.routegrid.grid import GCellGrid
from repro.runtime import Budget, ManualClock, NumericalError, StageError, faults
from repro.sta.engine import STAEngine
from repro.steiner.forest import SteinerForest, build_forest
from repro.steiner.rsmt import construct_tree
from repro.testing.parity import ClosureModel
from repro.timing_model.graph import build_timing_graph


class TestDegenerateNets:
    def test_coincident_pins(self):
        # Two pins at the exact same location: zero-length net.
        tree = construct_tree(0, [1, 2], np.array([[5.0, 5.0], [5.0, 5.0]]))
        tree.validate()
        assert tree.wirelength() == 0.0

    def test_three_coincident_pins(self):
        pts = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
        tree = construct_tree(0, [1, 2, 3], pts)
        tree.validate()
        assert tree.wirelength() == 0.0

    def test_collinear_pins(self):
        pts = np.array([[0.0, 0.0], [5.0, 0.0], [10.0, 0.0]])
        tree = construct_tree(0, [1, 2, 3], pts)
        tree.validate()
        assert abs(tree.wirelength() - 10.0) < 1e-9

    def test_sta_on_zero_length_net(self):
        lib = default_library()
        nl = Netlist("zero", lib, default_technology(), ClockSpec(1.0))
        nl.die_width = nl.die_height = 12.0
        a = nl.add_cell("a", lib["INV_X1"])
        b = nl.add_cell("b", lib["INV_X1"])
        a.x = a.y = b.x = b.y = 5.0  # stacked (illegal but timeable)
        pi = nl.add_port("i", PinDirection.OUTPUT, 0.0, 5.0)
        po = nl.add_port("o", PinDirection.INPUT, 12.0, 5.0)
        nl.add_net("n0", pi.index, [a.pin_indices["A"]])
        nl.add_net("n1", a.pin_indices["Y"], [b.pin_indices["A"]])
        nl.add_net("n2", b.pin_indices["Y"], [po.index])
        forest = build_forest(nl)
        report = STAEngine(nl).run(forest)
        assert np.isfinite(report.arrival[po.index])


class TestNoViolationDesign:
    def test_zero_tns_handles_ratios(self):
        netlist, forest = prepare_design("spm")
        # Relax the clock massively: nothing violates.
        netlist.clock = ClockSpec(period=1000.0)
        result = run_routing_flow(netlist, forest)
        assert result.tns == 0.0
        assert result.num_violations == 0
        assert result.wns > 0

    def test_penalty_on_positive_slack(self):
        arrival = Tensor(np.array([0.1, 0.2]), requires_grad=True)
        p, wns_s, tns_s = smoothed_penalty(
            arrival, np.array([0, 1]), np.array([10.0, 10.0]), PenaltyConfig()
        )
        p.backward()
        assert np.isfinite(p.item())
        assert np.isfinite(arrival.grad).all()
        # At a *small* smoothing temperature, the smoothed TNS of a
        # clean design approaches the hard value 0.  (At the paper's
        # gamma=10, positive-slack paths deliberately still contribute
        # optimization pressure — that is the point of the smoothing.)
        _, _, tns_tight = smoothed_penalty(
            arrival,
            np.array([0, 1]),
            np.array([10.0, 10.0]),
            PenaltyConfig(gamma=0.1),
        )
        assert tns_tight.item() > -1e-6


class TestSaturatedGrid:
    def test_router_survives_zero_capacity_region(self):
        netlist, forest = prepare_design("spm")
        grid = GCellGrid(netlist.die_width, netlist.die_height, netlist.technology)
        # Pre-fill the whole grid close to capacity.
        grid.use_h[:] = grid.cap_h * 0.95
        grid.use_v[:] = grid.cap_v * 0.95
        result = GlobalRouter(grid).route(forest)
        # route() resets usage first — verify it actually routed.
        assert result.num_segments == forest.num_edges

    def test_overflow_reported_when_capacity_tiny(self):
        netlist, forest = prepare_design("APU")
        grid = GCellGrid(
            netlist.die_width, netlist.die_height, netlist.technology, derate=0.02
        )
        result = GlobalRouter(grid).route(forest)
        assert result.overflow > 0
        assert result.max_utilization > 1.0


class TestZeroGradientRefinement:
    def test_refine_with_constant_model(self):
        """A model whose output ignores coordinates must not crash."""
        from repro.core.refine import RefinementConfig, refine
        from repro.timing_model.graph import build_timing_graph

        netlist, forest = prepare_design("spm")
        graph = build_timing_graph(netlist, forest)

        class ConstantModel(ClosureModel):
            def __call__(self, g, coords):
                # No dependence on coords: zero gradient everywhere.
                return {"arrival": Tensor(np.zeros(g.n_pins)) + coords.sum() * 0.0}

            def predict_arrivals(self, g, coords):
                return np.zeros(g.n_pins)

        cfg = RefinementConfig(max_iterations=3, acceptance="evaluator", polish_probes=0)
        result = refine(ConstantModel(), graph, forest.get_steiner_coords(), cfg)
        assert result.iterations <= 3
        assert np.isfinite(result.theta)


class TestEmptyStructures:
    def test_empty_forest_flow(self):
        lib = default_library()
        nl = Netlist("lonely", lib, default_technology(), ClockSpec(1.0))
        nl.die_width = nl.die_height = 12.0
        pi = nl.add_port("i", PinDirection.OUTPUT, 0.0, 6.0)
        po = nl.add_port("o", PinDirection.INPUT, 12.0, 6.0)
        nl.add_net("n", pi.index, [po.index])
        forest = build_forest(nl)
        report = STAEngine(nl).run(forest)
        assert po.index in report.slack

    def test_forest_with_no_steiner_points(self):
        # Straight-line nets produce trees without Steiner nodes.
        lib = default_library()
        nl = Netlist("line", lib, default_technology(), ClockSpec(1.0))
        nl.die_width = nl.die_height = 12.0
        pi = nl.add_port("i", PinDirection.OUTPUT, 0.0, 6.0)
        po = nl.add_port("o", PinDirection.INPUT, 12.0, 6.0)
        nl.add_net("n", pi.index, [po.index])
        forest = build_forest(nl)
        assert forest.num_steiner_points == 0
        assert forest.get_steiner_coords().shape == (0, 2)
        forest.set_steiner_coords(np.zeros((0, 2)))  # no-op roundtrip

    def test_hard_metrics_empty(self):
        wns, tns, vios = hard_metrics(np.zeros(3), np.array([], dtype=np.int64), np.array([]))
        assert (wns, tns, vios) == (0.0, 0.0, 0)


# ---------------------------------------------------------------------------
# Fault-harness suites: deterministic injected failures against the
# resilience runtime (repro.runtime).
# ---------------------------------------------------------------------------


class _QuadraticModel(ClosureModel):
    """Differentiable toy evaluator: uniform arrival = scale * sum(coords^2).

    Moving any Steiner point toward the origin lowers every arrival, so
    refinement makes steady accepted progress with nonzero gradients —
    a fully deterministic, millisecond-cheap stand-in for the GNN.
    """

    def __init__(self, scale: float = 1e-4):
        self.scale = scale

    def __call__(self, graph, coords):
        spread = (coords * coords).sum() * self.scale
        return {"arrival": Tensor(np.zeros(graph.n_pins)) + spread}

    def predict_arrivals(self, graph, coords):
        c = np.asarray(coords, dtype=np.float64)
        return np.zeros(graph.n_pins) + float((c * c).sum()) * self.scale


class _FaultyModel(ClosureModel):
    """Routes a model's forward pass through the fault harness.

    ``model(...)`` resolves ``__call__`` on the *type*, so instance-level
    injection cannot intercept it — this proxy can.  ``predict_arrivals``
    (the non-differentiable path) is left untouched.
    """

    def __init__(self, inner, *specs, sleep=None):
        self.inner = inner
        kwargs = {"sleep": sleep} if sleep is not None else {}
        self._call = faults.wrap(inner.__call__, *specs, **kwargs)

    def __call__(self, graph, coords):
        return self._call(graph, coords)

    def predict_arrivals(self, graph, coords):
        return self.inner.predict_arrivals(graph, coords)


def _toy_validator(coords: np.ndarray):
    """Deterministic 'real' metrics that improve as coordinates shrink."""
    s = float(np.abs(np.asarray(coords, dtype=np.float64)).sum())
    return (-s * 1e-3, -s * 2e-3)


@pytest.fixture(scope="module")
def spm_design():
    netlist, forest = prepare_design("spm")
    graph = build_timing_graph(netlist, forest)
    return netlist, forest, graph


class TestValidatorFailureMidRefinement:
    def test_hard_validator_failure_degrades(self, spm_design):
        """A validator that goes hard-down mid-run flips the loop into
        degraded evaluator-only mode instead of crashing Algorithm 1."""
        _, forest, graph = spm_design
        validator = faults.wrap(
            _toy_validator, faults.FaultSpec(at_call=2, repeat=True)
        )
        cfg = RefinementConfig(
            max_iterations=6,
            converge_ratio=1e9,
            acceptance="hybrid",
            validate_every=1,
            polish_probes=4,
            validator_retries=1,
        )
        result = refine(
            _QuadraticModel(), graph, forest.get_steiner_coords(), cfg,
            validator=validator,
        )
        assert result.degraded is True
        # anchor probe + the probe that died; no polish probes after degrade
        assert result.validations == 2
        assert result.iterations == 6
        assert np.isfinite(result.coords).all()
        assert result.coords.shape == forest.get_steiner_coords().reshape(-1, 2).shape

    def test_outage_during_polish_keeps_validated_point(self, spm_design):
        """A validator that dies during polish hands back the polish
        stage's best *validated* probe, not the unprobed pre-polish
        point the evaluator-only fallback would round."""
        _, forest, graph = spm_design
        c0 = forest.get_steiner_coords().reshape(-1, 2)
        probes = []

        def validator(coords):
            if len(probes) >= 13:  # probe 14 on: the oracle is down
                raise RuntimeError("validator down")
            s = float(np.abs(np.asarray(coords) - 0.8 * c0).sum())
            probes.append((np.array(coords, copy=True), -s * 1e-3, -s * 2e-3))
            return probes[-1][1:]

        cfg = RefinementConfig(
            max_iterations=2, validate_every=1, polish_probes=12, validator_retries=0
        )
        result = refine(
            _QuadraticModel(), graph, forest.get_steiner_coords(), cfg,
            clamp_fn=forest.clamp_coords, validator=validator,
        )
        assert result.degraded is True
        w_w, w_t = abs(cfg.penalty.lambda_wns), abs(cfg.penalty.lambda_tns)
        best = max(probes, key=lambda p: w_w * p[1] + w_t * p[2])
        assert result.coords.tobytes() == best[0].tobytes()

    def test_transient_validator_failure_is_retried(self, spm_design):
        """One blip within the retry allowance never degrades the run."""
        _, forest, graph = spm_design
        validator = faults.wrap(_toy_validator, faults.FaultSpec(at_call=2))
        cfg = RefinementConfig(
            max_iterations=4,
            converge_ratio=1e9,
            acceptance="hybrid",
            validate_every=1,
            polish_probes=0,
            validator_retries=2,
        )
        result = refine(
            _QuadraticModel(), graph, forest.get_steiner_coords(), cfg,
            validator=validator,
        )
        assert result.degraded is False
        assert validator.calls >= 3  # the failed call plus its retry


class TestNaNGradientMidLoop:
    def _config(self, policy):
        return RefinementConfig(
            max_iterations=4,
            converge_ratio=1e9,
            acceptance="evaluator",
            polish_probes=0,
            nonfinite_policy=policy,
        )

    def test_sanitize_skips_poisoned_step(self, spm_design):
        _, forest, graph = spm_design
        # Calls 1-2 are the adaptive-theta probes; call 4 is iteration 2.
        model = _FaultyModel(
            _QuadraticModel(), faults.FaultSpec(at_call=4, mode="nan")
        )
        result = refine(model, graph, forest.get_steiner_coords(), self._config("sanitize"))
        assert result.skipped_steps == 1
        assert result.iterations == 4  # the run kept going
        assert len(result.history) == result.iterations
        assert np.isfinite(result.coords).all()
        assert np.isfinite(result.best_wns) and np.isfinite(result.best_tns)

    def test_raise_policy_aborts(self, spm_design):
        _, forest, graph = spm_design
        model = _FaultyModel(
            _QuadraticModel(), faults.FaultSpec(at_call=4, mode="nan")
        )
        with pytest.raises(NumericalError):
            refine(model, graph, forest.get_steiner_coords(), self._config("raise"))


class TestDeadlineExpiry:
    def test_mid_refinement_returns_best_so_far(self, spm_design):
        """A stalled forward pass blows the wall-clock budget; the loop
        notices at the next iteration boundary and winds down."""
        _, forest, graph = spm_design
        clock = ManualClock()
        budget = Budget(wall_seconds=50.0, clock=clock.now)
        model = _FaultyModel(
            _QuadraticModel(),
            faults.FaultSpec(at_call=4, mode="stall", stall_seconds=100.0),
            sleep=clock.advance,
        )
        cfg = RefinementConfig(
            max_iterations=10,
            converge_ratio=1e9,
            acceptance="evaluator",
            polish_probes=0,
        )
        result = refine(model, graph, forest.get_steiner_coords(), cfg, budget=budget)
        assert result.timed_out is True
        # adaptive probes are calls 1-2, so call 4 stalls in iteration 2.
        assert result.iterations == 2
        # Best-so-far: accepts only ever improve on the initial metrics.
        assert result.best_wns >= result.init_wns
        assert result.best_tns >= result.init_tns
        assert np.isfinite(result.coords).all()

    def test_mid_training_returns_best_so_far(self, spm_design):
        from repro.timing_model.dataset import make_sample
        from repro.timing_model.model import EvaluatorConfig, TimingEvaluator
        from repro.timing_model.train import TrainerConfig, train_evaluator

        netlist, forest, _ = spm_design
        sample = make_sample(netlist, forest, None, is_train=True)
        model = TimingEvaluator(EvaluatorConfig(hidden=8, seed=3))

        ticks = {"t": 0.0}

        def ticking_clock() -> float:
            # Every budget poll costs one virtual second, so the deadline
            # expires after a deterministic number of epochs.
            ticks["t"] += 1.0
            return ticks["t"]

        budget = Budget(wall_seconds=3.5, clock=ticking_clock)
        cfg = TrainerConfig(epochs=20, patience=100)
        result = train_evaluator(model, [sample], cfg, budget=budget)
        assert result.timed_out is True
        assert 0 < len(result.losses) < cfg.epochs
        assert all(np.isfinite(result.losses))

    def test_training_nan_labels_skip_steps(self, spm_design):
        import dataclasses

        from repro.timing_model.dataset import make_sample
        from repro.timing_model.model import EvaluatorConfig, TimingEvaluator
        from repro.timing_model.train import TrainerConfig, train_evaluator

        netlist, forest, _ = spm_design
        clean = make_sample(netlist, forest, None, is_train=True)
        poisoned = dataclasses.replace(
            clean, arrival_label=np.full_like(clean.arrival_label, np.nan)
        )
        model = TimingEvaluator(EvaluatorConfig(hidden=8, seed=3))
        initial = {k: v.copy() for k, v in model.state_dict().items()}

        cfg = TrainerConfig(epochs=3, patience=10, nonfinite_policy="sanitize")
        result = train_evaluator(model, [poisoned], cfg)
        assert result.skipped_steps == 3
        assert all(np.isnan(result.losses))
        # Every step was dropped before Adam ran: weights untouched.
        for k, v in model.state_dict().items():
            assert np.array_equal(v, initial[k])

        with pytest.raises(NumericalError):
            train_evaluator(
                TimingEvaluator(EvaluatorConfig(hidden=8, seed=3)),
                [poisoned],
                TrainerConfig(epochs=3, nonfinite_policy="raise"),
            )


class TestGuardedPipelineStages:
    def test_groute_failure_yields_partial_result(self, spm_design):
        netlist, forest, _ = spm_design
        with faults.inject(
            GlobalRouter, "route", faults.FaultSpec(at_call=1, repeat=True)
        ):
            result = run_routing_flow(netlist, forest)
        assert result.partial is True
        assert "FaultInjected" in result.stage_errors["groute"]
        assert result.stage_errors["droute"].startswith("skipped")
        assert result.stage_errors["sta"].startswith("skipped")
        assert np.isnan(result.wns) and np.isnan(result.tns)

    def test_strict_mode_raises_stage_error(self, spm_design):
        netlist, forest, _ = spm_design
        with faults.inject(
            GlobalRouter, "route", faults.FaultSpec(at_call=1, repeat=True)
        ):
            with pytest.raises(StageError) as exc_info:
                run_routing_flow(netlist, forest, strict=True)
        assert exc_info.value.stage == "groute"
