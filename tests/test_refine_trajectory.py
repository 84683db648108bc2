"""Pinned Algorithm 1 trajectories on toy models (docs/ALGORITHM.md).

Each arm drives ``refine()`` down one branch of the loop — accept,
evaluator revert, validated revert with proposal-schedule rotation,
polish accept, polish outage, degrade, both sanitize skips, wall
budget, hybrid ``adam`` resume and an MCMM dominance prune — on the
quadratic toy evaluator (no BLAS matmul), so the trajectory is a
deterministic function of the algorithm alone.  Per-iteration
accept/skip flags, result counts and flags and the ``refine-v1`` key
set are pinned exactly; coordinates, history and metrics to a relative
1e-12.  Every arm also asserts that its branch was actually taken, so
a pin cannot go stale by missing it.
"""

import numpy as np
import pytest

from repro.core.refine import RefinementConfig, refine
from repro.flow.pipeline import prepare_design
from repro.mcmm import ScenarioSet
from repro.obs import Telemetry
from repro.runtime import Budget, faults, load_npz
from repro.runtime.budget import ManualClock
from repro.steiner.forest import SteinerForest
from repro.timing_model.graph import build_timing_graph

from tests.test_failure_injection import _FaultyModel, _QuadraticModel, _toy_validator

REL = 1e-12

#: ``refine-v1`` keys every snapshot carries.
BASE_KEYS = frozenset(
    "coords best_coords real_coords history t accepted pending_accepts "
    "prop_idx validations validated_reverts skipped_steps best_wns best_tns "
    "init_wns init_tns theta0 so_theta lambda_wns lambda_tns gamma degraded "
    "validator_on has_real real_wns real_tns".split()
)
ADAM_KEYS = frozenset({"so_m", "so_v", "so_t"})
MCMM_KEYS = frozenset({"mcmm_active", "mcmm_streak", "mcmm_evals"})


class _BowlModel(_QuadraticModel):
    """Arrival grows with the distance to ``center``: steps overshoot it."""

    def __init__(self, center, scale=1e-2):
        super().__init__(scale)
        self.center = np.asarray(center, dtype=np.float64).reshape(-1, 2)

    def __call__(self, graph, coords):
        return super().__call__(graph, coords - self.center)

    def predict_arrivals(self, graph, coords):
        return super().predict_arrivals(graph, np.asarray(coords) - self.center)


class _NaNMetricsModel(_QuadraticModel):
    """``predict_arrivals`` turns NaN on its ``at_call``-th invocation."""

    def __init__(self, at_call):
        super().__init__()
        self.at_call = at_call
        self.calls = 0

    def predict_arrivals(self, graph, coords):
        self.calls += 1
        out = super().predict_arrivals(graph, coords)
        return out * np.nan if self.calls == self.at_call else out


class _Probes:
    """Validator wrapper that records every probed coordinate matrix."""

    def __init__(self, inner, down_from=None):
        self.inner = inner
        self.down_from = down_from
        self.coords = []

    def __call__(self, coords):
        if self.down_from is not None and len(self.coords) + 1 >= self.down_from:
            raise RuntimeError("validator down")
        self.coords.append(np.array(coords, copy=True))
        return self.inner(coords)


def _target_validator(target):
    """Real metrics that improve as coordinates approach ``target``."""

    def validator(coords):
        return _toy_validator(np.asarray(coords) - target)

    return validator


def _grow_validator(coords):
    """Real metrics that *disagree* with the toy evaluator."""
    wns, tns = _toy_validator(coords)
    return -wns, -tns


def _cfg(**overrides):
    base = dict(max_iterations=6, converge_ratio=1e9, acceptance="evaluator", polish_probes=0)
    base.update(overrides)
    return RefinementConfig(**base)


def _flags(events):
    out = []
    for e in events:
        if e["kind"] == "refine_iter":
            out.append("S" if e["skipped"] else "A" if e["accepted"] else "R")
    return "".join(out)


def run_arm(name, design, workdir):
    """Run arm ``name``; returns (result, telemetry, checkpoint arrays, extras)."""
    _, forest, graph = design
    coords0 = forest.get_steiner_coords()
    ckpt = workdir / f"{name}.npz"
    tel = Telemetry(clock=ManualClock().now, run_id="pin")
    kwargs = dict(checkpoint_path=ckpt, telemetry=tel)
    extras = {}
    if name == "accept":
        res = refine(_QuadraticModel(), graph, coords0, _cfg(), **kwargs)
    elif name == "evaluator_revert":
        center = coords0.reshape(-1, 2) - 0.05
        res = refine(_BowlModel(center), graph, coords0, _cfg(max_iterations=8), **kwargs)
    elif name == "validated_revert":
        cfg = _cfg(max_iterations=8, acceptance="hybrid", validate_every=1)
        res = refine(
            _QuadraticModel(), graph, coords0, cfg,
            clamp_fn=forest.clamp_coords, validator=_grow_validator, **kwargs,
        )
    elif name == "polish_accept":
        probes = _Probes(_target_validator(0.6 * coords0))
        cfg = _cfg(max_iterations=4, acceptance="hybrid", validate_every=2, polish_probes=6)
        res = refine(
            _BowlModel(0.7 * coords0), graph, coords0, cfg,
            clamp_fn=forest.clamp_coords, validator=probes, **kwargs,
        )
        extras["probes"] = probes.coords
    elif name == "polish_outage":
        probes = _Probes(_target_validator(0.6 * coords0), down_from=6)
        cfg = _cfg(
            max_iterations=2, acceptance="hybrid", validate_every=1,
            polish_probes=8, validator_retries=0,
        )
        res = refine(
            _BowlModel(0.7 * coords0), graph, coords0, cfg,
            clamp_fn=forest.clamp_coords, validator=probes, **kwargs,
        )
        extras["probes"] = probes.coords
    elif name == "degrade":
        validator = faults.wrap(_toy_validator, faults.FaultSpec(at_call=2, repeat=True))
        cfg = _cfg(
            acceptance="hybrid", validate_every=1, polish_probes=4, validator_retries=1
        )
        res = refine(_QuadraticModel(), graph, coords0, cfg, validator=validator, **kwargs)
    elif name == "sanitize_gradient":
        # Gradient calls 1-2 are the adaptive-theta probes; call 4 is iteration 2.
        model = _FaultyModel(_QuadraticModel(), faults.FaultSpec(at_call=4, mode="nan"))
        res = refine(model, graph, coords0, _cfg(nonfinite_policy="sanitize"), **kwargs)
    elif name == "sanitize_metrics":
        # Evaluation 1 is the initial metric; 3 is iteration 2's candidate.
        model = _NaNMetricsModel(at_call=3)
        res = refine(model, graph, coords0, _cfg(nonfinite_policy="sanitize"), **kwargs)
    elif name == "wall_budget":
        clock = ManualClock()
        model = _FaultyModel(
            _QuadraticModel(),
            faults.FaultSpec(at_call=5, mode="stall", stall_seconds=100.0),
            sleep=clock.advance,
        )
        budget = Budget(wall_seconds=50.0, clock=clock.now)
        res = refine(model, graph, coords0, _cfg(max_iterations=10), budget=budget, **kwargs)
    elif name == "adam_resume":
        cfg = _cfg(
            max_iterations=6, acceptance="hybrid", validate_every=2,
            polish_probes=3, optimizer="adam",
        )
        full = refine(_QuadraticModel(), graph, coords0, cfg, validator=_toy_validator)
        dying = _FaultyModel(_QuadraticModel(), faults.FaultSpec(at_call=6, exc=RuntimeError))
        with pytest.raises(RuntimeError):
            refine(dying, graph, coords0, cfg, validator=_toy_validator, checkpoint_path=ckpt)
        res = refine(
            _QuadraticModel(), graph, coords0, cfg,
            validator=_toy_validator, resume=True, **kwargs,
        )
        extras["full"] = full
    elif name == "mcmm_prune":
        res = refine(
            _QuadraticModel(), graph, coords0, _cfg(max_iterations=12),
            scenarios=ScenarioSet.signoff(), **kwargs,
        )
    else:
        raise KeyError(name)
    tel.close()
    return res, tel, load_npz(ckpt), extras


def observe(res, tel, arrays):
    """The pinned observables of one arm."""
    coords = np.asarray(res.coords, dtype=np.float64)
    weights = np.linspace(1.0, 2.0, coords.size).reshape(coords.shape)
    hist = np.asarray(res.history, dtype=np.float64).reshape(-1, 2)
    index = np.arange(1, hist.shape[0] + 1, dtype=np.float64)
    return {
        "flags": _flags(tel.events),
        "counts": (
            res.iterations, res.accepted, res.validations, res.validated_reverts,
            res.skipped_steps, res.timed_out, res.degraded, res.resumed,
        ),
        "keys": frozenset(k for k in arrays if k != "meta"),
        "floats": (
            float(coords.sum()), float((coords * weights).sum()),
            float(hist[:, 0].sum()), float(hist[:, 1].sum()),
            float((index * hist[:, 0]).sum()), float((index * hist[:, 1]).sum()),
            res.init_wns, res.init_tns, res.best_wns, res.best_tns, res.theta,
        ),
    }


#: name -> (flags, (iterations, accepted, validations, validated_reverts,
#: skipped_steps, timed_out, degraded, resumed), extra checkpoint keys,
#: (sum coords, weighted sum coords, sum history wns, sum history tns,
#: index-weighted wns, index-weighted tns, init_wns, init_tns, best_wns,
#: best_tns, theta)).
PINS = {
    "accept": (
        "AARRRA", (6, 3, 0, 0, 0, False, False, False), frozenset(),
        (
            28.863512270687337, 35.92210229544793, 2.193982878824611,
            0.0, 7.7296693826095435, 0.0,
            0.10801290749999998, 0.0, 0.38009663259803905,
            0.0, 23.771104472595454,
        ),
    ),
    "evaluator_revert": (
        "RRRRAARA", (8, 3, 0, 0, 0, False, False, False), frozenset(),
        (
            376.947548334813, 572.2722970784906, 3.258842436991811,
            0.0, 14.842253109933214, 0.0,
            0.41350000000000003, 0.0, 0.4149385004124103,
            0.0, 0.23791964911209967,
        ),
    ),
    "validated_revert": (
        "AAAAAAAA", (8, 8, 9, 8, 0, False, False, False), frozenset(),
        (
            380.55500000000006, 577.6834745762712, 1.7783665849999999,
            0.0, 7.167295445, 0.0,
            0.10801290749999998, 0.0, 0.10801290749999998,
            0.0, 27.282589934126122,
        ),
    ),
    "polish_accept": (
        "RARA", (4, 2, 8, 0, 0, False, False, False), frozenset(),
        (
            314.3500000000001, 474.0054237288136, -9.736547794541542,
            -96.00547794541544, -19.360733926305357, -190.20733926305354,
            -2.3478838325000013, -23.138838325000016, -0.6349083182006776,
            -6.009083182006776, 1.8616899340291535,
        ),
    ),
    "polish_outage": (
        "RA", (2, 1, 6, 0, 0, False, True, False), frozenset(),
        (
            178.62, 269.96474576271186, -5.887115614237578,
            -58.19115614237578, -7.177529067192783, -70.75529067192784,
            -2.3478838325000013, -23.138838325000016, -1.2904134529552056,
            -12.564134529552057, 1.8616899340291535,
        ),
    ),
    "degrade": (
        "AARRRA", (6, 3, 2, 0, 0, False, True, False), frozenset(),
        (
            28.879999999999995, 35.94610169491524, 2.193982878824611,
            0.0, 7.7296693826095435, 0.0,
            0.10801290749999998, 0.0, 0.38009663259803905,
            0.0, 23.771104472595454,
        ),
    ),
    "sanitize_gradient": (
        "ASARRA", (6, 3, 0, 0, 1, False, False, False), frozenset(),
        (
            25.791505519089185, 32.68995105180265, 2.2030961247314385,
            0.0, 7.771331563294804, 0.0,
            0.10801290749999998, 0.0, 0.3804082953636724,
            0.0, 23.771104472595454,
        ),
    ),
    "sanitize_metrics": (
        "ASARRA", (6, 3, 0, 0, 1, False, False, False), frozenset(),
        (
            25.791505519089185, 32.68995105180265, 2.2030961247314385,
            0.0, 7.771331563294804, 0.0,
            0.10801290749999998, 0.0, 0.3804082953636724,
            0.0, 23.771104472595454,
        ),
    ),
    "wall_budget": (
        "AAR", (3, 2, 0, 0, 0, True, False, False), frozenset(),
        (
            -30.075624778576653, -39.72241824919364, 1.084597074994572,
            0.0, 2.163030227884702, 0.0,
            0.10801290749999998, 0.0, 0.3718031820990142,
            0.0, 23.771104472595454,
        ),
    ),
    "adam_resume": (
        "RAR", (6, 2, 5, 0, 0, False, False, True), ADAM_KEYS,
        (
            -66.27, -97.8450847457627, 1.972366184066965,
            0.0, 6.64186477753784, 0.0,
            0.10801290749999998, 0.0, 0.37833778735264756,
            0.0, 23.771104472595454,
        ),
    ),
    "mcmm_prune": (
        "RRRRRRAARARA", (12, 4, 0, 0, 0, False, False, False), MCMM_KEYS,
        (
            337.42649241994053, 512.4688616693652, 0.187058689541119,
            -1.3595916616777304, 3.3304107642265066, -3.9579690162258423,
            0.02373208976869512, 0.0, 0.09312861564540403,
            0.0, 11.480775745098924,
        ),
    ),
}


@pytest.fixture(scope="module")
def spm_design():
    netlist, forest = prepare_design("spm")
    return netlist, forest, build_timing_graph(netlist, forest)


def _events(tel, kind):
    return [e for e in tel.events if e["kind"] == kind]


def _assert_reached(name, res, tel, extras):
    flags = _flags(tel.events)
    if name == "accept":
        assert res.accepted > 0 and "A" in flags
    elif name == "evaluator_revert":
        assert "R" in flags and "A" in flags and res.validations == 0
    elif name == "validated_revert":
        assert res.validated_reverts >= 2
        theta0 = _events(tel, "refine_start")[0]["theta0"]
        thetas = [e["theta"] for e in _events(tel, "refine_iter")]
        assert theta0 * 0.5 in thetas and theta0 * 0.3 in thetas  # schedule rotated
    elif name == "polish_accept":
        probes, tail = extras["probes"], 6
        polished = [p.tobytes() for p in probes[-tail:]]
        assert res.coords.tobytes() in polished
        assert res.coords.tobytes() not in [p.tobytes() for p in probes[:-tail]]
    elif name == "polish_outage":
        assert res.degraded and res.validations > res.iterations + 1
        assert res.coords.tobytes() in [p.tobytes() for p in extras["probes"]]
    elif name == "degrade":
        assert res.degraded and res.iterations == 6
        assert res.coords.tobytes() == SteinerForest.round_array(res.coords).tobytes()
        assert len(_events(tel, "validator_degraded")) == 1
    elif name in ("sanitize_gradient", "sanitize_metrics"):
        assert res.skipped_steps == 1 and flags[1] == "S"
    elif name == "wall_budget":
        assert res.timed_out and len(_events(tel, "budget_expired")) == 1
    elif name == "adam_resume":
        full = extras["full"]
        assert res.resumed and len(_events(tel, "checkpoint_resume")) == 1
        assert res.coords.tobytes() == full.coords.tobytes()
        assert res.history == full.history
        assert (res.accepted, res.validations) == (full.accepted, full.validations)
    elif name == "mcmm_prune":
        assert any(e["action"] == "prune" for e in _events(tel, "mcmm_prune"))


@pytest.mark.parametrize("name", sorted(PINS))
def test_pinned_trajectory(name, spm_design, tmp_path):
    res, tel, arrays, extras = run_arm(name, spm_design, tmp_path)
    _assert_reached(name, res, tel, extras)
    got = observe(res, tel, arrays)
    flags, counts, extra_keys, floats = PINS[name]
    assert got["flags"] == flags
    assert got["counts"] == counts
    assert got["keys"] == BASE_KEYS | extra_keys
    assert got["floats"] == pytest.approx(floats, rel=REL, abs=0.0)
