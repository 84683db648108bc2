"""Bitwise-parity tests for the compiled tape executor.

The tape (``repro.autodiff.tape``) promises *bitwise* equality with the
closure-graph reference — not tolerance-based closeness — for forward
values, penalty gradients, and whole ``refine()`` trajectories
(docs/PERFORMANCE.md).  These tests hold it to that contract on the
bench designs, on synthetic graphs exercising the scatter planner, and
under injected mid-replay faults.
"""

import numpy as np
import pytest

from repro.autodiff import functional as F
from repro.autodiff.tape import _MAX_SCATTER_ROUNDS, _ScatterPlan, compile_tape
from repro.autodiff.tensor import Tensor, concatenate
from repro.core.penalty import PenaltyConfig, smoothed_penalty
from repro.core.refine import RefinementConfig, refine
from repro.runtime.errors import FaultInjected
from repro.runtime.faults import FaultSpec, wrap
from repro.timing_model.compiled import get_compiled_objective
from repro.timing_model.graph import build_timing_graph
from repro.timing_model.model import EvaluatorConfig, TimingEvaluator

_DESIGN_CACHE = {}


def _design(name):
    """(graph, model, coords, forest) for ``name``, cached per session."""
    if name not in _DESIGN_CACHE:
        from repro.flow.pipeline import prepare_design

        netlist, forest = prepare_design(name)
        graph = build_timing_graph(netlist, forest)
        model = TimingEvaluator(EvaluatorConfig(seed=0))
        coords = forest.get_steiner_coords()
        _DESIGN_CACHE[name] = (graph, model, coords, forest)
    return _DESIGN_CACHE[name]


def _closure_gradient(model, graph, coords, pcfg):
    t = Tensor(coords, requires_grad=True)
    out = model(graph, t)
    penalty, _, _ = smoothed_penalty(out["arrival"], graph.endpoints, graph.required, pcfg)
    penalty.backward()
    return t.grad, out["arrival"].numpy(), float(penalty.item())


# ----------------------------------------------------------------------
# Scatter planner: every kind must equal np.add.at bit for bit
# ----------------------------------------------------------------------
class TestScatterPlan:
    def _check(self, idx, g, out_shape, expect_kind):
        idx = np.asarray(idx)
        plan = _ScatterPlan(idx, out_shape, g.ndim)
        assert plan.kind == expect_kind
        full = np.zeros(out_shape)
        np.add.at(full, idx, g)
        # write(): full overwrite including the zero rows.
        dst = np.full(out_shape, 123.456)
        plan.write(dst, g)
        assert np.array_equal(dst, full, equal_nan=True)
        # add_into(): same result as the closure's single `dst + full`.
        rng = np.random.default_rng(0)
        base = rng.normal(size=out_shape)
        dst = base.copy()
        scr = np.empty(out_shape) if plan.needs_scratch else None
        plan.add_into(dst, g, scr)
        assert np.array_equal(dst, base + full, equal_nan=True)

    def test_bincount_1d(self):
        rng = np.random.default_rng(1)
        idx = rng.integers(0, 7, size=40)
        self._check(idx, rng.normal(size=40), (7,), "bincount")

    def test_dupfree_2d(self):
        rng = np.random.default_rng(2)
        idx = rng.permutation(10)[:6]
        self._check(idx, rng.normal(size=(6, 4)), (10, 4), "dupfree")

    def test_rounds_2d(self):
        rng = np.random.default_rng(3)
        idx = rng.integers(0, 5, size=20)  # duplicates, small multiplicity
        assert np.max(np.bincount(idx)) <= _MAX_SCATTER_ROUNDS
        self._check(idx, rng.normal(size=(20, 3)), (5, 3), "rounds")

    def test_generic_high_multiplicity(self):
        rng = np.random.default_rng(4)
        idx = np.zeros(_MAX_SCATTER_ROUNDS + 5, dtype=np.int64)  # one hot row
        self._check(idx, rng.normal(size=(idx.size, 2)), (3, 2), "generic")

    def test_empty_index(self):
        self._check(np.zeros(0, dtype=np.int64), np.zeros((0, 2)), (4, 2), "dupfree")


# ----------------------------------------------------------------------
# Synthetic graph: compile_tape vs Tensor.backward
# ----------------------------------------------------------------------
def test_compile_tape_synthetic_bitwise():
    rng = np.random.default_rng(5)
    seg = rng.integers(0, 4, size=12)
    gidx = rng.integers(0, 12, size=9)

    def build(x, w):
        h = x.matmul(w).tanh()
        g = F.gather(h, gidx)
        s = F.segment_sum(h * h, seg, 4)
        m = F.segment_max(h, seg, 4, fill=-1.0)
        z = concatenate([s, m, g.relu()], axis=0)
        return (z.sigmoid() * z).sum() + (x.abs() + 1.0).log().sum()

    x_data = rng.normal(size=(12, 3))
    w_data = rng.normal(size=(3, 3))

    # Closure reference.
    x = Tensor(x_data.copy(), requires_grad=True)
    w = Tensor(w_data.copy(), requires_grad=True)
    root = build(x, w)
    root.backward()

    # Tape over the same expression.
    xt = Tensor(x_data.copy(), requires_grad=True)
    wt = Tensor(w_data.copy(), requires_grad=True)
    tape = compile_tape(build(xt, wt), {"x": xt, "w": wt})
    tape.run_forward()
    tape.run_backward()
    assert tape.root_value() == root.item()
    assert np.array_equal(tape.grad("x"), x.grad, equal_nan=True)
    assert np.array_equal(tape.grad("w"), w.grad, equal_nan=True)

    # Replay with override values — reads live data, same contract.
    x2 = rng.normal(size=(12, 3))
    xr = Tensor(x2.copy(), requires_grad=True)
    wr = Tensor(w_data.copy(), requires_grad=True)
    ref2 = build(xr, wr)
    ref2.backward()
    tape.run_forward(overrides={"x": x2})
    tape.run_backward()
    assert tape.root_value() == ref2.item()
    assert np.array_equal(tape.grad("x"), xr.grad, equal_nan=True)


def test_grad_target_pruning_returns_none():
    rng = np.random.default_rng(6)
    x = Tensor(rng.normal(size=(5,)), requires_grad=True)
    w = Tensor(rng.normal(size=(5,)), requires_grad=True)
    tape = compile_tape((x * w).sum(), {"x": x, "w": w}, grad_targets=("x",))
    tape.run_forward()
    tape.run_backward()
    assert tape.grad("w") is None
    ref_x = Tensor(x.data.copy(), requires_grad=True)
    ref_w = Tensor(w.data.copy(), requires_grad=True)
    (ref_x * ref_w).sum().backward()
    assert np.array_equal(tape.grad("x"), ref_x.grad, equal_nan=True)


# ----------------------------------------------------------------------
# Evaluator parity on real designs
# ----------------------------------------------------------------------
class TestEvaluatorParity:
    design_names = ["usb_cdc_core"]

    @pytest.mark.parametrize("name", design_names)
    def test_forward_bitwise(self, name):
        graph, model, coords, _ = _design(name)
        obj = get_compiled_objective(model, graph, PenaltyConfig().gamma)
        assert obj is not None
        ref = model.predict_arrivals(graph, coords)
        assert np.array_equal(obj.evaluate(coords), ref, equal_nan=True)

    @pytest.mark.parametrize("name", design_names)
    def test_gradient_bitwise(self, name):
        graph, model, coords, _ = _design(name)
        pcfg = PenaltyConfig()
        obj = get_compiled_objective(model, graph, pcfg.gamma)
        grad, arrival, penalty = obj.gradient(coords, pcfg)
        ref_grad, ref_arrival, ref_penalty = _closure_gradient(model, graph, coords, pcfg)
        assert np.array_equal(grad, ref_grad, equal_nan=True)
        assert np.array_equal(arrival, ref_arrival, equal_nan=True)
        assert penalty == ref_penalty

    @pytest.mark.parametrize("name", design_names)
    def test_gradient_bitwise_escalated_lambda(self, name):
        """Penalty weights enter as live inputs, not baked constants."""
        graph, model, coords, _ = _design(name)
        pcfg = PenaltyConfig().escalated(1.37)
        obj = get_compiled_objective(model, graph, pcfg.gamma)
        grad, _, penalty = obj.gradient(coords, pcfg)
        ref_grad, _, ref_penalty = _closure_gradient(model, graph, coords, pcfg)
        assert np.array_equal(grad, ref_grad, equal_nan=True)
        assert penalty == ref_penalty

    def test_gradient_bitwise_after_weight_rebind(self):
        """Rebinding parameter arrays (load_state_dict) is picked up live."""
        graph, model, coords, _ = _design("usb_cdc_core")
        pcfg = PenaltyConfig()
        obj = get_compiled_objective(model, graph, pcfg.gamma)
        obj.gradient(coords, pcfg)  # populate any memoized forward state
        rng = np.random.default_rng(8)
        saved = [(p, p.data) for _, p in model.named_parameters()]
        try:
            for p, data in saved:
                p.data = data + rng.normal(0.0, 0.01, size=data.shape)
            grad, _, penalty = obj.gradient(coords, pcfg)
            ref_grad, _, ref_penalty = _closure_gradient(model, graph, coords, pcfg)
            assert np.array_equal(grad, ref_grad, equal_nan=True)
            assert penalty == ref_penalty
        finally:
            for p, data in saved:
                p.data = data


def _refine_pair(name, iterations=4):
    """(closure_result, tape_result) for a short evaluator-mode refine."""
    graph, model, coords, forest = _design(name)
    cfg = RefinementConfig(
        max_iterations=iterations, acceptance="evaluator", polish_probes=0
    )
    saved = model.kernel
    try:
        results = {}
        for kernel in ("closure", "tape"):
            model.kernel = kernel
            graph._static.clear()
            results[kernel] = refine(
                model, graph, coords, config=cfg, clamp_fn=forest.clamp_coords
            )
    finally:
        model.kernel = saved
    return results["closure"], results["tape"]


def _assert_trajectories_equal(ref, tape):
    assert tape.best_wns == ref.best_wns
    assert tape.best_tns == ref.best_tns
    assert tape.accepted == ref.accepted
    assert len(tape.history) == len(ref.history)
    for a, b in zip(ref.history, tape.history):
        assert tuple(a) == tuple(b)


class TestRefineTrajectoryParity:
    def test_usb_cdc_core(self):
        _assert_trajectories_equal(*_refine_pair("usb_cdc_core"))

    @pytest.mark.slow
    def test_picorv32a(self):
        _assert_trajectories_equal(*_refine_pair("picorv32a"))

    @pytest.mark.slow
    def test_des3(self):
        _assert_trajectories_equal(*_refine_pair("des3"))


def test_tape_parity_kernel_mode():
    """kernel='tape-parity' runs both engines and raises on divergence."""
    graph, model, coords, forest = _design("usb_cdc_core")
    cfg = RefinementConfig(max_iterations=2, acceptance="evaluator", polish_probes=0)
    saved = model.kernel
    try:
        model.kernel = "tape-parity"
        graph._static.clear()
        refine(model, graph, coords, config=cfg, clamp_fn=forest.clamp_coords)
    finally:
        model.kernel = saved


def test_tape_cache_hit_miss_counters(tmp_path):
    from repro.obs import Telemetry, telemetry_session

    graph, model, coords, _ = _design("usb_cdc_core")
    graph._static.clear()
    with Telemetry(path=str(tmp_path / "t.jsonl")) as tel:
        with telemetry_session(tel):
            a = get_compiled_objective(model, graph, PenaltyConfig().gamma)
            b = get_compiled_objective(model, graph, PenaltyConfig().gamma)
        snap = tel.metrics_snapshot()
    assert a is b
    assert snap["counters"]["tape.cache_misses"] == 1
    assert snap["counters"]["tape.cache_hits"] == 1


def test_compiled_objective_freed_with_its_graph():
    """The objective cached on ``graph._static`` must not point back at
    the graph: that cycle kept every flow's tape (≈38 MB on picorv32a)
    alive until the cyclic collector happened to run."""
    import gc
    import weakref

    from repro.flow.pipeline import prepare_design

    netlist, forest = prepare_design("spm")
    graph = build_timing_graph(netlist, forest)
    model = TimingEvaluator(EvaluatorConfig(seed=0))
    obj = weakref.ref(get_compiled_objective(model, graph, PenaltyConfig().gamma))
    assert obj() is not None
    gc.disable()
    try:
        del graph
        assert obj() is None
    finally:
        gc.enable()


# ----------------------------------------------------------------------
# Fault injection: interrupted replays must not leak stale buffers
# ----------------------------------------------------------------------
class TestFaultedReplay:
    def _faulted_then_clean(self, name, phase):
        graph, model, coords, _ = _design(name)
        pcfg = PenaltyConfig()
        graph._static.clear()
        obj = get_compiled_objective(model, graph, pcfg.gamma)
        obj.gradient(coords, pcfg)  # warm buffers with real values
        prog = obj.tape._fwd if phase == "fwd" else obj.tape._bwd
        mid = len(prog) // 2
        original = prog[mid]
        prog[mid] = wrap(original, FaultSpec(at_call=1))
        # Fresh coordinates so the forward-state memoization cannot skip
        # the (faulted) arrival prefix.
        coords = coords + 0.25
        try:
            with pytest.raises(FaultInjected):
                obj.gradient(coords, pcfg)
        finally:
            prog[mid] = original
        grad, _, penalty = obj.gradient(coords, pcfg)
        ref_grad, _, ref_penalty = _closure_gradient(model, graph, coords, pcfg)
        assert np.array_equal(grad, ref_grad, equal_nan=True)
        assert penalty == ref_penalty

    def test_fault_mid_forward(self):
        self._faulted_then_clean("usb_cdc_core", "fwd")

    def test_fault_mid_backward(self):
        self._faulted_then_clean("usb_cdc_core", "bwd")

    @pytest.mark.slow
    def test_refine_after_mid_iteration_fault(self):
        """End-to-end: a fault mid-replay during iteration 2 of refine()
        must leave no stale adjoint state — a rerun on the same cached
        tape reproduces the closure trajectory bit for bit."""
        graph, model, coords, forest = _design("picorv32a")
        cfg = RefinementConfig(
            max_iterations=4, acceptance="evaluator", polish_probes=0
        )
        saved = model.kernel
        try:
            model.kernel = "closure"
            graph._static.clear()
            ref = refine(model, graph, coords, config=cfg, clamp_fn=forest.clamp_coords)

            model.kernel = "tape"
            graph._static.clear()
            obj = get_compiled_objective(model, graph, PenaltyConfig().gamma)
            mid = len(obj.tape._bwd) // 2
            original = obj.tape._bwd[mid]
            obj.tape._bwd[mid] = wrap(original, FaultSpec(at_call=2))
            try:
                with pytest.raises(FaultInjected):
                    refine(model, graph, coords, config=cfg, clamp_fn=forest.clamp_coords)
            finally:
                obj.tape._bwd[mid] = original
            # Same tape object (still cached on the graph) — replay must
            # start clean despite the interrupted backward above.
            tape_result = refine(
                model, graph, coords, config=cfg, clamp_fn=forest.clamp_coords
            )
        finally:
            model.kernel = saved
        _assert_trajectories_equal(ref, tape_result)
