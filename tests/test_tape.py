"""Bitwise-parity tests for the compiled tape executor.

The tape (``repro.autodiff.tape``) promises *bitwise* equality with the
closure-graph reference — not tolerance-based closeness — for forward
values, penalty gradients, and whole ``refine()`` trajectories
(docs/PERFORMANCE.md).  These tests hold it to that contract on the
bench designs, on synthetic graphs exercising the scatter planner, and
under injected mid-replay faults.
"""

import json
import mmap
import os

import numpy as np
import pytest

from repro.autodiff import functional as F
from repro.autodiff.tape import _MAX_SCATTER_ROUNDS, _ScatterPlan, compile_tape
from repro.autodiff.tensor import Tensor, concatenate
from repro.core.penalty import PenaltyConfig, smoothed_penalty
from repro.core.refine import RefinementConfig, refine
from repro.runtime.errors import FaultInjected
from repro.runtime.faults import FaultSpec, wrap
from repro.timing_model.compiled import CompiledObjective, get_compiled_objective
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
    ends = [
        rec for rec in map(json.loads, (tmp_path / "t.jsonl").read_text().splitlines())
        if rec.get("name") == "tape_compile" and rec.get("kind") == "span_end"
    ]
    assert len(ends) == 1
    assert ends[0]["attrs"]["slab_bytes"] == a.tape.stats["slab_bytes"] > 0
    assert ends[0]["attrs"]["slab_chunks"] == len(a.tape.slab.chunks) >= 1


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
# Tape memory: every owned buffer lives in the tape's private slab
# ----------------------------------------------------------------------
#: Instruction arguments that name memory the replay writes.
_BUFFER_ARGS = frozenset(
    {"buf", "dst", "g", "s", "s2", "scr", "mask", "scale", "winner",
     "ix", "iy", "ix2", "iy2", "ftmp", "root_adj"}
)


def _root(arr):
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr.base


def _written_buffers(tape):
    """Every array the tape's program writes into: the buffer arguments
    bound into each instruction (following nested helpers such as the
    bilinear index function and adjoint stores) plus the adjoints."""
    out = [b for b in tape._grad_bufs.values() if b is not None]
    stack = list(tape._fwd) + list(tape._bwd)
    seen = set()
    while stack:
        fn = stack.pop()
        if id(fn) in seen:
            continue
        seen.add(id(fn))
        code, defaults = fn.__code__, fn.__defaults__ or ()
        names = code.co_varnames[code.co_argcount - len(defaults):code.co_argcount]
        for name, value in zip(names, defaults):
            if hasattr(value, "__code__"):
                stack.append(value)
            elif name == "pieces":  # concat: views into the output buffer
                out.extend(view for _, view in value)
            elif name in _BUFFER_ARGS and isinstance(value, np.ndarray):
                out.append(value)
    return out


def _spm_objective():
    """(objective, graph, model, coords) on a fresh spm graph whose
    congestion field makes the tape carry bilinear index packs."""
    from repro.flow.pipeline import prepare_design

    netlist, forest = prepare_design("spm")
    field = np.random.default_rng(9).uniform(0.0, 1.2, size=(10, 10))
    graph = build_timing_graph(netlist, forest, congestion=field)
    model = TimingEvaluator(EvaluatorConfig(seed=0))
    obj = CompiledObjective(model, graph, PenaltyConfig().gamma)
    return obj, graph, model, forest.get_steiner_coords()


class TestSlab:
    def test_buffers_are_views_of_own_chunks(self):
        obj, graph, model, _ = _spm_objective()
        assert "bilinear" in obj.tape.fwd_ops
        other = CompiledObjective(model, graph, PenaltyConfig().gamma)
        for tape in (obj.tape, other.tape):
            chunks = {id(c) for c in tape.slab.chunks}
            buffers = _written_buffers(tape)
            assert len(buffers) > tape.stats["fwd_buffers"]
            for buf in buffers:
                assert id(_root(buf)) in chunks
                if isinstance(buf.base, mmap.mmap):  # an allocation, not a view
                    assert buf.ctypes.data % 64 == 0
            assert tape.stats["slab_chunks"] == len(tape.slab.chunks)
            assert 0 < tape.stats["slab_bytes"] <= sum(len(c) for c in tape.slab.chunks)
        mine = {id(c) for c in obj.tape.slab.chunks}
        assert mine.isdisjoint(id(c) for c in other.tape.slab.chunks)

    def test_chunks_unmapped_without_collector(self):
        """Dropping the objective and its graph frees every chunk by
        reference counting alone — no cycle keeps a tape mapped."""
        import gc
        import weakref

        graph, model = _spm_objective()[1:3]
        obj = get_compiled_objective(model, graph, PenaltyConfig().gamma)  # cached on graph
        refs = [weakref.ref(c) for c in obj.tape.slab.chunks]
        assert refs
        gc.disable()
        try:
            del obj, graph
            assert all(r() is None for r in refs)
        finally:
            gc.enable()

    def test_interleaved_replays_match_isolated(self):
        """Two tapes compiled from one model share no memory: replaying
        them alternately gives bitwise what each gives alone."""
        obj_a, graph, model, coords = _spm_objective()
        obj_b = CompiledObjective(model, graph, PenaltyConfig().gamma)
        pcfg = PenaltyConfig()
        seq_a = [coords + 0.3 * i for i in range(3)]
        seq_b = [coords - 0.2 * i for i in range(3)]

        def step(obj, c):
            grad, arrival, penalty = obj.gradient(c, pcfg)
            return grad, arrival.copy(), penalty, obj.evaluate(c + 0.1).copy()

        interleaved_a, interleaved_b = [], []
        for ca, cb in zip(seq_a, seq_b):
            interleaved_a.append(step(obj_a, ca))
            interleaved_b.append(step(obj_b, cb))
        for seq, got in ((seq_a, interleaved_a), (seq_b, interleaved_b)):
            alone = CompiledObjective(model, graph, PenaltyConfig().gamma)
            for c, res in zip(seq, got):
                ref = step(alone, c)
                for x, y in zip(res, ref):
                    assert np.array_equal(x, y, equal_nan=True)

    def test_pooling_decisions_unchanged_on_picorv32a(self):
        """The slab changes only the memory behind each buffer: the
        program and its buffer, reuse and alias counts are those the
        heap-backed pool compiled."""
        graph, model, _, _ = _design("picorv32a")
        stats = CompiledObjective(model, graph, PenaltyConfig().gamma).tape.stats
        heap_pool = {
            "fwd_instructions": 1937, "bwd_instructions": 1170, "slots": 2672,
            "cse_hits": 39, "alias_contributions": 747,
            "fwd_buffers": 568, "fwd_buffer_reuses": 1369,
            "adj_buffers": 580, "adj_buffer_reuses": 255,
        }
        assert {k: stats[k] for k in heap_pool} == heap_pool

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_replays_into_its_own_pages(self):
        """A forked child (process pools fork on Linux) that replays the
        inherited tape must not write into the parent's buffers."""
        import time

        obj, _graph, _model, coords = _spm_objective()
        before = obj.evaluate(coords).copy()
        pid = os.fork()
        if pid == 0:  # child: replay elsewhere, report whether it moved
            code = 1
            try:
                moved = obj.evaluate(coords + 0.5)
                code = 0 if not np.array_equal(moved, before) else 2
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60.0
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, 9)
                os.waitpid(pid, 0)
                pytest.fail("forked child did not finish")
            time.sleep(0.01)
        assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
        assert np.array_equal(obj.tape.value("arrival"), before)


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
