"""The tape is compiled from a recorded trace, not a closure graph.

Inside a :class:`~repro.autodiff.tensor.Trace` every op result keeps a
small :class:`~repro.autodiff.tensor.Node` instead of its parents and
backward closure.  These tests pin the program the record compiles to
the one the closure-graph compiler produced (statistics and op
sequences, recorded from that compiler on the same inputs), check its
replay against the closure engine bit for bit, and bound the memory a
trace holds.
"""

import gc
import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.autodiff.tape import TapeUnsupported, compile_tape
from repro.autodiff.tensor import Tensor, Trace
from repro.core.penalty import PenaltyConfig, refinement_penalty
from repro.core.refine import RefinementConfig, refine
from repro.flow.pipeline import make_training_samples, prepare_design
from repro.mcmm import ScenarioPenalty, ScenarioSet
from repro.timing_model.compiled import CompiledLoss, CompiledObjective, _TensorPenaltyConfig
from repro.timing_model.graph import build_timing_graph
from repro.timing_model.model import EvaluatorConfig, TimingEvaluator
from repro.timing_model.train import TrainerConfig, _sample_loss, train_evaluator


def _stats(fwd_instructions, bwd_instructions, slots, cse_hits, alias_contributions,
           fwd_buffers, fwd_buffer_reuses, adj_buffers, adj_buffer_reuses,
           slab_bytes, slab_chunks):
    return dict(locals())


#: (tape.stats, sha256 prefix of "|".join(fwd_ops), of "|".join(bwd_ops))
#: the closure-graph compiler produced for each case below.
_PICO = _stats(1979, 1206, 2721, 39, 766, 587, 1392, 589, 268, 37734108, 7)
_SPM = _stats(691, 450, 957, 11, 262, 209, 482, 218, 107, 1113432, 2)
PINNED = {
    ("spm", "neutral"): (_SPM, "0ff5f3ddef40a212", "6fef9ddfb71dd74b"),
    ("spm", "gamma2"): (_SPM, "0ff5f3ddef40a212", "6fef9ddfb71dd74b"),
    ("spm", "mcmm"): (
        _stats(744, 478, 1034, 11, 283, 216, 528, 226, 123, 1113928, 2),
        "1636883d6d88f9dd", "aeb27c3dc2b80251",
    ),
    ("picorv32a", "neutral"): (_PICO, "a58966b8a6b30f24", "257e1d35551111d3"),
    ("picorv32a", "gamma2"): (_PICO, "a58966b8a6b30f24", "257e1d35551111d3"),
    ("picorv32a", "mcmm"): (
        _stats(2032, 1234, 2798, 39, 787, 596, 1436, 597, 284, 37741388, 7),
        "68b932407dea8269", "7479b6ca3f6249d4",
    ),
}
PINNED_LOSS = (
    _stats(564, 510, 798, 0, 278, 185, 379, 195, 140, 722934, 1),
    "f196691e794968d6", "76087a939530e761",
)

_SETUPS = {}


def _setup(name):
    """(graph, model, coords) with a congestion field, so the tape
    carries bilinear recompute nodes too."""
    if name not in _SETUPS:
        netlist, forest = prepare_design(name)
        field = np.random.default_rng(9).uniform(0.0, 1.2, size=(10, 10))
        graph = build_timing_graph(netlist, forest, congestion=field)
        model = TimingEvaluator(EvaluatorConfig(hidden=32, seed=0))
        _SETUPS[name] = (graph, model, forest.get_steiner_coords())
    return _SETUPS[name]


def _case(graph, case):
    """(gamma, merge, active) of one objective variant."""
    gamma = PenaltyConfig().gamma
    if case == "gamma2":
        return gamma / 2, None, None
    if case == "mcmm":
        merge = ScenarioPenalty(graph, ScenarioSet.signoff())
        return gamma, merge, np.array([False, True, True])
    return gamma, None, None


def _digest(ops):
    return hashlib.sha256("|".join(ops).encode()).hexdigest()[:16]


def _same(a, b):
    return np.array_equal(np.asarray(a), np.asarray(b), equal_nan=True)


@pytest.mark.parametrize("name,case", sorted(PINNED))
def test_recorded_objective_matches_closure_compiler(name, case):
    """Same program as the closure-graph compiler (statistics and op
    sequences), and a replay equal to the closure engine bit for bit."""
    graph, model, coords = _setup(name)
    gamma, merge, active = _case(graph, case)
    obj = CompiledObjective(model, graph, gamma, merge=merge, active=active)
    stats, fwd, bwd = PINNED[(name, case)]
    assert obj.tape.stats == stats
    assert (_digest(obj.tape.fwd_ops), _digest(obj.tape.bwd_ops)) == (fwd, bwd)

    pcfg = PenaltyConfig(gamma=gamma).escalated(1.3)
    at = coords + 0.37
    grad, arrival, penalty = obj.gradient(at, pcfg)
    t = Tensor(at, requires_grad=True)
    ref_arrival = model(graph, t)["arrival"]
    ref = refinement_penalty(ref_arrival, graph, pcfg, merge, active)
    ref.backward()
    assert _same(grad, t.grad)
    assert _same(arrival, ref_arrival.data)
    assert penalty == ref.item()
    assert _same(obj.evaluate(coords - 0.21), model.predict_arrivals(graph, coords - 0.21))


def test_recorded_loss_matches_closure_compiler():
    sample = make_training_samples(names=["spm"], augment=0)[0]
    model = TimingEvaluator(EvaluatorConfig(hidden=16, seed=3))
    compiled = CompiledLoss(model, sample, _sample_loss)
    stats, fwd, bwd = PINNED_LOSS
    assert compiled.tape.stats == stats
    assert (_digest(compiled.tape.fwd_ops), _digest(compiled.tape.bwd_ops)) == (fwd, bwd)

    loss = compiled.loss_backward()
    tape_grads = {name: p.grad.copy() for name, p in model.named_parameters()}
    model.zero_grad()
    ref = _sample_loss(model, sample)
    ref.backward()
    assert loss == ref.item()
    for name, p in model.named_parameters():
        assert _same(tape_grads[name], p.grad), name


def test_recorded_results_hold_no_graph():
    """A traced result keeps its value but no parents and no closure;
    the record lives in its node, and only leaves keep their tensors."""
    x = Tensor(np.arange(4.0), requires_grad=True)
    with Trace() as trace:
        y = (x * 2.0).exp()
        z = y.sum()
    for t in (y, z):
        assert t._parents == () and t._backward is None
    node = trace.node(z)
    assert node.op == "sum" and node.requires_grad and node.tensor is None
    (exp_node,) = node.parents
    assert exp_node.shape == (4,) and exp_node.dtype == np.float64
    mul = exp_node.parents[0]
    assert mul.parents[0] is trace.leaf(x) and mul.parents[0].tensor is x
    with pytest.raises(RuntimeError):
        z.backward()


def test_compile_needs_a_recorded_root():
    x = Tensor(np.arange(3.0), requires_grad=True)
    root = (x * x).sum()  # closure engine, no trace
    with pytest.raises(TapeUnsupported):
        compile_tape(Trace(), root, {"x": x})


def test_trace_reading_a_closure_graph_is_unsupported():
    """A tensor the closure engine built before the trace began carries
    a graph the record cannot see: compiling it must refuse, not bake
    its value as a constant."""
    x = Tensor(np.arange(3.0), requires_grad=True)
    outside = x * 3.0
    with Trace() as trace:
        root = (outside * x).sum()
    with pytest.raises(TapeUnsupported):
        compile_tape(trace, root, {"x": x})


class _MaxEvaluator(TimingEvaluator):
    """An evaluator whose forward uses ``Tensor.max``, an op the tape
    compiler has no rule for."""

    def forward(self, graph, steiner_coords):
        out = super().forward(graph, steiner_coords)
        arrival = out["arrival"]
        return {**out, "arrival": arrival + arrival.max() * 0.0}


def test_refine_raises_on_a_forward_the_tape_cannot_compile():
    """Refinement has one gradient path: an evaluator the tape cannot
    compile is an error, not a silent closure-engine run."""
    netlist, forest = prepare_design("spm")
    graph = build_timing_graph(netlist, forest)
    cfg = RefinementConfig(max_iterations=2, acceptance="evaluator", polish_probes=0)
    model = _MaxEvaluator(EvaluatorConfig(hidden=8, seed=0))
    with pytest.raises(TapeUnsupported, match="'max'"):
        refine(model, graph, forest.get_steiner_coords(), cfg)


def test_train_raises_on_a_forward_the_tape_cannot_compile():
    sample = make_training_samples(names=["spm"], train_names=["spm"], augment=0)[0]
    model = _MaxEvaluator(EvaluatorConfig(hidden=8, seed=0))
    with pytest.raises(TapeUnsupported, match="'max'"):
        train_evaluator(model, [sample], TrainerConfig(epochs=1))


def _trace_peak(graph, model, record: bool) -> int:
    coords = Tensor(np.zeros((graph.num_steiner, 2)), requires_grad=True)
    lam = [Tensor(np.asarray(-1.0), requires_grad=True) for _ in range(2)]
    pcfg = _TensorPenaltyConfig(*lam, PenaltyConfig().gamma)
    tracemalloc.start()
    try:
        if record:
            with Trace():
                root = refinement_penalty(model(graph, coords)["arrival"], graph, pcfg)
        else:
            root = refinement_penalty(model(graph, coords)["arrival"], graph, pcfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del root
    return peak


def test_recorded_trace_memory_is_a_fraction_of_the_closure_graph():
    """The closure graph keeps every intermediate value alive until the
    compile; a recorded trace frees each one when the model drops it.
    ``gc`` is off, so only reference counting frees anything."""
    netlist, forest = prepare_design("usb_cdc_core")
    graph = build_timing_graph(netlist, forest)
    model = TimingEvaluator(EvaluatorConfig(hidden=32, seed=0))
    _trace_peak(graph, model, record=True)  # warm the evaluator's static cache
    gc.collect()
    gc.disable()
    try:
        closure = _trace_peak(graph, model, record=False)
        recorded = _trace_peak(graph, model, record=True)
    finally:
        gc.enable()
    assert recorded * 4 <= closure, (recorded, closure)
