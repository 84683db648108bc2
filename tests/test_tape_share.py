"""Compiled objectives are shared across graphs of one design content.

Every flow run builds a new ``TimingGraph``; ``get_compiled_objective``
adopts the model's shared objective when the graph's content digest
matches, so only the first run on a design per model compiles a tape.
These tests pin down both halves of that contract: runs that should
share do, bit for bit equal to a cold compile, and every change to
what the trace reads (netlist, congestion field, gamma, MCMM mask)
compiles its own tape.
"""

import json

import numpy as np
import pytest

from repro.core.penalty import PenaltyConfig
from repro.core.refine import RefinementConfig, refine
from repro.flow.pipeline import prepare_design, run_routing_flow
from repro.obs import Telemetry, telemetry_session
from repro.timing_model.compiled import CompiledObjective, get_compiled_objective
from repro.timing_model.graph import build_timing_graph
from repro.timing_model.model import EvaluatorConfig, TimingEvaluator

_FLOW_CONFIG = RefinementConfig(max_iterations=4, polish_probes=1)


def _traced(tmp_path, fn):
    """(``fn()``, objective tapes it compiled, its ``tape.*`` counters)."""
    path = tmp_path / f"trace{len(list(tmp_path.iterdir()))}.jsonl"
    with Telemetry(path=str(path)) as tel:
        with telemetry_session(tel):
            out = fn()
        counters = tel.metrics_snapshot()["counters"]
    compiles = sum(
        1
        for rec in map(json.loads, path.read_text().splitlines())
        if rec.get("name") == "tape_compile"
        and rec.get("kind") == "span_start"
        and rec["attrs"].get("what") == "objective"
    )
    return out, compiles, {k: v for k, v in counters.items() if k.startswith("tape.")}


def _flow(netlist, forest, model):
    return run_routing_flow(netlist, forest, model=model, refinement_config=_FLOW_CONFIG)


def _signature(result):
    assert not result.stage_errors
    ref = result.refinement
    return (
        result.wns,
        result.tns,
        result.wirelength,
        ref.coords.tobytes(),
        tuple(ref.history),
        ref.best_wns,
        ref.best_tns,
    )


def test_flow_runs_compile_once_per_model(tmp_path):
    """Two flows with one model book one ``tape_compile`` span between
    them; both equal each other and a run whose fresh model (identical
    weights) compiles its own tape."""
    netlist, forest = prepare_design("spm")
    model = TimingEvaluator(EvaluatorConfig(seed=0))
    (first, second), compiles, counters = _traced(
        tmp_path, lambda: [_flow(netlist, forest, model) for _ in range(2)]
    )
    assert compiles == 1
    assert counters["tape.cache_misses"] == 1
    assert counters["tape.shared_hits"] == 1
    fresh, compiles, _ = _traced(
        tmp_path, lambda: _flow(netlist, forest, TimingEvaluator(EvaluatorConfig(seed=0)))
    )
    assert compiles == 1
    assert _signature(first) == _signature(second) == _signature(fresh)


def _resizable(netlist):
    """(cell index, variant) whose resize changes input pin caps."""
    return next(
        (c.index, v)
        for c in netlist.cells
        if not c.is_sequential
        for v in netlist.library.variants_of(c.cell_type)
        if v.pin_caps != c.cell_type.pin_caps
    )


def test_content_changes_compile_their_own_tape(tmp_path):
    """A rebuilt graph of unchanged content adopts the shared tape; an
    edited netlist, another congestion field, another gamma and another
    MCMM mask each compile their own, which replays like a cold
    compile."""
    from repro.eco.ops import ResizeOp
    from repro.mcmm import ScenarioPenalty, ScenarioSet

    netlist, forest = prepare_design("spm")
    model = TimingEvaluator(EvaluatorConfig(seed=0))
    coords = forest.get_steiner_coords()
    gamma = PenaltyConfig().gamma
    field = np.random.default_rng(3).uniform(0.0, 1.2, size=(10, 10))

    def graph(congestion=field):
        return build_timing_graph(netlist, forest, congestion=congestion)

    base, compiles, _ = _traced(
        tmp_path, lambda: get_compiled_objective(model, graph(), gamma)
    )
    assert compiles == 1
    same, compiles, counters = _traced(
        tmp_path, lambda: get_compiled_objective(model, graph(field.copy()), gamma)
    )
    assert same is base and compiles == 0 and counters["tape.shared_hits"] == 1

    def check(g, gam=gamma, merge=None, active=None):
        """Compile once for this variant; replay equals a cold compile."""
        obj, compiles, _ = _traced(
            tmp_path,
            lambda: get_compiled_objective(model, g, gam, merge=merge, active=active),
        )
        assert compiles == 1
        assert obj is not base
        pcfg = PenaltyConfig(gamma=gam)
        cold = CompiledObjective(model, g, gam, merge=merge, active=active)
        for x, y in zip(obj.gradient(coords, pcfg), cold.gradient(coords, pcfg)):
            assert np.array_equal(x, y, equal_nan=True)

    check(graph(), gam=gamma / 2)
    check(graph(field * 0.5))
    resize = ResizeOp(*_resizable(netlist))
    resize.apply(netlist, forest)
    try:
        check(graph())
    finally:
        resize.revert(netlist, forest)
    g = graph()
    merge = ScenarioPenalty(g, ScenarioSet.signoff())
    check(g, merge=merge, active=np.ones(len(merge.specs), dtype=bool))
    check(g, merge=merge, active=np.array([False, True, False]))


def test_in_place_parameter_step_between_runs(tmp_path):
    """An optimizer step writes parameters in place (``id(p.data)``
    unchanged, as ``autodiff/optim.py`` does): the next run replays the
    shared tape on the new weights, equal to a cold compile."""
    netlist, forest = prepare_design("spm")
    model = TimingEvaluator(EvaluatorConfig(seed=0))
    before = _flow(netlist, forest, model)
    rng = np.random.default_rng(5)
    for p in model.parameters():
        ident = id(p.data)
        p.data -= 0.05 * rng.standard_normal(p.data.shape)
        assert id(p.data) == ident
    stepped, compiles, _ = _traced(tmp_path, lambda: _flow(netlist, forest, model))
    assert compiles == 0
    cold_model = TimingEvaluator(EvaluatorConfig(seed=0))
    cold_model.load_state_dict(model.state_dict())
    cold = _flow(netlist, forest, cold_model)
    assert _signature(stepped) == _signature(cold)
    assert stepped.refinement.history != before.refinement.history


def test_checkpoint_resume_recompiles(tmp_path):
    """A resumed refine drops the model's shared entry with the graph
    cache, so it compiles afresh, and still ends where an uninterrupted
    run does."""
    netlist, forest = prepare_design("spm")
    model = TimingEvaluator(EvaluatorConfig(seed=0))
    coords0 = forest.get_steiner_coords()
    cfg = RefinementConfig(
        max_iterations=6, converge_ratio=1e9, acceptance="evaluator", polish_probes=0
    )

    def run(clamp=forest.clamp_coords, **kw):
        graph = build_timing_graph(netlist, forest)
        return refine(model, graph, coords0, cfg, clamp_fn=clamp, **kw)

    full = run()
    ckpt = tmp_path / "refine.npz"
    calls = []

    def dying_clamp(c):
        calls.append(1)
        if len(calls) == 4:
            raise RuntimeError("killed mid-refinement")
        return forest.clamp_coords(c)

    with pytest.raises(RuntimeError):
        run(clamp=dying_clamp, checkpoint_path=ckpt)
    assert ckpt.exists()
    resumed, compiles, _ = _traced(
        tmp_path, lambda: run(checkpoint_path=ckpt, resume=True)
    )
    assert resumed.resumed is True
    assert compiles == 1
    assert resumed.coords.tobytes() == full.coords.tobytes()
    assert resumed.history == full.history
    assert (resumed.best_wns, resumed.best_tns) == (full.best_wns, full.best_tns)
