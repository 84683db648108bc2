"""A refine run asks the compiled evaluator each exact query once.

The adaptive stepsize's first gradient is the loop's first, and a
validated revert (and the polish after it) returns to the real anchor
already evaluated there.  ``_Oracle`` serves such repeats from the
result it computed; these tests count the queries that reach the
compiled objective and check the trajectory does not move by a bit.
"""

import pytest

from repro.core.penalty import hard_metrics
from repro.core.refine import RefinementConfig, _Oracle, refine
from repro.flow.pipeline import prepare_design
from repro.obs import get_telemetry
from repro.testing.parity import ClosureOnly, assert_same_trajectory
from repro.timing_model.compiled import CompiledObjective
from repro.timing_model.graph import build_timing_graph
from repro.timing_model.model import EvaluatorConfig, TimingEvaluator


@pytest.fixture
def queries(monkeypatch):
    """Every (kind, coordinate bytes, penalty weights) that reaches a
    compiled objective, in call order."""
    log = []
    gradient, evaluate = CompiledObjective.gradient, CompiledObjective.evaluate

    def counted_gradient(self, coords, pcfg):
        log.append(("gradient", coords.tobytes(), pcfg.lambda_wns, pcfg.lambda_tns))
        return gradient(self, coords, pcfg)

    def counted_evaluate(self, coords):
        log.append(("evaluate", coords.tobytes()))
        return evaluate(self, coords)

    monkeypatch.setattr(CompiledObjective, "gradient", counted_gradient)
    monkeypatch.setattr(CompiledObjective, "evaluate", counted_evaluate)
    return log


def _run(name, evaluator, cfg, validator=None):
    netlist, forest = prepare_design(name)
    graph = build_timing_graph(netlist, forest)
    return refine(
        evaluator, graph, forest.get_steiner_coords(), config=cfg,
        clamp_fn=forest.clamp_coords, validator=validator,
    )


#: A validator no candidate ever beats: every validation reverts to the
#: initial anchor and every polish probe is rejected there.
def _never_better(coords):
    return -1.0, -1.0


CASES = {
    "evaluator": (RefinementConfig(max_iterations=6, acceptance="evaluator", polish_probes=0), None),
    "hybrid": (
        RefinementConfig(max_iterations=8, validate_every=2, polish_probes=3),
        _never_better,
    ),
}


@pytest.mark.parametrize("mode", sorted(CASES))
def test_no_repeated_query_and_same_trajectory(mode, queries, monkeypatch):
    cfg, validator = CASES[mode]
    model = TimingEvaluator(EvaluatorConfig(seed=0))
    memo = _run("usb_cdc_core", model, cfg, validator)
    asked = list(queries)
    assert len(asked) == len(set(asked)), "an exact query reached the evaluator twice"

    # The same run without the memo asks the repeats again ...
    queries.clear()
    monkeypatch.setattr(_Oracle, "_recall", lambda self, key: None)
    plain = _run("usb_cdc_core", model, cfg, validator)
    repeats = len(queries) - len(set(queries))
    assert repeats >= (2 if mode == "hybrid" else 1)
    assert len(asked) == len(queries) - repeats
    # ... and neither moves off the closure reference by a bit.
    assert_same_trajectory(plain, memo)
    reference = _run("usb_cdc_core", ClosureOnly(model), cfg, validator)
    assert_same_trajectory(reference, memo)
    assert memo.validated_reverts == plain.validated_reverts


def test_parameter_change_clears_the_memo(queries):
    """A result is only reused under the parameter bytes it was computed
    with: an in-place step makes the same query recompute."""
    netlist, forest = prepare_design("spm")
    graph = build_timing_graph(netlist, forest)
    model = TimingEvaluator(EvaluatorConfig(seed=0))
    oracle = _Oracle(model, graph, 10.0, None, get_telemetry())
    coords = forest.get_steiner_coords()
    first = oracle.evaluate(coords)
    assert oracle.evaluate(coords) == first
    assert len(queries) == 1  # the repeat was served
    for p in model.parameters():
        p.data *= 1.5
    moved = oracle.evaluate(coords)
    assert len(queries) == 2
    arrival = model.predict_arrivals(graph, coords)
    assert moved == hard_metrics(arrival, graph.endpoints, graph.required)[:2] != first
