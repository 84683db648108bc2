"""Perf-bench harness for the timing kernels (``python -m repro.bench``).

Measures the hot paths this repo's refinement loop leans on and emits
a machine-readable report (``BENCH_timing.json``):

* ``forest_build`` — full-design initial Steiner construction: the
  per-net reference constructor vs the flat degree-bucketed kernels
  of ``build_forest``; trees asserted bitwise equal.
* ``groute`` — whole-design single-pass L-pattern routing (the
  congestion probe): per-edge python vs the batched ``(n_edges, 2)``
  scorer (``repro.groute.flat_route``); routes asserted bitwise equal.
* ``full_sta`` — one sign-off STA pass over a whole design: the
  reference per-net Python engine vs the flat CSR/batched-Elmore
  kernel of ``STAEngine.run``.
* ``mcmm_sta`` — cross-scenario sign-off over the MCMM ``signoff``
  preset: one scenario-batched :class:`~repro.mcmm.ScenarioSTA` pass
  vs N independent single-scenario passes (docs/MCMM.md).
* ``incremental`` — repeated sparse-move timing queries (the hybrid
  validator's workload): move a small fraction of Steiner points, ask
  for WNS/TNS, repeat.  Compares the reference engine, the full flat
  kernel, and :class:`~repro.sta.incremental.IncrementalSTA`.
* ``evaluator`` — the GNN evaluator forward (arrival prediction): the
  reference closure-graph engine vs replaying the compiled instruction
  tape (``docs/PERFORMANCE.md``).  Also records the one-off tape
  compile cost the first iteration amortizes.
* ``evaluator_backward`` — the refinement gradient (forward + penalty
  + backward through the whole evaluator): closure graph vs tape.
* ``refine_iter`` — a short end-to-end ``refine()`` run per kernel;
  asserts the two trajectories are *bitwise identical* and reports the
  per-iteration speedup (cold = compile included, warm = cached tape).
* ``serve_throughput`` — serving-layer jobs/sec on burst traffic:
  query fusion on vs off over the same warm cache, per-job results
  asserted equal (docs/SERVING.md, "Scaling").
* ``eco_loop`` — ECO candidate validation (docs/ECO.md): a fixed
  deterministic batch of apply/re-time/revert trials through one warm
  :class:`~repro.eco.driver.EcoContext` vs a cold context rebuilt per
  candidate, per-candidate WNS/TNS verdicts asserted bitwise equal.

The reference kernels are the parity oracles of
:mod:`repro.testing.oracles`.  Every kernel records a *speedup* ratio
comparing the fast kernel against the reference kernel **on the same
workload** — never
warm-vs-cold of one kernel — so the committed baseline stays
meaningful across machines.  ``compare_reports`` flags any kernel whose
speedup regressed by more than ``tolerance`` (default 25%) — the
``bench-smoke`` pytest marker runs exactly that check against the
committed baseline.

Long-running kernels use ``min`` over repeats (the minimum is the
least noisy estimator of the true cost); sub-millisecond kernels use
a warmup pass plus the **median of at least three amortized batch
samples** (``_best_amortized``), which resists the single lucky
sample that makes min-based ratios flap under CI load.  Every run can
also append one summary row to a history JSONL
(``python -m repro.bench --history BENCH_history.jsonl``;
:mod:`repro.bench.history`), turning the point-in-time gate into a
trend check rendered by ``python -m repro report --bench-trend``.
"""

from __future__ import annotations

import json
import logging
import math
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs import get_telemetry

_log = logging.getLogger("repro.bench")

QUICK_DESIGNS: Tuple[str, ...] = ("usb_cdc_core", "picorv32a")
FULL_DESIGNS: Tuple[str, ...] = ("usb_cdc_core", "picorv32a", "des3")

#: Fraction of Steiner points moved per incremental query — matches the
#: sparse proposals the refinement loop actually issues.
MOVE_FRACTION = 0.02


def _best(fn: Callable[[], object], repeats: int) -> float:
    """Minimum wall-clock seconds of ``fn`` over ``repeats`` calls."""
    best = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _best_amortized(
    fn: Callable[[], object], repeats: int, min_sample_s: float = 0.005
) -> float:
    """Median per-call seconds, timing batches of calls when ``fn`` is short.

    Sub-millisecond kernels (the flat builders on small designs) can't
    be timed stably one call at a time — scheduler noise swamps the
    signal and the speedup ratios the regression gate compares flap.
    Each timing sample therefore runs enough back-to-back calls to
    last at least ``min_sample_s`` and reports the amortized per-call
    time, over at least three samples with the median taken: unlike
    ``min``, the median is insensitive to the one lucky sample that a
    frequency-boost burst produces, which is exactly the flap the CI
    gate kept hitting.  The calibration call doubles as a warmup pass
    (allocator, caches, branch predictors) and is never counted as a
    sample.
    """
    t0 = time.perf_counter()
    fn()  # warmup + calibration; excluded from the samples below
    once = time.perf_counter() - t0
    inner = max(1, int(math.ceil(min_sample_s / max(once, 1e-9))))
    samples: List[float] = []
    for _ in range(max(3, repeats)):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        samples.append((time.perf_counter() - t0) / inner)
    samples.sort()
    mid = len(samples) // 2
    if len(samples) % 2:
        return samples[mid]
    return 0.5 * (samples[mid - 1] + samples[mid])


# ----------------------------------------------------------------------
# Kernels
# ----------------------------------------------------------------------
def _trees_bitwise_equal(a, b) -> bool:
    """Bitwise equality of two forests' trees (coords, edges, order)."""
    if len(a.trees) != len(b.trees):
        return False
    return all(
        ta.net_index == tb.net_index
        and ta.pin_ids == tb.pin_ids
        and np.array_equal(ta.pin_xy, tb.pin_xy)
        and np.array_equal(ta.steiner_xy, tb.steiner_xy)
        and ta.edges == tb.edges
        for ta, tb in zip(a.trees, b.trees)
    )


def bench_forest_build(netlist, repeats: int = 3) -> Dict[str, float]:
    """Full-design Steiner construction: per-net reference vs flat batched.

    Both kernels build every tree of the design from scratch
    (``cache=False``); the trees are asserted **bitwise equal** (pin
    order, Steiner coordinates, edge lists — the flat builder's
    contract, docs/PERFORMANCE.md) before any timing is reported.
    ``cached_ms`` additionally measures a warm ``build_forest`` hit on
    the geometry-digest memo (the serve warm-state rebuild path).
    """
    from repro.steiner.forest import build_forest, clear_forest_cache
    from repro.testing.oracles import reference_forest

    ref_forest = reference_forest(netlist)
    flat_forest = build_forest(netlist, cache=False)
    if not _trees_bitwise_equal(ref_forest, flat_forest):
        raise RuntimeError(
            "flat forest construction diverged bitwise from the per-net reference"
        )
    wl_delta = abs(ref_forest.total_wirelength() - flat_forest.total_wirelength())

    # Construction is milliseconds-scale on the small designs;
    # amortized samples keep the speedup ratio the regression gate
    # compares from flapping on scheduler noise.
    ref_s = _best_amortized(lambda: reference_forest(netlist), max(repeats, 5))
    flat_s = _best_amortized(
        lambda: build_forest(netlist, cache=False), max(repeats, 5)
    )
    clear_forest_cache()
    build_forest(netlist)  # prime the digest memo
    cached_s = _best_amortized(lambda: build_forest(netlist), max(repeats, 5))
    return {
        "trees": float(ref_forest.num_trees),
        "reference_ms": ref_s * 1e3,
        "flat_ms": flat_s * 1e3,
        "cached_ms": cached_s * 1e3,
        "speedup": ref_s / flat_s,
        "trees_bitwise_equal": 1.0,
        "wirelength_delta": wl_delta,
    }


def bench_groute(netlist, forest, repeats: int = 3) -> Dict[str, float]:
    """Whole-design L-pattern routing: per-edge python vs flat batched.

    Times the single-pass congestion estimate (the probe every
    ``optimize()`` call pays) both ways on a freshly reset grid and
    asserts shape choices, path costs, committed usage, and overflow
    are **bitwise equal** first.
    """
    from repro.groute.flat_route import pattern_route_flat
    from repro.routegrid.grid import GCellGrid
    from repro.testing.oracles import pattern_route_reference

    grid_ref = GCellGrid(netlist.die_width, netlist.die_height, netlist.technology)
    grid_flat = GCellGrid(netlist.die_width, netlist.die_height, netlist.technology)
    ref = pattern_route_reference(grid_ref, forest)
    flat = pattern_route_flat(grid_flat, forest)
    if not (
        np.array_equal(ref.choice, flat.choice)
        and np.array_equal(ref.cost, flat.cost)
        and np.array_equal(grid_ref.use_h, grid_flat.use_h)
        and np.array_equal(grid_ref.use_v, grid_flat.use_v)
        and ref.overflow == flat.overflow
    ):
        raise RuntimeError(
            "flat pattern route diverged bitwise from the per-edge reference"
        )

    def run_ref():
        grid_ref.reset_usage()
        pattern_route_reference(grid_ref, forest)

    def run_flat():
        grid_flat.reset_usage()
        pattern_route_flat(grid_flat, forest)

    # The flat pass is sub-millisecond on small designs; amortized
    # samples keep the ~30x speedup ratio from flapping the gate.
    ref_s = _best_amortized(run_ref, max(repeats, 5))
    flat_s = _best_amortized(run_flat, max(repeats, 5))
    return {
        "edges": float(ref.num_edges),
        "reference_ms": ref_s * 1e3,
        "flat_ms": flat_s * 1e3,
        "speedup": ref_s / flat_s,
        "routes_bitwise_equal": 1.0,
        "overflow": float(ref.overflow),
    }


def bench_full_sta(netlist, forest, repeats: int = 3) -> Dict[str, float]:
    """Whole-design sign-off STA: reference engine vs flat kernel."""
    from repro.sta.engine import STAEngine
    from repro.testing.oracles import reference_sta

    engine = STAEngine(netlist)
    # Warm both paths once (library parsing, levelization, flat build).
    ref_report = reference_sta(engine, forest)
    flat_report = engine.run(forest)
    ref_s = _best(lambda: reference_sta(engine, forest), repeats)
    flat_s = _best(lambda: engine.run(forest), repeats)
    return {
        "reference_ms": ref_s * 1e3,
        "flat_ms": flat_s * 1e3,
        "speedup": ref_s / flat_s,
        "wns_delta": abs(ref_report.wns - flat_report.wns),
        "tns_delta": abs(ref_report.tns - flat_report.tns),
    }


def bench_incremental(
    netlist, forest, queries: int = 12, repeats: int = 2, seed: int = 13
) -> Dict[str, float]:
    """Repeated sparse-move timing queries (pre-route validator workload).

    Each query moves ``MOVE_FRACTION`` of the Steiner points by a small
    random offset, writes the coordinates back and asks for a fresh
    WNS/TNS.  The reported per-query times include the coordinate
    write-back — that is the cost the refinement loop pays.

    A second measurement (``polish_*``) repeats the experiment moving a
    *single* Steiner point per query — the workload of the oracle-polish
    stage and the sparse tail of the proposal schedule, where the dirty
    cone is one net's fanout and incremental re-timing pays off most.
    """
    from repro.sta.engine import STAEngine
    from repro.sta.incremental import IncrementalSTA
    from repro.testing.oracles import reference_sta

    engine = STAEngine(netlist)
    base = forest.get_steiner_coords()
    rng = np.random.default_rng(seed)
    n = len(base)
    moves = []
    for _ in range(queries):
        c = base.copy()
        k = max(1, int(n * MOVE_FRACTION))
        idx = rng.choice(n, size=k, replace=False)
        c[idx] += rng.normal(0.0, 1.5, size=(k, 2))
        moves.append(forest.clamp_coords(c))

    polish_moves = []
    for _ in range(queries):
        c = base.copy()
        i = int(rng.integers(n))
        c[i] += rng.normal(0.0, 1.5, size=2)
        polish_moves.append(forest.clamp_coords(c))

    def run_queries(query_fn, move_set) -> float:
        t0 = time.perf_counter()
        for c in move_set:
            forest.set_steiner_coords(c)
            query_fn()
        return (time.perf_counter() - t0) / len(move_set)

    def ref_query():
        reference_sta(engine, forest)

    def flat_query():
        engine.run(forest)

    inc = IncrementalSTA(netlist, forest, engine=engine)

    def inc_query():
        inc.run()

    # Warm each path on the base coordinates first.
    forest.set_steiner_coords(base)
    reference_sta(engine, forest)
    engine.run(forest)
    inc.run()

    reps = max(1, repeats)
    ref_s = min(run_queries(ref_query, moves) for _ in range(reps))
    flat_s = min(run_queries(flat_query, moves) for _ in range(reps))
    inc_s = min(run_queries(inc_query, moves) for _ in range(reps))
    flat_polish_s = min(run_queries(flat_query, polish_moves) for _ in range(reps))
    inc.invalidate()
    inc.run()  # re-warm after the flat pass left coords at polish_moves[-1]
    inc_polish_s = min(run_queries(inc_query, polish_moves) for _ in range(reps))
    forest.set_steiner_coords(base)  # leave the forest as we found it
    return {
        "queries": float(queries),
        "reference_ms_per_query": ref_s * 1e3,
        "flat_ms_per_query": flat_s * 1e3,
        "incremental_ms_per_query": inc_s * 1e3,
        "speedup_vs_reference": ref_s / inc_s,
        "speedup_vs_flat": flat_s / inc_s,
        "polish_flat_ms_per_query": flat_polish_s * 1e3,
        "polish_incremental_ms_per_query": inc_polish_s * 1e3,
        "polish_speedup_vs_flat": flat_polish_s / inc_polish_s,
    }


def bench_mcmm_sta(netlist, forest, repeats: int = 3) -> Dict[str, float]:
    """Cross-scenario sign-off STA: batched vs independent per-scenario runs.

    Times a full STA pass over the ``signoff`` scenario set (typ,
    slow_setup, fast_hold) two ways: one scenario-batched
    :class:`~repro.mcmm.ScenarioSTA` pass sharing the topology walk
    across all scenarios, and N independent single-scenario passes.
    Both sides use the same batched kernel, so the ratio isolates the
    cross-scenario sharing, and the per-scenario
    metrics are asserted bitwise identical before any timing is
    reported (docs/MCMM.md).
    """
    from repro.mcmm import ScenarioSTA, ScenarioSet

    scenarios = ScenarioSet.signoff()
    batched = ScenarioSTA(netlist, forest, scenarios)
    singles = [ScenarioSTA(netlist, forest, ScenarioSet((sc,))) for sc in scenarios]

    # Warm (levelization, flat build) and check parity once.
    batched_report = batched.run()
    single_metrics = [s.run().scenarios[0] for s in singles]
    for got, want in zip(batched_report.scenarios, single_metrics):
        if not (
            got.wns == want.wns
            and got.tns == want.tns
            and np.array_equal(got.arrival, want.arrival, equal_nan=True)
        ):
            raise RuntimeError(
                f"batched scenario {got.name} diverged from its "
                f"independent run (wns {got.wns} vs {want.wns})"
            )

    def run_batched():
        batched.invalidate()
        batched.run()

    def run_independent():
        for s in singles:
            s.invalidate()
            s.run()

    # Amortized samples keep the sharing ratio stable enough for the
    # smoke regression gate on the small designs.
    batched_s = _best_amortized(run_batched, max(repeats, 5))
    independent_s = _best_amortized(run_independent, max(repeats, 5))
    return {
        "scenarios": float(len(scenarios)),
        "independent_ms": independent_s * 1e3,
        "batched_ms": batched_s * 1e3,
        "speedup": independent_s / batched_s,
        "metrics_bitwise_equal": 1.0,
    }


def _evaluator_setup(netlist, forest):
    """(graph, model, objective, coords) shared by the evaluator benches."""
    from repro.core.penalty import PenaltyConfig
    from repro.timing_model.compiled import get_compiled_objective
    from repro.timing_model.graph import build_timing_graph
    from repro.timing_model.model import EvaluatorConfig, TimingEvaluator

    graph = build_timing_graph(netlist, forest)
    model = TimingEvaluator(EvaluatorConfig(seed=0))
    coords = forest.get_steiner_coords()
    obj = get_compiled_objective(model, graph, PenaltyConfig().gamma)
    if obj is None:  # pragma: no cover - every bench design compiles
        raise RuntimeError("tape compilation fell back; nothing to benchmark")
    return graph, model, obj, coords


def bench_evaluator(netlist, forest, repeats: int = 5) -> Dict[str, float]:
    """Evaluator forward: closure-graph reference vs compiled-tape replay.

    Both kernels produce the per-pin arrival array for the same
    coordinates; ``speedup`` is closure time over (warm) tape time.
    ``compile_ms`` is the one-off tape build a cold graph pays — it is
    informational, not part of the speedup ratio.
    """
    from repro.core.penalty import PenaltyConfig
    from repro.timing_model.compiled import get_compiled_objective

    graph, model, obj, coords = _evaluator_setup(netlist, forest)

    # Warm both paths (numpy, allocator, evaluator static tensors).
    ref_arrival = model.predict_arrivals(graph, coords)
    tape_arrival = obj.evaluate(coords)

    closure_s = _best(lambda: model.predict_arrivals(graph, coords), repeats)
    tape_s = _best(lambda: obj.evaluate(coords), repeats)

    def compile_cold():
        graph._static.clear()
        get_compiled_objective(model, graph, PenaltyConfig().gamma)

    compile_s = _best(compile_cold, max(1, repeats - 2))
    return {
        "closure_ms": closure_s * 1e3,
        "tape_ms": tape_s * 1e3,
        "compile_ms": compile_s * 1e3,
        "speedup": closure_s / tape_s,
        "arrival_delta": float(np.max(np.abs(ref_arrival - tape_arrival))),
    }


def bench_evaluator_backward(netlist, forest, repeats: int = 5) -> Dict[str, float]:
    """Refinement gradient (forward + penalty + backward): closure vs tape.

    Alternates between two coordinate sets so the tape's forward-state
    memoization (which legitimately skips the arrival prefix when the
    refinement loop re-differentiates the coordinates it just
    evaluated) never fires — each call pays the full replay, matching
    the closure's workload exactly.
    """
    from repro.autodiff.tensor import Tensor
    from repro.core.penalty import PenaltyConfig, smoothed_penalty

    graph, model, obj, coords = _evaluator_setup(netlist, forest)
    pcfg = PenaltyConfig()
    rng = np.random.default_rng(7)
    alt = forest.clamp_coords(coords + rng.normal(0.0, 0.5, size=coords.shape))
    pair = [coords, alt]

    def closure_grad():
        for c in pair:
            t = Tensor(c, requires_grad=True)
            out = model(graph, t)
            penalty, _, _ = smoothed_penalty(
                out["arrival"], graph.endpoints, graph.required, pcfg
            )
            penalty.backward()

    def tape_grad():
        for c in pair:
            obj.gradient(c, pcfg)

    closure_grad()  # warm
    tape_grad()
    closure_s = _best(closure_grad, repeats) / len(pair)
    tape_s = _best(tape_grad, repeats) / len(pair)

    # Bitwise parity of the gradients themselves (the tape's contract).
    t = Tensor(coords, requires_grad=True)
    out = model(graph, t)
    penalty, _, _ = smoothed_penalty(out["arrival"], graph.endpoints, graph.required, pcfg)
    penalty.backward()
    grad_tape, _, _ = obj.gradient(coords, pcfg)
    bitwise = bool(np.array_equal(t.grad, grad_tape, equal_nan=True))
    return {
        "closure_ms": closure_s * 1e3,
        "tape_ms": tape_s * 1e3,
        "speedup": closure_s / tape_s,
        "grad_bitwise_equal": float(bitwise),
    }


def bench_refine_iter(netlist, forest, iterations: int = 10) -> Dict[str, float]:
    """End-to-end ``refine()`` per kernel with bitwise trajectory check.

    Runs a short evaluator-acceptance refinement three times — closure
    reference, tape with a cold cache (compile included), tape warm —
    and *asserts* the closure and tape trajectories (every history
    entry plus the best WNS/TNS) are bitwise identical before reporting
    any timing.  ``speedup`` is closure over warm tape; ``speedup_cold``
    charges the tape its one-off compile.
    """
    from repro.core.refine import RefinementConfig, refine
    from repro.timing_model.graph import build_timing_graph
    from repro.timing_model.model import EvaluatorConfig, TimingEvaluator

    graph = build_timing_graph(netlist, forest)
    model = TimingEvaluator(EvaluatorConfig(seed=0))
    coords = forest.get_steiner_coords()
    cfg = RefinementConfig(
        max_iterations=iterations, acceptance="evaluator", polish_probes=0
    )

    saved_kernel = model.kernel
    timings: Dict[str, float] = {}
    results: Dict[str, object] = {}
    # Closure and warm-tape run twice (min taken, like ``_best``); the
    # cold run is once by construction — repeating it would re-measure
    # a warm cache.
    sequence = (
        ("closure", "closure", True),
        ("tape_cold", "tape", True),
        ("tape_warm", "tape", False),
        ("closure", "closure", False),
        ("tape_warm", "tape", False),
    )
    try:
        for label, kernel, clear in sequence:
            model.kernel = kernel
            if clear:
                graph._static.clear()
            t0 = time.perf_counter()
            result = refine(model, graph, coords, config=cfg, clamp_fn=forest.clamp_coords)
            elapsed = time.perf_counter() - t0
            timings[label] = min(elapsed, timings.get(label, float("inf")))
            results.setdefault(label, result)
    finally:
        model.kernel = saved_kernel

    ref, tape = results["closure"], results["tape_cold"]
    same = (
        ref.best_wns == tape.best_wns
        and ref.best_tns == tape.best_tns
        and len(ref.history) == len(tape.history)
        and all(tuple(a) == tuple(b) for a, b in zip(ref.history, tape.history))
    )
    if not same:
        raise RuntimeError(
            "refine() trajectory diverged between closure and tape kernels "
            f"(closure best WNS/TNS {ref.best_wns}/{ref.best_tns}, "
            f"tape {tape.best_wns}/{tape.best_tns})"
        )
    n = max(1, ref.iterations)
    closure_s, tape_cold_s, tape_warm_s = (
        timings["closure"],
        timings["tape_cold"],
        timings["tape_warm"],
    )
    return {
        "iterations": float(n),
        "closure_ms_per_iter": closure_s / n * 1e3,
        "tape_cold_ms_per_iter": tape_cold_s / n * 1e3,
        "tape_ms_per_iter": tape_warm_s / n * 1e3,
        "speedup": closure_s / tape_warm_s,
        "speedup_cold": closure_s / tape_cold_s,
        "trajectory_bitwise_equal": 1.0,
    }


def bench_serve_throughput(
    design: str, jobs: int = 32, repeats: int = 3
) -> Dict[str, float]:
    """Serving-layer query throughput: fused vs unfused dispatch.

    Drives one :class:`~repro.serve.service.SignoffService` with the
    seeded burst traffic of :mod:`repro.serve.loadgen` (whatif-heavy,
    no commits, back-to-back groups of 8 against one design) twice over
    the **same** warm cache: batching off, then batching on.  Because
    the mix never commits coordinates, the two runs answer identical
    queries against identical warm state — the per-job result values
    are asserted equal before any timing is reported (the fused
    ``probe_batch`` path's bitwise contract, docs/SERVING.md).

    ``speedup`` is fused jobs/sec over unfused jobs/sec; the fused run
    also reports its achieved fusion ratio and mean batch width so the
    committed baseline records how much coalescing the traffic allowed.
    """
    import asyncio

    from repro.serve.batcher import BatchConfig
    from repro.serve.handlers import default_handlers
    from repro.serve.loadgen import TrafficConfig, run_load
    from repro.serve.service import SignoffService
    from repro.serve.state import WarmStateCache

    cache = WarmStateCache()
    handlers = default_handlers(cache)
    traffic = TrafficConfig(
        jobs=jobs,
        designs=(design,),
        seed=7,
        mix=(5.0, 2.0, 0.0, 0.0),  # whatif-heavy, nothing commits
        burst_size=8,
    )

    def run_once(batching):
        async def _drive():
            async with SignoffService(
                handlers=handlers, warm=cache, workers=2, batching=batching
            ) as svc:
                return await run_load(svc, traffic)

        t0 = time.perf_counter()
        report = asyncio.run(_drive())
        elapsed = time.perf_counter() - t0
        if report.lost or report.quarantined or report.shed:
            raise RuntimeError(
                f"serve_throughput traffic misbehaved: lost {report.lost}, "
                f"quarantined {report.quarantined}, shed {report.shed}"
            )
        return elapsed, report

    # Warm the design, probe engine and scenario STAs once — the bench
    # measures steady-state serving, not the first-query warmup.
    run_once(None)
    batching = BatchConfig(max_batch=8, linger_s=0.0)
    unfused_s = float("inf")
    fused_s = float("inf")
    unfused_values = fused_values = None
    fused_report = None
    for _ in range(max(1, repeats)):
        elapsed, rep = run_once(None)
        if elapsed < unfused_s:
            unfused_s = elapsed
        unfused_values = [r.value for r in rep.results]
        elapsed, rep = run_once(batching)
        if elapsed < fused_s:
            fused_s = elapsed
        fused_values = [r.value for r in rep.results]
        fused_report = rep
    if unfused_values != fused_values:
        raise RuntimeError(
            "fused serving diverged from unbatched execution on "
            f"{design} (per-job results not equal)"
        )
    return {
        "jobs": float(jobs),
        "unfused_jobs_per_s": jobs / unfused_s,
        "fused_jobs_per_s": jobs / fused_s,
        "speedup": unfused_s / fused_s,
        "batches": float(fused_report.batches),
        "mean_batch_width": float(fused_report.mean_batch_width),
        "fusion_ratio": float(fused_report.fusion_ratio),
        "results_equal": 1.0,
    }


def bench_eco_loop(
    netlist, forest, candidates: int = 8, repeats: int = 3
) -> Dict[str, float]:
    """ECO candidate validation: warm EcoContext vs cold rebuild per op.

    The closed-loop driver's hot path is apply → re-time → revert over
    a ranked candidate list (docs/ECO.md).  This kernel times a fixed
    deterministic batch of Steiner-nudge candidates on the longest
    trees — the geometry trials the greedy polish and SA arms issue,
    which re-time through the pinned scenario STA's dirty-tree
    incremental path — two ways: through one warm
    :class:`~repro.eco.driver.EcoContext`, and rebuilding a cold
    context — engine construction, levelization, first full pass — for
    every candidate.  The per-candidate (merged WNS, merged TNS)
    verdicts are asserted **bitwise equal** before any timing is
    reported; both sides run force-batched over the ``signoff``
    scenario set.
    """
    from repro.eco.driver import EcoContext, evaluate_candidates
    from repro.eco.ops import NudgeOp
    from repro.mcmm import ScenarioSet

    scenarios = ScenarioSet.signoff()
    trees = sorted(
        (t for t in forest.trees if t.n_steiner > 0),
        key=lambda t: (-t.wirelength(), t.net_index),
    )
    ops = []
    for tree in trees:
        if len(ops) >= candidates:
            break
        ops.append(NudgeOp(tree.net_index, 2.0, 0.0))
        if len(ops) < candidates:
            ops.append(NudgeOp(tree.net_index, 0.0, -2.0))
    if not ops:
        raise RuntimeError("design has no nudgeable trees to benchmark")

    warm_ctx = EcoContext(netlist, forest, scenarios)
    warm_ctx.run()  # prime levelization, flat build, scenario state
    warm = evaluate_candidates(netlist, forest, ops, context=warm_ctx)
    cold = [
        evaluate_candidates(netlist, forest, [op], scenarios=scenarios)[0]
        for op in ops
    ]
    if warm != cold:
        raise RuntimeError(
            "warm ECO verdicts diverged bitwise from cold per-candidate rebuilds"
        )

    def run_warm():
        evaluate_candidates(netlist, forest, ops, context=warm_ctx)

    def run_cold():
        for op in ops:
            evaluate_candidates(netlist, forest, [op], scenarios=scenarios)

    warm_s = _best(run_warm, repeats)
    cold_s = _best(run_cold, repeats)
    n = len(ops)
    return {
        "candidates": float(n),
        "scenarios": float(len(scenarios)),
        "cold_ms_per_op": cold_s / n * 1e3,
        "warm_ms_per_op": warm_s / n * 1e3,
        "speedup": cold_s / warm_s,
        "verdicts_bitwise_equal": 1.0,
    }


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
#: One row per kernel, in run order: (name, call, span annotation
#: fields, log line).  ``call(netlist, forest, design, repeats,
#: queries)`` returns the kernel's report dict; the log line is
#: formatted with that dict.
_KERNEL_RUNS: Tuple[Tuple[str, Callable[..., Dict], Tuple[str, ...], str], ...] = (
    (
        "forest_build",
        lambda nl, fo, name, reps, q: bench_forest_build(nl, repeats=reps),
        ("reference_ms", "flat_ms", "speedup"),
        "reference {reference_ms:.2f} ms, flat {flat_ms:.2f} ms  ({speedup:.1f}x; "
        "cached {cached_ms:.2f} ms, bitwise parity {trees_bitwise_equal:.0f})",
    ),
    (
        "groute",
        lambda nl, fo, name, reps, q: bench_groute(nl, fo, repeats=reps),
        ("reference_ms", "flat_ms", "speedup"),
        "reference {reference_ms:.2f} ms, flat {flat_ms:.2f} ms  ({speedup:.1f}x; "
        "bitwise parity {routes_bitwise_equal:.0f})",
    ),
    (
        "full_sta",
        lambda nl, fo, name, reps, q: bench_full_sta(nl, fo, repeats=reps),
        ("reference_ms", "flat_ms", "speedup"),
        "reference {reference_ms:.2f} ms, flat {flat_ms:.2f} ms  ({speedup:.1f}x)",
    ),
    (
        "mcmm_sta",
        lambda nl, fo, name, reps, q: bench_mcmm_sta(nl, fo, repeats=reps),
        ("independent_ms", "batched_ms", "speedup"),
        "{scenarios:.0f} scenarios, independent {independent_ms:.2f} ms, "
        "batched {batched_ms:.2f} ms  ({speedup:.1f}x)",
    ),
    (
        "incremental",
        lambda nl, fo, name, reps, q: bench_incremental(
            nl, fo, queries=q, repeats=max(1, reps - 1)
        ),
        ("incremental_ms_per_query", "speedup_vs_reference", "speedup_vs_flat"),
        "{incremental_ms_per_query:.2f} ms/query ({speedup_vs_reference:.1f}x vs "
        "reference, {speedup_vs_flat:.1f}x vs full flat; single-point "
        "{polish_incremental_ms_per_query:.2f} ms, {polish_speedup_vs_flat:.1f}x vs flat)",
    ),
    (
        "evaluator",
        lambda nl, fo, name, reps, q: bench_evaluator(nl, fo, repeats=reps),
        ("closure_ms", "tape_ms", "speedup"),
        "closure {closure_ms:.2f} ms, tape {tape_ms:.2f} ms  ({speedup:.1f}x; "
        "compile {compile_ms:.1f} ms)",
    ),
    (
        "evaluator_backward",
        lambda nl, fo, name, reps, q: bench_evaluator_backward(nl, fo, repeats=reps),
        ("closure_ms", "tape_ms", "speedup"),
        "closure {closure_ms:.2f} ms, tape {tape_ms:.2f} ms  ({speedup:.1f}x)",
    ),
    (
        "refine_iter",
        lambda nl, fo, name, reps, q: bench_refine_iter(nl, fo),
        ("closure_ms_per_iter", "tape_ms_per_iter", "speedup"),
        "closure {closure_ms_per_iter:.1f} ms/iter, tape {tape_ms_per_iter:.1f} ms/iter  "
        "({speedup:.1f}x warm, {speedup_cold:.1f}x cold)",
    ),
    (
        "serve_throughput",
        lambda nl, fo, name, reps, q: bench_serve_throughput(name, repeats=reps),
        ("unfused_jobs_per_s", "fused_jobs_per_s", "speedup"),
        "unfused {unfused_jobs_per_s:.1f} jobs/s, fused {fused_jobs_per_s:.1f} jobs/s  "
        "({speedup:.1f}x; fusion ratio {fusion_ratio:.2f}, mean width {mean_batch_width:.2f})",
    ),
    (
        "eco_loop",
        lambda nl, fo, name, reps, q: bench_eco_loop(nl, fo, repeats=reps),
        ("cold_ms_per_op", "warm_ms_per_op", "speedup"),
        "cold {cold_ms_per_op:.2f} ms/op, warm {warm_ms_per_op:.2f} ms/op  "
        "({speedup:.1f}x; bitwise parity {verdicts_bitwise_equal:.0f})",
    ),
)

#: Every benchmarkable kernel, in run order.
ALL_KERNELS: Tuple[str, ...] = tuple(row[0] for row in _KERNEL_RUNS)


def run_benchmarks(
    designs: Optional[Sequence[str]] = None,
    quick: bool = False,
    repeats: int = 3,
    queries: int = 12,
    log: Optional[Callable[[str], None]] = None,
    telemetry=None,
    kernels: Optional[Sequence[str]] = None,
) -> Dict:
    """Run every kernel over ``designs`` and return the report dict.

    Progress goes through ``log`` when given, the ``repro.bench``
    logger otherwise; ``telemetry`` (default: the process global)
    records one annotated span per (design, kernel) pair.  ``kernels``
    restricts the run to a subset of :data:`ALL_KERNELS` (the CI
    named-metric gates time only the kernels they check).
    """
    from repro.flow.pipeline import prepare_design

    if log is None:
        log = _log.info
    tel = telemetry if telemetry is not None else get_telemetry()
    if designs is None:
        designs = QUICK_DESIGNS if quick else FULL_DESIGNS
    if kernels is None:
        wanted = set(ALL_KERNELS)
    else:
        unknown = set(kernels) - set(ALL_KERNELS)
        if unknown:
            raise ValueError(f"unknown bench kernels: {sorted(unknown)}")
        wanted = set(kernels)
    report: Dict = {
        "version": 3,
        "quick": quick,
        "designs": list(designs),
        "kernels": {k: {} for k in ALL_KERNELS if k in wanted},
    }
    for name in designs:
        log(f"[bench] preparing {name} ...")
        with tel.span("bench.prepare", design=name):
            netlist, forest = prepare_design(name)
        for kernel, call, fields, line in _KERNEL_RUNS:
            if kernel not in wanted:
                continue
            with tel.span(f"bench.{kernel}", design=name) as sp:
                r = call(netlist, forest, name, repeats, queries)
                sp.annotate(**{f: r[f] for f in fields})
            report["kernels"][kernel][name] = r
            log(f"[bench] {name} {kernel}: " + line.format(**r))
    return report


#: Per-kernel speedup fields checked by :func:`compare_reports`.
_SPEEDUP_FIELDS = {
    "forest_build": ("speedup",),
    "groute": ("speedup",),
    "full_sta": ("speedup",),
    "mcmm_sta": ("speedup",),
    "incremental": ("speedup_vs_reference",),
    "evaluator": ("speedup",),
    "evaluator_backward": ("speedup",),
    "refine_iter": ("speedup",),
    "serve_throughput": ("speedup",),
    "eco_loop": ("speedup",),
}


def compare_reports(new: Dict, baseline: Dict, tolerance: float = 0.25) -> List[str]:
    """Regressions of ``new`` vs ``baseline``; empty list means clean.

    A kernel regresses when its speedup falls below
    ``(1 - tolerance) * baseline_speedup``.  Only (kernel, design,
    field) triples present in *both* reports are compared, so a quick
    run can be checked against a committed full baseline.
    """
    problems: List[str] = []
    for kernel, fields in _SPEEDUP_FIELDS.items():
        new_k = new.get("kernels", {}).get(kernel, {})
        base_k = baseline.get("kernels", {}).get(kernel, {})
        for design in sorted(set(new_k) & set(base_k)):
            for f in fields:
                if f not in new_k[design] or f not in base_k[design]:
                    continue
                got, want = float(new_k[design][f]), float(base_k[design][f])
                floor = (1.0 - tolerance) * want
                if got < floor:
                    problems.append(
                        f"metric {kernel}/{design}/{f}: measured {got:.2f}x "
                        f"below threshold {floor:.2f}x "
                        f"(baseline {want:.2f}x, tolerance {tolerance:.0%})"
                    )
    return problems


def load_report(path) -> Dict:
    return json.loads(Path(path).read_text())


def save_report(report: Dict, path) -> None:
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
