"""Flow pipeline: placement -> Steiner -> [TSteiner] -> GR -> DR -> STA.

Each stage is timed with ``time.perf_counter`` so Table IV can report
the same runtime breakdown as the paper (TSteiner / global route /
detailed route).  The baseline arm and the TSteiner arm share identical
inputs: ``prepare_design`` is deterministic, and the TSteiner arm works
on a *copy* of the initial forest.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.refine import RefinementConfig, RefinementResult
from repro.runtime import Budget, StageError
from repro.core.tsteiner import TSteiner
from repro.droute.detailed import DetailedRouter, DetailedRouterConfig
from repro.groute.layer_assign import assign_layers
from repro.groute.router import GlobalRouteResult, GlobalRouter, RouterConfig
from repro.netlist.benchmarks import BENCHMARKS, build_benchmark
from repro.netlist.netlist import Netlist
from repro.obs import get_telemetry
from repro.placement.placer import PlacementConfig, place
from repro.routegrid.grid import GCellGrid
from repro.sta.engine import STAEngine, TimingReport
from repro.sta.hold import HoldReport, run_hold_analysis

if TYPE_CHECKING:
    from repro.eco.driver import EcoResult
    from repro.mcmm.sta import ScenarioReport
from repro.steiner.edge_shifting import shift_edges
from repro.steiner.forest import SteinerForest, build_forest
from repro.timing_model.dataset import DesignSample, make_sample
from repro.timing_model.model import TimingEvaluator


@dataclass
class FlowResult:
    """Sign-off and routing-quality metrics of one flow run (Table II)."""

    name: str
    wns: float
    tns: float
    num_violations: int
    wirelength: float
    num_vias: int
    num_drvs: int
    runtimes: Dict[str, float] = field(default_factory=dict)
    overflow: float = 0.0
    refinement: Optional[RefinementResult] = None
    report: Optional[TimingReport] = None
    route_result: Optional[GlobalRouteResult] = None
    # MCMM: per-scenario + merged sign-off verdict when the flow ran
    # with a non-neutral scenario set; the top-level
    # wns/tns/num_violations then carry the *merged* metrics.
    scenario_report: Optional["ScenarioReport"] = None
    # Hold (min-delay) sign-off of the routed design; populated
    # whenever post-route STA succeeds.
    hold_report: Optional[HoldReport] = None
    # Closed-loop ECO (docs/ECO.md): populated when the flow ran with
    # ``eco=...``.  The ECO stage operates on a *clone* of the netlist
    # and forest (pre-route parasitics), so the flow-level routed
    # wns/tns above are untouched; ``eco.final`` carries the post-ECO
    # pre-route verdict.
    eco: Optional["EcoResult"] = None
    # Resilience: per-stage failures recorded by the guarded flow
    # (stage name -> "ExceptionType: message"); a result with entries
    # here is *partial* — unreachable metrics are NaN/zero.
    stage_errors: Dict[str, str] = field(default_factory=dict)
    timed_out: bool = False  # any stage wound down on an expired budget

    @property
    def total_runtime(self) -> float:
        return sum(self.runtimes.values())

    @property
    def partial(self) -> bool:
        return bool(self.stage_errors)


def prepare_design(
    name: str,
    scale: float = 1.0,
    edge_shift_passes: int = 1,
    placement_config: Optional[PlacementConfig] = None,
) -> Tuple[Netlist, SteinerForest]:
    """Generate, place and Steinerize one named benchmark.

    Deterministic: repeated calls return byte-identical geometry, so
    baseline and TSteiner arms can be compared fairly.
    """
    netlist = build_benchmark(name, scale=scale)
    place(netlist, placement_config)
    forest = build_forest(netlist)
    if edge_shift_passes > 0:
        shift_edges(forest, passes=edge_shift_passes)
    return netlist, forest


def run_routing_flow(
    netlist: Netlist,
    forest: SteinerForest,
    model: Optional[TimingEvaluator] = None,
    refinement_config: Optional[RefinementConfig] = None,
    router_config: Optional[RouterConfig] = None,
    droute_config: Optional[DetailedRouterConfig] = None,
    engine: Optional[STAEngine] = None,
    budget: Optional[Budget] = None,
    checkpoint_dir: Optional[Union[str, Path]] = None,
    resume: bool = False,
    strict: bool = False,
    timing_graph=None,
    telemetry=None,
    scenarios=None,
    eco=None,
) -> FlowResult:
    """Route and sign off one design; optionally run TSteiner first.

    The input ``forest`` is not mutated — the flow operates on a copy,
    so a single prepared design can feed both arms of Table II.

    ``timing_graph`` optionally hands TSteiner a prebuilt
    :class:`~repro.timing_model.graph.TimingGraph` for this design
    (see :meth:`TSteiner.optimize`); the experiment suite memoizes it
    per (design, seed) so repeated optimized runs skip the rebuild.

    Every stage runs guarded (docs/RESILIENCE.md): a failing stage is
    recorded in ``FlowResult.stage_errors`` and the flow continues with
    what it has — a crashed TSteiner falls back to the unrefined
    forest, a crashed STA returns routing metrics with NaN timing.
    ``strict=True`` restores fail-fast behaviour by re-raising the
    first failure as a :class:`~repro.runtime.errors.StageError`.
    ``budget`` is shared across refinement, global routing, detailed
    routing; stages past an expired budget degrade rather than hang.
    ``checkpoint_dir``/``resume`` enable refinement snapshots.
    ``telemetry`` records per-stage spans and ``stage_error`` events
    (docs/OBSERVABILITY.md); defaults to the process global.

    ``scenarios`` (a ``repro.mcmm.ScenarioSet``) switches refinement
    acceptance and the final sign-off to the MCMM merged verdict
    (docs/MCMM.md): ``FlowResult.scenario_report`` carries per-scenario
    metrics, and the top-level WNS/TNS become the merged ones.  ``None``
    or a one-element neutral set keeps today's single-scenario flow
    bitwise-unchanged.

    ``eco`` (a ``repro.eco.EcoConfig``) appends a guarded closed-loop
    ECO stage after sign-off: the driver runs on a *clone* of the
    netlist + refined forest under the same scenario set and its result
    lands in ``FlowResult.eco`` (docs/ECO.md).  Pre-route parasitics —
    the routed flow metrics above stay untouched.
    """
    tel = telemetry if telemetry is not None else get_telemetry()
    work = forest.copy()
    runtimes: Dict[str, float] = {}
    refinement: Optional[RefinementResult] = None
    stage_errors: Dict[str, str] = {}
    timed_out = False
    mcmm = scenarios is not None and not scenarios.is_single_neutral()

    def guard(stage: str, exc: Exception) -> None:
        if tel.enabled:
            tel.event(
                "stage_error",
                stage=stage,
                design=netlist.name,
                error=f"{type(exc).__name__}: {exc}",
                strict=strict,
            )
        if strict:
            raise StageError(stage, exc)
        stage_errors[stage] = f"{type(exc).__name__}: {exc}"

    if model is not None:
        t0 = time.perf_counter()
        with tel.span("flow.tsteiner", design=netlist.name):
            try:
                optimizer = TSteiner(model, refinement_config, scenarios=scenarios)
                ckpt = (
                    Path(checkpoint_dir) / f"refine-{netlist.name}.npz"
                    if checkpoint_dir is not None
                    else None
                )
                refinement = optimizer.optimize(
                    netlist,
                    work,
                    budget=budget,
                    checkpoint_path=ckpt,
                    resume=resume,
                    graph=timing_graph,
                    telemetry=tel,
                )
                timed_out = timed_out or refinement.timed_out
            except Exception as exc:
                # Degrade to the baseline arm: route the unrefined forest.
                guard("tsteiner", exc)
        runtimes["tsteiner"] = time.perf_counter() - t0

    route_result: Optional[GlobalRouteResult] = None
    grid = GCellGrid(netlist.die_width, netlist.die_height, netlist.technology)
    t0 = time.perf_counter()
    with tel.span("flow.groute", design=netlist.name):
        try:
            router = GlobalRouter(grid, router_config)
            route_result = router.route(work, budget=budget)
            assign_layers(route_result, netlist.technology, grid.nx * grid.ny)
            timed_out = timed_out or route_result.timed_out
        except Exception as exc:
            guard("groute", exc)
    runtimes["groute"] = time.perf_counter() - t0

    detail = None
    if route_result is not None:
        t0 = time.perf_counter()
        with tel.span("flow.droute", design=netlist.name):
            try:
                droute = DetailedRouter(grid, droute_config)
                detail = droute.route(work, route_result, budget=budget)
                timed_out = timed_out or detail.timed_out
            except Exception as exc:
                guard("droute", exc)
        runtimes["droute"] = time.perf_counter() - t0
    else:
        stage_errors.setdefault("droute", "skipped: global routing failed")

    report = None
    scenario_report = None
    hold_report = None
    if route_result is not None:
        t0 = time.perf_counter()
        with tel.span("flow.sta", design=netlist.name):
            try:
                engine = engine or STAEngine(netlist)
                report = engine.run(work, route_result, utilization=grid.utilization_map())
                if mcmm:
                    from repro.mcmm.sta import ScenarioSTA

                    scenario_report = ScenarioSTA(
                        netlist, work, scenarios, engine=engine
                    ).run(route_result=route_result, utilization=grid.utilization_map())
                    if tel.enabled:
                        tel.event(
                            "mcmm_report",
                            design=netlist.name,
                            merged_wns=scenario_report.merged_wns,
                            merged_tns=scenario_report.merged_tns,
                            merged_violations=scenario_report.merged_violations,
                            scenarios=[
                                {
                                    "name": m.name,
                                    "check": m.check,
                                    "wns": m.wns,
                                    "tns": m.tns,
                                    "violations": m.num_violations,
                                }
                                for m in scenario_report.scenarios
                            ],
                        )
                if tel.enabled:
                    # Hold sign-off rides along when a trace is being
                    # recorded so `python -m repro report` can surface
                    # it (docs/OBSERVABILITY.md).
                    hold_report = run_hold_analysis(
                        engine, work, route_result,
                        utilization=grid.utilization_map(),
                    )
                    tel.event(
                        "hold_report",
                        design=netlist.name,
                        whs=hold_report.whs,
                        violations=hold_report.num_violations,
                        endpoints=len(hold_report.hold_slack),
                    )
            except Exception as exc:
                guard("sta", exc)
        runtimes["sta"] = time.perf_counter() - t0
    else:
        stage_errors.setdefault("sta", "skipped: global routing failed")

    eco_result = None
    if eco is not None:
        t0 = time.perf_counter()
        with tel.span("flow.eco", design=netlist.name):
            try:
                from repro.eco.driver import run_eco
                from repro.eco.ops import clone_state

                eco_netlist, eco_forest = clone_state(netlist, work)
                eco_result = run_eco(
                    eco_netlist,
                    eco_forest,
                    config=eco,
                    scenarios=scenarios,
                    budget=budget,
                )
                timed_out = timed_out or eco_result.timed_out
                if tel.enabled:
                    tel.event(
                        "eco_report",
                        design=netlist.name,
                        arm=eco_result.arm,
                        accepted=eco_result.num_accepted,
                        digest=eco_result.digest,
                        initial_wns=eco_result.initial.get("wns"),
                        initial_tns=eco_result.initial.get("tns"),
                        final_wns=eco_result.final.get("wns"),
                        final_tns=eco_result.final.get("tns"),
                        area_delta=eco_result.area_delta,
                    )
            except Exception as exc:
                guard("eco", exc)
        runtimes["eco"] = time.perf_counter() - t0

    nan = float("nan")
    if scenario_report is not None:
        top_wns = scenario_report.merged_wns
        top_tns = scenario_report.merged_tns
        top_vios = scenario_report.merged_violations
    else:
        top_wns = report.wns if report is not None else nan
        top_tns = report.tns if report is not None else nan
        top_vios = report.num_violations if report is not None else 0
    return FlowResult(
        name=netlist.name,
        wns=top_wns,
        tns=top_tns,
        num_violations=top_vios,
        wirelength=detail.wirelength if detail is not None else nan,
        num_vias=detail.num_vias if detail is not None else 0,
        num_drvs=detail.num_drvs if detail is not None else 0,
        runtimes=runtimes,
        overflow=route_result.overflow if route_result is not None else 0.0,
        refinement=refinement,
        report=report,
        eco=eco_result,
        scenario_report=scenario_report,
        hold_report=hold_report,
        route_result=route_result,
        stage_errors=stage_errors,
        timed_out=timed_out,
    )


def make_training_samples(
    names: Optional[Sequence[str]] = None,
    scale: float = 1.0,
    train_names: Optional[Sequence[str]] = None,
    augment: int = 2,
    augment_seed: int = 77,
) -> List[DesignSample]:
    """Run the baseline flow on each design and package GNN samples.

    ``train_names`` defaults to the paper's six training designs; other
    designs are marked held-out (``is_train=False``).

    ``augment`` adds that many *position-disturbed* variants per
    training design (random Steiner moves, re-routed and re-timed by
    the oracle).  Without augmentation the model only ever sees
    RSMT-optimal geometry and learns nothing about how sign-off timing
    *responds* to Steiner moves — precisely the derivative the
    refinement loop consumes.  Disturbed variants are train-only and
    excluded from Table III scoring.
    """
    from repro.flow.baseline import random_disturbance
    from repro.netlist.benchmarks import TRAIN_BENCHMARKS

    names = list(names) if names is not None else list(BENCHMARKS)
    train_set = set(train_names) if train_names is not None else set(TRAIN_BENCHMARKS)
    rng = np.random.default_rng(augment_seed)
    samples: List[DesignSample] = []

    def route_and_sample(netlist: Netlist, forest: SteinerForest, is_train: bool, engine: STAEngine) -> DesignSample:
        grid = GCellGrid(netlist.die_width, netlist.die_height, netlist.technology)
        router = GlobalRouter(grid)
        route_result = router.route(forest)
        assign_layers(route_result, netlist.technology, grid.nx * grid.ny)
        return make_sample(
            netlist,
            forest,
            route_result,
            is_train=is_train,
            engine=engine,
            congestion=grid.utilization_map(),
        )

    for name in names:
        netlist, forest = prepare_design(name, scale=scale)
        engine = STAEngine(netlist)
        is_train = name in train_set
        samples.append(route_and_sample(netlist, forest, is_train, engine))
        if is_train:
            for k in range(augment):
                disturbed = random_disturbance(forest, rng)
                aug = route_and_sample(netlist, disturbed, True, engine)
                aug.name = f"{name}@aug{k}"
                samples.append(aug)
    return samples
