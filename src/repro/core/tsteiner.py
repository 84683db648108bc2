"""User-facing TSteiner facade.

Binds a trained :class:`TimingEvaluator` to a design and runs the full
pre-routing optimization step of Fig. 4: build the two-graph structure,
refine Steiner coordinates with Algorithm 1, write the best solution
back into the forest and round positions in post-processing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.refine import RefinementConfig, RefinementResult, refine
from repro.groute.router import GlobalRouter, RouteMemo
from repro.netlist.netlist import Netlist
from repro.obs import get_telemetry
from repro.steiner.forest import SteinerForest
from repro.timing_model.graph import build_timing_graph
from repro.timing_model.model import TimingEvaluator


class TSteiner:
    """Concurrent sign-off timing optimizer via Steiner point refinement.

    Example
    -------
    >>> optimizer = TSteiner(trained_model)
    >>> result = optimizer.optimize(netlist, forest)   # mutates forest
    >>> result.wns_improvement
    0.11...
    """

    def __init__(
        self,
        model: TimingEvaluator,
        config: Optional[RefinementConfig] = None,
        scenarios=None,
    ) -> None:
        self.model = model
        self.config = config or RefinementConfig()
        # MCMM: a repro.mcmm.ScenarioSet makes refinement acceptance and
        # hybrid validation scenario-merged (docs/MCMM.md).  None or a
        # one-element neutral set keeps the single-scenario path
        # bitwise-unchanged.
        self.scenarios = scenarios

    def optimize(
        self,
        netlist: Netlist,
        forest: SteinerForest,
        budget=None,
        checkpoint_path=None,
        resume: bool = False,
        graph=None,
        telemetry=None,
        *,
        _router_config=None,
        _route_memo=None,
    ) -> RefinementResult:
        """Refine ``forest`` in place; returns the refinement record.

        Runs a fast global-routing probe first to obtain the congestion
        field the evaluator consumes — the paper likewise extracts its
        features "from the Steiner tree construction stage in global
        routing" (its Table IV attributes the GR-time increase to this).

        ``graph`` optionally supplies a prebuilt
        :class:`~repro.timing_model.graph.TimingGraph` for this exact
        (netlist, forest) pair — callers that run many flows over the
        same design (the experiment suite) memoize it to skip the
        rebuild.  Its congestion field is refreshed from the probe so
        the evaluator still sees this run's routing pressure.

        ``budget``/``checkpoint_path``/``resume`` are forwarded to
        :func:`repro.core.refine.refine` (see docs/RESILIENCE.md), and
        ``telemetry`` likewise (docs/OBSERVABILITY.md; defaults to the
        process-global telemetry).

        ``_router_config`` and ``_route_memo`` are how
        :func:`repro.flow.pipeline.run_routing_flow` hands the probes
        its own router configuration and its per-flow
        :class:`~repro.groute.router.RouteMemo`; left unset, probes use
        the default configuration and a memo of this call alone.
        """
        tel = telemetry if telemetry is not None else get_telemetry()
        with tel.span("tsteiner.congestion_probe", design=netlist.name):
            congestion = self._congestion_probe(netlist, forest)
        if graph is not None:
            if graph.num_steiner != forest.num_steiner_points:
                raise ValueError(
                    f"prebuilt graph has {graph.num_steiner} Steiner points, "
                    f"forest has {forest.num_steiner_points}"
                )
            graph.congestion = congestion
        else:
            with tel.span("tsteiner.build_graph", design=netlist.name):
                graph = build_timing_graph(netlist, forest, congestion=congestion)
        with tel.span("tsteiner.refine", design=netlist.name) as sp:
            result = refine(
                self.model,
                graph,
                forest.get_steiner_coords(),
                config=self.config,
                clamp_fn=forest.clamp_coords,
                validator=self._make_validator(
                    netlist,
                    forest,
                    self.scenarios,
                    router_config=_router_config,
                    memo=_route_memo if _route_memo is not None else RouteMemo(tel),
                    telemetry=tel,
                ),
                budget=budget,
                checkpoint_path=checkpoint_path,
                resume=resume,
                telemetry=tel,
                scenarios=self.scenarios,
            )
            sp.annotate(
                iterations=result.iterations,
                accepted=result.accepted,
                best_wns=result.best_wns,
                best_tns=result.best_tns,
            )
        import numpy as np

        initial = forest.get_steiner_coords()
        if self.config.acceptance == "hybrid":
            # Hybrid coords are already validated-and-rounded anchors;
            # if no validated improvement was found the initial forest
            # is returned untouched (bit-identical to the baseline arm).
            if not np.array_equal(result.coords, initial):
                forest.set_steiner_coords(result.coords)
        else:
            forest.set_steiner_coords(result.coords)
            forest.round_coords()  # post-processing (Fig. 4)
        return result

    @staticmethod
    def _make_validator(
        netlist: Netlist,
        forest: SteinerForest,
        scenarios=None,
        router_config=None,
        memo=None,
        telemetry=None,
    ):
        """Sign-off-lite probe: full global route + STA at candidate coords.

        Used by the hybrid acceptance mode to anchor the evaluator's
        accepted trajectory to real timing.  The probe runs the
        production global router under ``router_config`` (default
        :class:`~repro.groute.router.RouterConfig`: pattern routes, maze
        escalation and both rip-up rounds), then layer assignment and
        coupling-aware STA — the same physics as the final routing pass
        when the flow's own config is passed.

        Given a :class:`~repro.groute.router.RouteMemo`, a probe whose
        segments keep the GCell endpoints of an earlier route —
        typically a re-probe of the refine anchor — replays that route
        bitwise instead of searching again.

        One probe forest and one incremental
        :class:`~repro.mcmm.sta.ScenarioSTA` are hoisted out of the
        closure: successive probes in a refinement run move a sparse
        subset of Steiner points, so the engine re-times only the
        affected cones instead of the whole design.  The STA finds the
        changed trees by diffing each probe's routed edge RC against
        its state, so a probe after a validated revert or a checkpoint
        resume needs no reset: only the first probe makes a full pass.

        The probe times every scenario of ``scenarios`` (default: the
        neutral ``typ@func`` set) and returns the *merged* (worst-WNS,
        summed-TNS) verdict, matching the merged acceptance rule inside
        :func:`refine`; for the neutral set that is the nominal WNS/TNS.

        Each probe books ``validate.route``, ``validate.layers`` and
        ``validate.sta`` spans on ``telemetry`` (default: the
        process-global telemetry), nested under refine's
        ``refine.validate``.
        """
        from repro.groute.layer_assign import assign_layers
        from repro.mcmm.sta import ScenarioSTA
        from repro.routegrid.grid import GCellGrid

        probe = forest.copy()
        sta = ScenarioSTA(netlist, probe, scenarios)

        def validator(coords):
            tel = telemetry if telemetry is not None else get_telemetry()
            probe.set_steiner_coords(probe.clamp_coords(coords))
            grid = GCellGrid(netlist.die_width, netlist.die_height, netlist.technology)
            with tel.span("validate.route"):
                rr = GlobalRouter(grid, router_config, memo=memo).route(probe)
            with tel.span("validate.layers"):
                assign_layers(rr, netlist.technology, grid.nx * grid.ny)
            with tel.span("validate.sta"):
                report = sta.run(route_result=rr, utilization=grid.utilization_map())
            return report.merged_wns, report.merged_tns

        return validator

    @staticmethod
    def _congestion_probe(netlist: Netlist, forest: SteinerForest):
        """One quick pattern-routing pass to estimate the congestion field.

        Runs the flat batched L-pattern estimator
        (:mod:`repro.groute.flat_route`) — a single-pass whole-design
        scoring instead of the sequential probe router, which dominated
        every ``optimize()`` call (des3: ~2.3 s -> ~10 ms).  The
        production router used for sign-off validation
        (:meth:`_make_validator`) is unchanged.
        """
        from repro.groute.flat_route import estimate_congestion

        return estimate_congestion(netlist, forest)
