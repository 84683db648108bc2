"""Per-design warm state pinned by the serving workers.

The whole point of a long-lived service over the batch reproduction is
that the expensive per-design artifacts stay hot between queries:

* the prepared design (placed netlist + Steiner forest),
* the STA engine and the forest's one flat topology memo,
* one :class:`~repro.mcmm.sta.ScenarioSTA` per corner set, each with
  its dirty-tree state (a what-if move re-times only the affected
  cones); the neutral ``(typ, func)`` engine is shared by what-if
  probes, neutral sign-off and the
  :class:`~repro.sta.incremental.IncrementalSTA` view,
* the :class:`~repro.timing_model.graph.TimingGraph` + compiled tapes
  the refine jobs consume,
* the trained evaluator, shared across designs and swappable by a
  ``train`` job.

:class:`DesignWorkspace` owns all of that for one design;
:class:`WarmStateCache` memoizes workspaces by name.  The workspace
also keeps the **last-known sign-off report** — the graceful-degradation
path answers overloaded ``signoff`` queries from it, flagged
``stale=True``, instead of shedding them (docs/SERVING.md).
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Optional, Tuple

from repro.obs import get_telemetry


class DesignWorkspace:
    """Warm timing state for one design; built lazily, queried often."""

    def __init__(self, name: str, scale: float = 1.0) -> None:
        self.name = name
        self.scale = float(scale)
        self.netlist = None
        self.forest = None
        self.engine = None
        self._inc = None
        self._probe_sta = None
        self._scenario_stas: Dict[Tuple[str, ...], Any] = {}
        self._graph = None
        self._congestion = None
        #: Last completed sign-off summary (the stale-answer source).
        self.last_signoff: Optional[Dict[str, Any]] = None
        self.signoff_queries = 0

    # ------------------------------------------------------------------
    def ensure_loaded(self) -> "DesignWorkspace":
        """Prepare the design once (deterministic geometry)."""
        if self.netlist is None:
            from repro.flow.pipeline import prepare_design
            from repro.sta.engine import STAEngine

            tel = get_telemetry()
            with tel.span("serve.warm_design", design=self.name):
                self.netlist, self.forest = prepare_design(self.name, scale=self.scale)
                self.engine = STAEngine(self.netlist)
            if tel.enabled:
                tel.count("serve.designs_warmed")
        return self

    def incremental(self):
        """The neutral engine in the single-scenario report format: an
        :class:`~repro.sta.incremental.IncrementalSTA` over
        :meth:`probe_sta`, sharing its timing state."""
        if self._inc is None:
            from repro.sta.incremental import IncrementalSTA

            self._inc = IncrementalSTA.over(self.probe_sta())
        return self._inc

    def probe_sta(self):
        """The shared neutral :class:`~repro.mcmm.sta.ScenarioSTA`.

        What-if probes go through its ``probe_batch``, which times K
        candidate moves in one batched PERT pass.  Serial and fused
        ``whatif`` handlers both query through this object (K=1 vs
        K=W), which is what makes fused answers bitwise-equal to
        unbatched execution (docs/SERVING.md).  Neutral sign-off and
        :meth:`incremental` read the same state.
        """
        if self._probe_sta is None:
            from repro.mcmm.scenario import ScenarioSet
            from repro.mcmm.sta import ScenarioSTA

            self.ensure_loaded()
            self._probe_sta = ScenarioSTA(
                self.netlist, self.forest, ScenarioSet.default(), engine=self.engine
            )
        return self._probe_sta

    def scenario_sta(self, corners: Tuple[str, ...] = ("typ",), mode: str = "func"):
        """The pinned ScenarioSTA for one corner set (docs/MCMM.md);
        ``(typ, func)`` is the shared neutral engine of :meth:`probe_sta`.
        Unknown corner or mode names raise ``KeyError``."""
        key = tuple(corners) + ("@", mode)
        if key == ("typ", "@", "func"):
            return self.probe_sta()
        sta = self._scenario_stas.get(key)
        if sta is None:
            from repro.mcmm.scenario import ScenarioSet
            from repro.mcmm.sta import ScenarioSTA

            self.ensure_loaded()
            scenarios = ScenarioSet.from_names(tuple(corners), modes=(mode,))
            sta = ScenarioSTA(self.netlist, self.forest, scenarios, engine=self.engine)
            self._scenario_stas[key] = sta
        return sta

    def timing_graph(self):
        """The memoized TimingGraph (congestion probed once, reused)."""
        if self._graph is None:
            from repro.core.tsteiner import TSteiner
            from repro.timing_model.graph import build_timing_graph

            self.ensure_loaded()
            tel = get_telemetry()
            with tel.span("serve.build_graph", design=self.name):
                self._congestion = TSteiner._congestion_probe(self.netlist, self.forest)
                self._graph = build_timing_graph(
                    self.netlist, self.forest, congestion=self._congestion
                )
        return self._graph

    # ------------------------------------------------------------------
    def invalidate(self, engine=None, probe_sta=None) -> None:
        """Drop the timing state after a committed netlist edit.

        An ECO mutated cells/pins/nets: the pinned STA objects, timing
        graph and congestion map are *discarded* — the engines captured
        arcs, pin caps and endpoint order at construction — and the STA
        engine is rebuilt against the mutated netlist.  The forest's
        flat memo (``flat_forest_of``) carries no pin caps and validates
        itself against the current trees, so it is kept.  Every
        invalidation is counted and traced.  A committed coordinate
        change (``refine``) needs no call: every ScenarioSTA diffs the
        forest against its state on the next query.

        Given an ``engine`` already bound to the mutated netlist (the
        one a completed ECO run ended with), the workspace adopts it
        instead, reusing its levelization.  Given also that run's
        neutral ``probe_sta`` (a :class:`~repro.mcmm.sta.ScenarioSTA`
        over ``engine``, timed at the committed state), it is kept as
        :meth:`probe_sta`, so the first read after the commit re-times
        incrementally instead of making a full pass.
        """
        tel = get_telemetry()
        if tel.enabled:
            tel.count("serve.invalidations")
            tel.event("workspace_invalidated", design=self.name, reason="eco")
        self._inc = None
        self._probe_sta = probe_sta
        self._scenario_stas = {}
        self._graph = None
        self._congestion = None
        if engine is not None:
            self.engine = engine
            return
        if self.netlist is not None:
            from repro.sta.engine import STAEngine

            self.engine = STAEngine(self.netlist)

    def record_signoff(self, summary: Dict[str, Any]) -> None:
        """Remember the last good sign-off answer for degraded serving."""
        self.last_signoff = dict(summary)

    def stale_answer(self) -> Optional[Dict[str, Any]]:
        """Copy of the last-known report, marked stale; None if cold."""
        if self.last_signoff is None:
            return None
        answer = dict(self.last_signoff)
        answer["stale"] = True
        return answer


class WarmStateCache:
    """The service's workspace cache plus the shared evaluator.

    Every job of a :class:`~repro.serve.service.SignoffService` runs in
    the event loop's process and reads and commits this one object, so
    a committed ``refine`` is what the next ``signoff`` query times and
    a ``train`` job's model is what the next ``refine`` differentiates.
    The lock keeps workspace construction and the evaluator swap safe
    for a caller that shares the cache across threads.
    """

    def __init__(self, scale: float = 1.0) -> None:
        self.scale = float(scale)
        self._lock = threading.Lock()
        self._workspaces: Dict[str, DesignWorkspace] = {}
        self._evaluator = None

    def workspace(self, name: str) -> DesignWorkspace:
        with self._lock:
            ws = self._workspaces.get(name)
            if ws is None:
                ws = self._workspaces[name] = DesignWorkspace(name, scale=self.scale)
        return ws.ensure_loaded()

    def peek(self, name: str) -> Optional[DesignWorkspace]:
        """Existing workspace or None — never triggers a design build.

        The degraded-serving path uses this: a saturated queue must not
        pay for warming a cold design just to discover there is no
        stale answer to give.
        """
        with self._lock:
            return self._workspaces.get(name)

    # ------------------------------------------------------------------
    def evaluator(self):
        """The shared evaluator; deterministic fresh weights until a
        ``train`` job installs better ones."""
        with self._lock:
            if self._evaluator is None:
                from repro.timing_model.model import EvaluatorConfig, TimingEvaluator

                self._evaluator = TimingEvaluator(EvaluatorConfig(hidden=16))
            return self._evaluator

    def set_evaluator(self, model) -> None:
        with self._lock:
            self._evaluator = model


__all__ = ["DesignWorkspace", "WarmStateCache"]
