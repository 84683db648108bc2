"""Incremental sign-off STA in the single-scenario report format.

Algorithm 1's inner loop asks for WNS/TNS after every candidate Steiner
move, but an accepted step usually perturbs a small subset of trees.
`IncrementalSTA` keeps one neutral :class:`repro.mcmm.sta.ScenarioSTA`
(``typ@func``, S=1) alive across queries: dirty trees are found by
exact coordinate or per-edge RC comparison, only their flat rows are
re-Elmored, and a levelized frontier re-times the pins whose inputs
changed bitwise.  ``STAEngine.run`` is the same query on a fresh
``ScenarioSTA``, and both take their
:class:`~repro.sta.engine.TimingReport` from the one setup finalizer,
``ScenarioSTA.timing_report``; so every incremental report is
bit-identical to a full run.  This class adds only the report format
and the adapter over a shared engine (:meth:`IncrementalSTA.over`).

Safety: if anything raises mid-update (including a budget timeout from
the resilience runtime), the cached state is dropped before the
exception propagates (docs/RESILIENCE.md).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.groute.router import GlobalRouteResult
from repro.netlist.netlist import Netlist
from repro.sta.engine import STAEngine, TimingReport
from repro.steiner.forest import SteinerForest


class IncrementalSTA:
    """STA query object bound to one (netlist, forest-topology) pair.

    Reads Steiner coordinates from ``forest`` at each :meth:`run` —
    callers move points (``forest.set_steiner_coords``) and re-query.
    The forest's tree *topology* must stay fixed between queries; a
    topology edit changes the flat fingerprint and triggers a full
    rebuild automatically.
    """

    def __init__(
        self,
        netlist: Netlist,
        forest: SteinerForest,
        engine: Optional[STAEngine] = None,
    ) -> None:
        # Imported here: repro.mcmm imports this package's engine.
        from repro.mcmm.scenario import ScenarioSet
        from repro.mcmm.sta import ScenarioSTA

        self.sta = ScenarioSTA(netlist, forest, ScenarioSet.default(), engine=engine)

    @classmethod
    def over(cls, sta) -> "IncrementalSTA":
        """An adapter sharing an existing neutral ``ScenarioSTA``'s state."""
        if not sta.scenarios.is_single_neutral():
            raise ValueError(f"IncrementalSTA needs the neutral scenario, got {sta.scenarios}")
        inc = cls.__new__(cls)
        inc.sta = sta
        return inc

    # Query statistics and state live on the shared engine.
    num_queries = property(lambda self: self.sta.num_queries)
    num_full = property(lambda self: self.sta.num_full)
    last_dirty_trees = property(lambda self: self.sta.last_dirty_trees)
    _state = property(lambda self: self.sta._state)

    # ------------------------------------------------------------------
    def invalidate(self) -> None:
        """Drop all cached state; the next query runs a full pass.

        Call after any event that may desynchronize the cache from the
        forest — checkpoint resume, validated revert, topology edits.
        """
        self.sta.invalidate()

    def run(
        self,
        route_result: Optional[GlobalRouteResult] = None,
        utilization: Optional[np.ndarray] = None,
    ) -> TimingReport:
        """Timing under the forest's current Steiner coordinates."""
        self.sta.update(route_result=route_result, utilization=utilization)
        return self.sta.timing_report()


__all__ = ["IncrementalSTA"]
