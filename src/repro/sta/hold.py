"""Hold (min-delay) analysis.

Setup analysis (the engine's default) propagates *worst* arrivals and
checks them against the capture edge; hold analysis propagates *best*
(earliest) arrivals and checks that new data does not race through and
corrupt the same-cycle capture:

    hold_slack(e) = earliest_arrival(e) - (hold_time + uncertainty)

The paper optimizes setup WNS/TNS only, but a sign-off substitute that
cannot report hold would be incomplete — and the test suite uses hold
analysis as an independent cross-check of the PERT machinery (earliest
arrivals can never exceed latest ones).

Earliest arrivals come from the batched engine
(:class:`repro.mcmm.sta.ScenarioSTA`) over one neutral hold scenario;
this module applies the hold requirement.  The scalar per-net form is
the test oracle ``repro.testing.oracles.reference_hold_analysis``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.groute.router import GlobalRouteResult
from repro.pdk.corners import DEFAULT_HOLD_TIME, Corner
from repro.sta.engine import STAEngine
from repro.sta.metrics import timing_metrics
from repro.steiner.forest import SteinerForest


@dataclass
class HoldReport:
    """Earliest arrivals and hold slacks."""

    early_arrival: np.ndarray
    hold_slack: Dict[int, float]
    whs: float  # worst hold slack
    num_violations: int


def run_hold_analysis(
    engine: STAEngine,
    forest: SteinerForest,
    route_result: Optional[GlobalRouteResult] = None,
    utilization: Optional[np.ndarray] = None,
    hold_time: float = DEFAULT_HOLD_TIME,
) -> HoldReport:
    """Min-delay PERT traversal over the same timing graph."""
    # Imported here: repro.mcmm imports this package's engine.
    from repro.mcmm.scenario import Scenario, ScenarioSet, get_mode
    from repro.mcmm.sta import ScenarioSTA

    neutral_hold = Scenario(Corner("typ_hold", check="hold"), get_mode("func"))
    sta = ScenarioSTA(engine.netlist, forest, ScenarioSet([neutral_hold]), engine=engine)
    arrival = sta.update(route_result=route_result, utilization=utilization).arr_hold[0].copy()
    eps, svals = hold_slacks(
        arrival, engine.pert().hold_endpoints, engine.clock.launch_time(),
        hold_time + engine.clock.uncertainty,
    )
    whs, _, vios = timing_metrics(svals)
    return HoldReport(
        early_arrival=arrival,
        hold_slack=dict(zip(eps.tolist(), svals.tolist())),
        whs=whs,
        num_violations=vios,
    )


def hold_slacks(
    arrival: np.ndarray, endpoints: np.ndarray, launch: float, requirement: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Reached hold endpoints and their slacks
    ``arrival - launch - requirement`` (unreached ones carry no check)."""
    arr_ep = arrival[endpoints]
    ok = ~np.isnan(arr_ep)
    return endpoints[ok], arr_ep[ok] - launch - requirement
