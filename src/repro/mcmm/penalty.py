"""Scenario-merged refinement penalty (worst-over-scenarios LSE).

Refinement under MCMM must descend a *merged* objective so gradients
flow from every violating corner, not just the nominal one.  This
module composes the paper's Eq. (5)-(6) smoothed penalty per scenario
and merges with a second Log-Sum-Exp:

    P_merged = LSE_gamma_m( P_s : s active )  ~=  max_s P_s

Each scenario's endpoint slack is built from the evaluator's predicted
*nominal* arrivals through a first-order derate surrogate:

    arr_s   = launch + delay_scale_s * (arr - launch)
    setup:   slack_s = required_s - arr_s
    hold:    slack_s = delay_scale_s * (arr - launch) - hold_req_s

The surrogate is deliberately cheap — one scalar per corner
(``Corner.delay_scale``) — because the *verdict* never relies on it:
accept/revert uses exact hard metrics over **all** scenarios, and in
hybrid mode the validator re-times candidates with the exact batched
`ScenarioSTA`.  Dominance pruning (repro.mcmm.prune) may drop scenarios
from the merged *gradient*, never from the hard metrics.

Refinement replays this merge on the compiled tape
(``repro.timing_model.compiled``), one tape per active mask, so the
merge is built only from ops the tape compiler knows (``concat``
feeds the LSE).  The neutral single-scenario case never reaches this
module: `refine()` keeps it on the plain Eq. (6) objective, bitwise
untouched (tests/test_mcmm.py pins this down).
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from repro.autodiff import functional as F
from repro.autodiff.tensor import Tensor
from repro.core.penalty import PenaltyConfig, smoothed_from_slack
from repro.mcmm.scenario import ScenarioSet
from repro.pdk.corners import DEFAULT_HOLD_TIME
from repro.timing_model.graph import TimingGraph


class _ScenarioSpec:
    """Precomputed per-scenario finalize data over the graph endpoints."""

    __slots__ = (
        "name", "check", "launch", "delay_scale", "ep_idx", "required", "hold_req",
    )

    def __init__(self, name, check, launch, delay_scale, ep_idx, required, hold_req):
        self.name = name
        self.check = check
        self.launch = launch
        self.delay_scale = delay_scale
        self.ep_idx = ep_idx  # endpoint pin indices this scenario checks
        self.required = required  # (len(ep_idx),) setup required times
        self.hold_req = hold_req  # scalar hold requirement (hold only)


class ScenarioPenalty:
    """Merged smoothed penalty + exact per-scenario hard metrics."""

    def __init__(
        self,
        graph: TimingGraph,
        scenarios: ScenarioSet,
        mcmm_gamma: float = 10.0,
    ) -> None:
        self.scenarios = scenarios
        self.mcmm_gamma = float(mcmm_gamma)
        netlist = graph.netlist
        base_clock = netlist.clock

        # Graph endpoint order: register data pins then primary outputs
        # (repro.timing_model.graph).  Collect per-endpoint setup times
        # and the register/PO split once.
        eps: List[int] = []
        setup_times: List[float] = []
        is_reg: List[bool] = []
        for cell in netlist.registers():
            ct = cell.cell_type
            for in_name in ct.input_pins:
                if in_name != ct.clock_pin:
                    eps.append(cell.pin_indices[in_name])
                    setup_times.append(ct.setup_time)
                    is_reg.append(True)
        for port in netlist.primary_outputs():
            eps.append(port.index)
            setup_times.append(0.0)
            is_reg.append(False)
        eps_arr = np.array(eps, dtype=np.int64)
        st_arr = np.array(setup_times, dtype=np.float64)
        reg_mask = np.array(is_reg, dtype=bool)

        self.specs: List[_ScenarioSpec] = []
        for sc in scenarios:
            clock = sc.clock(base_clock)
            launch = clock.launch_time()
            enabled = np.ones(eps_arr.size, dtype=bool)
            if sc.mode.disabled_endpoints:
                disabled = np.array(sc.mode.disabled_endpoints, dtype=np.int64)
                enabled &= ~np.isin(eps_arr, disabled)
            if sc.check == "setup":
                req = np.where(
                    reg_mask,
                    clock.period + clock.latency
                    - (st_arr + sc.corner.setup_margin) - clock.uncertainty,
                    clock.period - clock.output_delay - clock.uncertainty,
                )
                self.specs.append(_ScenarioSpec(
                    name=sc.name, check="setup", launch=launch,
                    delay_scale=sc.corner.delay_scale,
                    ep_idx=eps_arr[enabled], required=req[enabled],
                    hold_req=0.0,
                ))
            else:
                en = enabled & reg_mask
                self.specs.append(_ScenarioSpec(
                    name=sc.name, check="hold", launch=launch,
                    delay_scale=sc.corner.delay_scale,
                    ep_idx=eps_arr[en], required=None,
                    hold_req=DEFAULT_HOLD_TIME + sc.corner.hold_margin
                    + clock.uncertainty,
                ))

    # ------------------------------------------------------------------
    def _slack_tensor(self, arrival: Tensor, spec: _ScenarioSpec) -> Tensor:
        arr = arrival[spec.ep_idx]
        shifted = (arr - spec.launch) * spec.delay_scale
        if spec.check == "setup":
            return Tensor(spec.required) - (shifted + spec.launch)
        return shifted - spec.hold_req

    @staticmethod
    def _zero_slack_baseline(n_endpoints: int, config: PenaltyConfig) -> float:
        """Eq. (5)-(6) penalty of an all-zero-slack endpoint vector.

        The smoothed WNS carries a ``-gamma * log(n)`` offset and the
        smoothed TNS a ``-gamma * log(2) * n`` one, so raw per-scenario
        penalties are dominated by endpoint *count*, not criticality:
        merged naively, a clean scenario with many endpoints outweighs
        a violating one with few and the LSE gradient descends the
        wrong corner.  Subtracting this constant calibrates every
        scenario to "how bad relative to timing-clean" before merging.
        """
        wns0 = -config.gamma * math.log(n_endpoints)
        tns0 = -config.gamma * math.log(2.0) * n_endpoints
        return config.lambda_wns * wns0 + config.lambda_tns * tns0

    def merged_penalty(
        self,
        arrival: Tensor,
        config: PenaltyConfig,
        active: Optional[np.ndarray] = None,
    ) -> Tensor:
        """LSE-merged differentiable penalty over the active scenarios.

        Each scenario's Eq. (6) penalty is calibrated by its zero-slack
        baseline (see :meth:`_zero_slack_baseline`) so the merge weighs
        violations, not endpoint counts.  ``active`` is the dominance
        pruner's mask; ``None`` means all.  At least one scenario must
        be active (the pruner guarantees the current worst always is).
        """
        terms: List[Tensor] = []
        for s, spec in enumerate(self.specs):
            if active is not None and not active[s]:
                continue
            if spec.ep_idx.size == 0:
                continue
            p, _, _ = smoothed_from_slack(self._slack_tensor(arrival, spec), config)
            terms.append(p - self._zero_slack_baseline(spec.ep_idx.size, config))
        if not terms:
            raise ValueError("no active scenario with endpoints to penalize")
        if len(terms) == 1:
            return terms[0]
        return F.logsumexp(
            F.concatenate([t.reshape(1) for t in terms]), gamma=self.mcmm_gamma
        )

    # ------------------------------------------------------------------
    def hard_all(
        self, arrival: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, float, float]:
        """Exact surrogate metrics over **all** scenarios.

        Returns ``(per_wns, per_tns, merged_wns, merged_tns)`` where the
        merged WNS is the worst over scenarios and the merged TNS the
        sum — pruning never narrows this verdict.
        """
        arrival = np.asarray(arrival)
        per_wns = np.zeros(len(self.specs))
        per_tns = np.zeros(len(self.specs))
        for s, spec in enumerate(self.specs):
            if spec.ep_idx.size == 0:
                continue
            shifted = (arrival[spec.ep_idx] - spec.launch) * spec.delay_scale
            if spec.check == "setup":
                slack = spec.required - (shifted + spec.launch)
            else:
                slack = shifted - spec.hold_req
            per_wns[s] = float(slack.min())
            per_tns[s] = float(np.minimum(slack, 0.0).sum())
        return per_wns, per_tns, float(per_wns.min()), float(per_tns.sum())


__all__ = ["ScenarioPenalty"]
