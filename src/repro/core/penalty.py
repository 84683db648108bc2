"""Smoothed sign-off timing penalty (Eq. (4)-(6) of the paper).

WNS and TNS contain min/max operations whose subgradients concentrate
on a single endpoint, cutting every other timing path out of the
optimization.  The paper replaces them with Log-Sum-Exp smoothing so
*all* paths receive gradient weight proportional to their criticality:

* ``WNS = min_e s_e = -max_e(-s_e)`` is smoothed as
  ``-LSE_gamma(-s)`` (Eq. (5));
* each TNS term ``min(0, s_e) = -max(0, -s_e)`` is smoothed as
  ``-gamma * log(1 + exp(-s_e / gamma))`` (the LSE of ``{0, -s_e}``).

The penalty ``P = lambda_w * WNS_g + lambda_t * TNS_g`` (Eq. (6)) uses
*negative* lambdas (paper Section IV-A: -200 and -2): slacks are
negative on violating designs, so descending P raises them toward 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.autodiff import functional as F
from repro.autodiff.tensor import Tensor


@dataclass
class PenaltyConfig:
    """Penalty weights and smoothing temperature (paper defaults)."""

    lambda_wns: float = -200.0
    lambda_tns: float = -2.0
    gamma: float = 10.0

    def escalated(self, factor: float) -> "PenaltyConfig":
        """Scaled-lambda copy (the +1 %/iteration escalation scheme)."""
        return PenaltyConfig(
            lambda_wns=self.lambda_wns * factor,
            lambda_tns=self.lambda_tns * factor,
            gamma=self.gamma,
        )


def smoothed_from_slack(
    slack: Tensor, config: PenaltyConfig
) -> Tuple[Tensor, Tensor, Tensor]:
    """(P_gamma, WNS_gamma, TNS_gamma) from an endpoint-slack tensor.

    Shared by the single-scenario penalty below and the scenario-merged
    MCMM penalty (repro.mcmm.penalty), which builds one slack tensor per
    scenario and composes the per-scenario P_gamma terms.
    """
    neg_slack = -slack
    wns_smooth = -F.logsumexp(neg_slack, gamma=config.gamma)
    # max(0, -s) smoothed: gamma * log(1 + exp(-s/gamma)) == softplus
    # with beta = 1/gamma evaluated at -s.
    tns_smooth = -(F.softplus(neg_slack, beta=1.0 / config.gamma)).sum()
    penalty = wns_smooth * config.lambda_wns + tns_smooth * config.lambda_tns
    return penalty, wns_smooth, tns_smooth


def smoothed_penalty(
    arrival: Tensor,
    endpoints: np.ndarray,
    required: np.ndarray,
    config: PenaltyConfig,
) -> Tuple[Tensor, Tensor, Tensor]:
    """(P_gamma, WNS_gamma, TNS_gamma) — all differentiable scalars."""
    slack = Tensor(required) - arrival[np.asarray(endpoints, dtype=np.int64)]
    return smoothed_from_slack(slack, config)


def refinement_penalty(
    arrival: Tensor, graph, config: PenaltyConfig, merge=None, active=None
) -> Tensor:
    """The objective ``refine()`` descends, as a differentiable scalar.

    The Eq. (6) penalty over ``graph``'s endpoints, or with ``merge`` (a
    ``repro.mcmm.ScenarioPenalty``) the LSE merge of the per-scenario
    penalties over the scenarios ``active`` selects.  The compiled tape
    traces it and the closure reference
    (``repro.testing.parity.ClosureObjective``) runs it, so both descend
    one objective.
    """
    if merge is None:
        return smoothed_penalty(arrival, graph.endpoints, graph.required, config)[0]
    return merge.merged_penalty(arrival, config, active=active)


def hard_metrics(
    arrival: np.ndarray, endpoints: np.ndarray, required: np.ndarray
) -> Tuple[float, float, int]:
    """Exact (WNS, TNS, #violations) from a numpy arrival vector."""
    slack = np.asarray(required) - np.asarray(arrival)[np.asarray(endpoints, dtype=np.int64)]
    wns = float(slack.min()) if slack.size else 0.0
    tns = float(np.minimum(slack, 0.0).sum())
    vios = int((slack < 0.0).sum())
    return wns, tns, vios
