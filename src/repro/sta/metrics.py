"""Timing metric helpers shared by STA, the GNN penalty and reporting."""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np


def timing_metrics(slacks: Iterable[float]) -> Tuple[float, float, int]:
    """(WNS, TNS, #violations) from endpoint slacks, Eq. (1)."""
    if not isinstance(slacks, np.ndarray):
        slacks = list(slacks)
    arr = np.asarray(slacks, dtype=np.float64)
    if arr.size == 0:
        return 0.0, 0.0, 0
    wns = float(arr.min())
    tns = float(np.minimum(arr, 0.0).sum())
    vios = int((arr < 0.0).sum())
    return wns, tns, vios


def improvement_ratio(baseline: float, optimized: float) -> float:
    """Paper-style ratio for negative metrics: optimized / baseline.

    Both WNS and TNS are negative on violating designs; a ratio below
    1.0 means the optimized flow is better (less negative).  Returns
    1.0 when the baseline is (near) zero to avoid division blowups.
    """
    if abs(baseline) < 1e-12:
        return 1.0
    return optimized / baseline
