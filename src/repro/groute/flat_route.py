"""Flat batched L-pattern routing — the whole-design congestion probe.

:class:`~repro.groute.router.GlobalRouter` is the production router:
sequential, negotiated, with Z-shape and maze escalation — every
segment sees the usage committed by the segments before it.  That
ordering dependency is what makes it slow (per-edge python) and what
the congestion *probe* never needed: the evaluator only wants a
congestion field estimate, and the refinement loop re-probes it every
accepted move.

This module scores **both L-shapes of every tree edge at once** against
the grid's current cost field — one ``(n_edges, 2)`` accumulation over
the run lengths instead of per-edge python — picks the cheaper shape
per edge, and commits all usage with two ``bincount`` scatters.  The
semantics are deliberately single-pass: every edge is costed against
the *incoming* usage state (no sequential commit feedback), which makes
the estimate order-free and batchable.  A per-edge implementation with
identical semantics in :mod:`repro.testing.oracles` is the parity
oracle; the two agree **bitwise** on shape choice, path cost,
committed usage, and overflow (tests/test_flat_steiner.py).

Shape convention, shared with the Steiner construction corner rule
(``steiner/rsmt.py::_corner_for``): shape 0 bends at ``(x2, y1)``,
shape 1 at ``(x1, y2)``; cost ties pick shape 0.  Cost of a shape is
accumulated horizontal-leg-first in increasing edge index, which both
kernels follow so their float sums are identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.routegrid.grid import GCellGrid
from repro.steiner.flat_forest import expand_ranges, flat_forest_of
from repro.steiner.forest import SteinerForest


@dataclass
class FlatRouteResult:
    """One-shot pattern-route estimate over all tree edges."""

    choice: np.ndarray  # (E,) 0 = bend at (x2, y1), 1 = bend at (x1, y2)
    cost: np.ndarray  # (E,) congestion cost of the chosen shape
    overflow: float  # grid overflow after committing all edges
    max_utilization: float

    @property
    def num_edges(self) -> int:
        return int(self.choice.shape[0])


def cost_fields(
    grid: GCellGrid, overflow_penalty: float = 8.0
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-edge congestion cost fields, elementwise bitwise-equal to
    :meth:`GCellGrid.edge_cost` over the whole grid."""

    def field(cap: np.ndarray, use: np.ndarray, hist: np.ndarray) -> np.ndarray:
        util = (use + 1.0) / np.maximum(cap, 1e-9)
        extra = np.where(
            util > 1.0,
            overflow_penalty * (util - 1.0) ** 2,
            np.where(util > 0.7, (util - 0.7) * 2.0, 0.0),
        )
        return (1.0 + hist) + extra

    return (
        field(grid.cap_h, grid.use_h, grid.hist_h),
        field(grid.cap_v, grid.use_v, grid.hist_v),
    )


def pattern_route_flat(
    grid: GCellGrid,
    forest: SteinerForest,
    overflow_penalty: float = 8.0,
    commit: bool = True,
) -> FlatRouteResult:
    """Score + commit the cheaper L-shape of every tree edge, batched."""
    flat = flat_forest_of(forest)
    xy = flat.node_positions(forest.coords)
    gx = np.clip(xy[:, 0] / grid.gcell, 0, grid.nx - 1).astype(np.int64)
    gy = np.clip(xy[:, 1] / grid.gcell, 0, grid.ny - 1).astype(np.int64)
    eu, ev = flat.forest_edge_u, flat.forest_edge_v
    x1, y1 = gx[eu], gy[eu]
    x2, y2 = gx[ev], gy[ev]
    n_edges = x1.shape[0]

    h_lo = np.minimum(x1, x2)
    h_len = np.abs(x1 - x2)
    v_lo = np.minimum(y1, y2)
    v_len = np.abs(y1 - y2)
    # Shape 0 bends at (x2, y1): H leg on row y1, V leg on column x2.
    # Shape 1 bends at (x1, y2): H leg on row y2, V leg on column x1.
    row0, row1 = y1, y2
    col0, col1 = x2, x1

    cost_h, cost_v = cost_fields(grid, overflow_penalty)
    acc0 = np.zeros(n_edges, dtype=np.float64)
    acc1 = np.zeros(n_edges, dtype=np.float64)
    # Sequential accumulation over the run length (vector over edges,
    # scalar over steps) so sums match the per-edge reference bitwise —
    # a reduceat/cumsum would pairwise-sum and drift by ulps.
    h_max_i = cost_h.shape[0] - 1
    for k in range(int(h_len.max()) if n_edges else 0):
        live = h_len > k
        i = np.minimum(h_lo + k, h_max_i)
        acc0 += np.where(live, cost_h[i, row0], 0.0)
        acc1 += np.where(live, cost_h[i, row1], 0.0)
    v_max_j = cost_v.shape[1] - 1
    for k in range(int(v_len.max()) if n_edges else 0):
        live = v_len > k
        j = np.minimum(v_lo + k, v_max_j)
        acc0 += np.where(live, cost_v[col0, j], 0.0)
        acc1 += np.where(live, cost_v[col1, j], 0.0)

    choice = np.where(acc0 <= acc1, 0, 1).astype(np.int64)
    cost = np.where(choice == 0, acc0, acc1)

    if commit and n_edges:
        h_row = np.where(choice == 0, row0, row1)
        v_col = np.where(choice == 0, col0, col1)
        h_cols = expand_ranges(h_lo, h_lo + h_len)
        if h_cols.size:
            lin = h_cols * grid.ny + np.repeat(h_row, h_len)
            grid.use_h += np.bincount(lin, minlength=cost_h.size).reshape(
                cost_h.shape
            )
        v_rows = expand_ranges(v_lo, v_lo + v_len)
        if v_rows.size:
            lin = np.repeat(v_col, v_len) * cost_v.shape[1] + v_rows
            grid.use_v += np.bincount(lin, minlength=cost_v.size).reshape(
                cost_v.shape
            )

    return FlatRouteResult(
        choice=choice,
        cost=cost,
        overflow=grid.overflow(),
        max_utilization=grid.max_utilization(),
    )


def estimate_congestion(netlist, forest: SteinerForest) -> np.ndarray:
    """Congestion field estimate for the timing evaluator.

    Replaces the sequential pattern+maze probe on the hot path: builds
    a fresh grid, one-shot routes every edge, returns the utilization
    map.
    """
    from repro.obs import get_telemetry

    tel = get_telemetry()
    grid = GCellGrid(netlist.die_width, netlist.die_height, netlist.technology)
    with tel.span("groute.flat_estimate", design=netlist.name):
        pattern_route_flat(grid, forest)
    return grid.utilization_map()


__all__ = [
    "FlatRouteResult",
    "cost_fields",
    "pattern_route_flat",
    "estimate_congestion",
]
