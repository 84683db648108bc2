"""Timing-aware layer assignment.

Assigns each routed segment's horizontal wire to one of the H layers
and its vertical wire to one of the V layers.  The policy mirrors
timing-driven layer assignment (CATALYST / TILA-style intuition at
global-routing granularity):

* long segments are promoted to upper (low-resistance) layers, because
  wire RC delay grows quadratically with length on a resistive layer;
* per-layer capacity is respected per GCell *approximately*: a running
  per-layer usage counter demotes segments when an upper layer fills.

Via counts: one via per bend, plus the via stack from the pin layer
(met1) up to the assigned layer at both ends.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.groute.router import GlobalRouteResult
from repro.pdk.technology import Technology


def assign_layers(
    result: GlobalRouteResult,
    technology: Technology,
    grid_area_gcells: int,
    promote_quantiles: Tuple[float, float] = (0.55, 0.85),
) -> None:
    """Fill the ``h_layer``/``v_layer``/``vias`` columns of ``result``.

    ``grid_area_gcells`` scales the per-layer capacity budget; the
    promotion thresholds are length quantiles computed over this
    design's segments, so every design uses its full stack.

    Segments are assigned longest first (a stable sort, so ties keep
    routing order), the H wire then the V wire of each.  A wire at or
    above the high quantile takes the top tier while that tier's usage
    counter is under budget, else a wire at or above the mid quantile
    takes the middle tier while its counter is; each grant adds the
    wire's length in GCells to its counter.  Counters only grow, so the
    grants of a tier are a prefix of its candidates, found from the
    running sum (``np.cumsum`` adds left to right, exactly as the
    sequential counter; tests/test_router_parity.py holds it to the
    per-segment loop in ``repro.testing.oracles``).
    """
    h_layers = [l.index for l in technology.horizontal_layers()]
    v_layers = [l.index for l in technology.vertical_layers()]
    if not h_layers or not v_layers:
        raise ValueError("technology must have both H and V layers")

    lengths = result.length
    if lengths.size == 0:
        return
    q_mid, q_high = np.quantile(lengths, promote_quantiles[0]), np.quantile(
        lengths, promote_quantiles[1]
    )
    # Rough per-tier budget: upper layers hold fewer, longer wires.
    budget_mid = grid_area_gcells * 4.0
    budget_high = grid_area_gcells * 1.5

    order = np.argsort(-lengths, kind="stable")
    # One pick per wire in loop order: (segment, H) then (segment, V).
    wire_len = np.repeat(lengths[order], 2)
    wire_cells = wire_len / max(technology.gcell_size, 1e-9)
    n_layers = np.tile([len(h_layers), len(v_layers)], order.size)
    high = (wire_len >= q_high) & (n_layers >= 3)
    high[high] = _granted(wire_cells[high], budget_high)
    mid = ~high & (wire_len >= q_mid) & (n_layers > 1)
    mid[mid] = _granted(wire_cells[mid], budget_mid)
    tier = np.minimum(np.where(high, 2, np.where(mid, 1, 0)), n_layers - 1)
    tier = tier.reshape(-1, 2)

    h_layer = np.empty(order.size, dtype=np.int64)
    v_layer = np.empty(order.size, dtype=np.int64)
    h_layer[order] = np.asarray(h_layers, dtype=np.int64)[tier[:, 0]]
    v_layer[order] = np.asarray(v_layers, dtype=np.int64)[tier[:, 1]]
    # Vias: bends switch H/V layer; each end with wire drops to met1
    # (index 0) through an access stack.
    bend_vias = result.bends * np.maximum(np.abs(h_layer - v_layer), 1)
    access = np.where(result.h_length > 0, h_layer, 0) + np.where(
        result.v_length > 0, v_layer, 0
    )
    result.h_layer, result.v_layer = h_layer, v_layer
    result.vias = bend_vias + access


def _granted(cells: np.ndarray, budget: float) -> np.ndarray:
    """Which of a tier's candidate wires, in order, find its usage
    counter under ``budget``: the counter before wire ``k`` is the
    running sum of ``cells[:k]``."""
    before = np.zeros(cells.size, dtype=np.float64)
    np.cumsum(cells[:-1], out=before[1:])
    return before < budget
