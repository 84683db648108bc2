"""Batched wire-timing kernels over the flat forest.

This module is the production wire-timing path.  It reads the forest's
one cap-free flattening (:class:`repro.steiner.flat_forest.FlatForest`,
memoized per topology) plus a per-engine pin-cap gather
(:class:`FlatCaps`), and evaluates Elmore delay for *all* nets with a
handful of numpy scans (the per-net oracle that walks one Python BFS
per net is `repro.testing.oracles.compute_net_timing`):

* downstream (subtree) capacitance — one ``np.add.at`` scatter per BFS
  depth, deepest level first;
* Elmore delay — one gather/multiply/add per BFS depth, shallowest
  level first.

Everything here is geometry-only; NLDM cell lookup lives in
`repro.sta.engine`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.groute.router import GlobalRouteResult
from repro.pdk.technology import Technology
from repro.steiner.flat_forest import FlatForest

LN9 = math.log(9.0)


@dataclass
class FlatCaps:
    """One STA engine's pin caps gathered onto a flat forest's nodes."""

    node_base_cap: np.ndarray  # (N,) sink pin cap at sink nodes, else 0
    lumped_cap: np.ndarray  # (T,) plain sum of sink pin caps (edgeless case)


@dataclass
class ElmoreState:
    """Elmore arrays of one pass; a subset update writes and reads only
    its trees' rows, so one zeroed state serves as scratch for any."""

    node_cap: np.ndarray  # (N,)
    subtree_cap: np.ndarray  # (N,)
    delay: np.ndarray  # (N,) driver-to-node Elmore delay
    total_cap: np.ndarray  # (T,) cap seen by each driver
    sink_delay: np.ndarray  # (K,)
    sink_slew_deg: np.ndarray  # (K,) additive PERI slew term (ns^2)

    @classmethod
    def zeros(cls, flat: FlatForest) -> "ElmoreState":
        return cls(
            node_cap=np.zeros(flat.n_nodes),
            subtree_cap=np.zeros(flat.n_nodes),
            delay=np.zeros(flat.n_nodes),
            total_cap=np.zeros(flat.n_trees),
            sink_delay=np.zeros(flat.sink_rows.size),
            sink_slew_deg=np.zeros(flat.sink_rows.size),
        )


def _segment_sums(values: np.ndarray, offset: np.ndarray) -> np.ndarray:
    """``values[offset[t]:offset[t+1]].sum()`` per segment, bitwise.

    numpy sums fewer than 8 values left to right from 0.0 and switches
    to pairwise blocks at 8, so short segments are summed column by
    column over a zero-padded ``(T, 7)`` matrix (``x + 0.0`` is exact)
    and only the few long ones call ``sum()`` themselves.
    """
    counts = np.diff(offset)
    out = np.zeros(counts.size, dtype=np.float64)
    short = counts < 8
    rows = np.flatnonzero(short)
    width = int(counts[rows].max()) if rows.size else 0
    if width:
        pad = np.zeros((counts.size, width), dtype=np.float64)
        seg = np.repeat(np.arange(counts.size), counts)
        col = np.arange(values.size) - offset[seg]
        keep = short[seg]
        pad[seg[keep], col[keep]] = values[keep]
        for k in range(width):
            out += pad[:, k]
    for t in np.flatnonzero(~short):
        out[t] = values[offset[t] : offset[t + 1]].sum()
    return out


def flat_caps(flat: FlatForest, pin_cap: np.ndarray) -> FlatCaps:
    """Gather an engine's ``LevelizedPins.pin_cap`` onto ``flat``'s
    sink nodes (once per engine and topology; the loop form is
    ``repro.testing.oracles.reference_flat_forest``)."""
    caps = pin_cap[flat.sink_pin]
    node_base_cap = np.zeros(flat.n_nodes, dtype=np.float64)
    node_base_cap[flat.sink_rows] = caps
    return FlatCaps(
        node_base_cap=node_base_cap, lumped_cap=_segment_sums(caps, flat.sink_offset)
    )


def update_caps(flat: FlatForest, pin_cap: np.ndarray, caps: FlatCaps, trees: np.ndarray) -> None:
    """Re-gather ``trees``' rows of ``caps`` from ``pin_cap``: bitwise
    the rows :func:`flat_caps` writes (each tree's lumped cap is its
    own segment sum)."""
    sinks = flat.sink_rows_of_trees(trees)
    c = pin_cap[flat.sink_pin[sinks]]
    caps.node_base_cap[flat.node_rows_of_trees(trees)] = 0.0
    caps.node_base_cap[flat.sink_rows[sinks]] = c
    counts = flat.sink_offset[trees + 1] - flat.sink_offset[trees]
    offset = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=offset[1:])
    caps.lumped_cap[trees] = _segment_sums(c, offset)


# ----------------------------------------------------------------------
# Geometry / RC extraction
# ----------------------------------------------------------------------
def preroute_edge_rc(
    flat: FlatForest,
    technology: Technology,
    xy: np.ndarray,
    default_h_layer: int = 2,
    default_v_layer: int = 3,
    edge_rows: Optional[np.ndarray] = None,
    out_r: Optional[np.ndarray] = None,
    out_c: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized pre-route edge RC (H span on one layer, V on another).

    Matches the per-net oracle's unrouted fallback term for term.  When
    ``edge_rows`` is given only those rows are (re)computed, writing
    into ``out_r`` / ``out_c``.
    """
    child = flat.edge_child if edge_rows is None else flat.edge_child[edge_rows]
    d = np.abs(xy[flat.parent[child]] - xy[child])
    lh = technology.layers[default_h_layer]
    lv = technology.layers[default_v_layer]
    r = lh.res_per_um * d[:, 0] + lv.res_per_um * d[:, 1]
    c = lh.cap_per_um * d[:, 0] + lv.cap_per_um * d[:, 1]
    if edge_rows is None:
        return r, c
    out_r[edge_rows] = r
    out_c[edge_rows] = c
    return out_r, out_c


def _via_unit_tables(technology: Technology) -> Tuple[np.ndarray, np.ndarray]:
    """(L, L) per-via resistance / capacitance for each (h, v) layer
    pair, replicating the per-segment via model of
    ``repro.testing.oracles.segment_rc``."""
    cached = getattr(technology, "_via_unit_cache", None)
    if cached is not None:
        return cached
    L = technology.num_layers
    vr = np.zeros((L, L), dtype=np.float64)
    vc = np.zeros((L, L), dtype=np.float64)
    for a in range(L):
        for b in range(L):
            low, high = sorted((a, b))
            if low == high:
                high = min(high + 1, L - 1)
            vr[a, b] = technology.via_stack_resistance(low, high) / max(high - low, 1)
            if low < L - 1:
                vc[a, b] = technology.via_between(low, min(low + 1, L - 1)).capacitance
    try:
        technology._via_unit_cache = (vr, vc)
    except (AttributeError, TypeError):  # frozen technology objects
        pass
    return vr, vc


def _coupling_factor(
    route_result: GlobalRouteResult, utilization: np.ndarray, coupling_k: float
) -> np.ndarray:
    """Per-row capacitance multiplier ``1 + k * u``, ``u`` the mean GCell
    utilization along the row's path.  Each row's points are summed in
    path order by one ``np.add.at`` (sequential per index, as the
    per-segment oracle), not numpy's pairwise reduction."""
    offsets = route_result.offsets.astype(np.int64)
    counts = np.diff(offsets)
    row_of_point = np.repeat(np.arange(counts.size), counts)
    util = np.asarray(utilization, dtype=np.float64)
    # The path columns are small unsigned ints: widen before clamping.
    gx = np.minimum(route_result.xs.astype(np.int64), util.shape[0] - 1)
    gy = np.minimum(route_result.ys.astype(np.int64), util.shape[1] - 1)
    total = np.zeros(counts.size, dtype=np.float64)
    np.add.at(total, row_of_point, util[gx, gy])
    return 1.0 + coupling_k * total / np.maximum(counts, 1)


def routed_edge_rc(
    flat: FlatForest,
    technology: Technology,
    xy: np.ndarray,
    route_result: GlobalRouteResult,
    utilization: Optional[np.ndarray] = None,
    coupling_k: float = 0.0,
    default_h_layer: int = 2,
    default_v_layer: int = 3,
) -> Tuple[np.ndarray, np.ndarray]:
    """Edge RC under a global-routing solution, straight from its columns.

    Edges with a routed segment get wire RC on their assigned layers
    plus the via stack, with the congestion-coupling capacitance
    multiplier; edges without one keep the pre-route estimate.  Route
    rows reach edge rows through ``flat.forest_edge_row``.  Bitwise
    equal to the per-segment loop ``repro.testing.oracles.
    reference_routed_edge_rc`` (tests/test_flat_sta.py).
    """
    edge_r, edge_c = preroute_edge_rc(
        flat, technology, xy, default_h_layer, default_v_layer
    )
    rows = flat.forest_edge_row[route_result.edge]
    keep = rows >= 0
    if not keep.any():
        return edge_r, edge_c

    h_lay, v_lay = route_result.h_layer, route_result.v_layer
    h_len, v_len = route_result.h_length, route_result.v_length
    vias = route_result.vias.astype(np.float64)
    res = np.array([l.res_per_um for l in technology.layers])
    cap = np.array([l.cap_per_um for l in technology.layers])
    via_r_unit, via_c_unit = _via_unit_tables(technology)
    r_seg = res[h_lay] * h_len + res[v_lay] * v_len + via_r_unit[h_lay, v_lay] * vias
    c_seg = cap[h_lay] * h_len + cap[v_lay] * v_len + via_c_unit[h_lay, v_lay] * vias
    if utilization is not None and coupling_k > 0:
        c_seg = c_seg * _coupling_factor(route_result, utilization, coupling_k)

    edge_r[rows[keep]] = r_seg[keep]
    edge_c[rows[keep]] = c_seg[keep]
    return edge_r, edge_c


# ----------------------------------------------------------------------
# Batched Elmore
# ----------------------------------------------------------------------
def elmore_forest(
    flat: FlatForest, caps: FlatCaps, edge_r: np.ndarray, edge_c: np.ndarray
) -> ElmoreState:
    """Elmore delay of every net in one batched depth-scan pass."""
    state = ElmoreState.zeros(flat)
    elmore_update(flat, caps, edge_r, edge_c, state, trees=None)
    return state


def elmore_update(
    flat: FlatForest,
    caps: FlatCaps,
    edge_r: np.ndarray,
    edge_c: np.ndarray,
    state: ElmoreState,
    trees: Optional[np.ndarray] = None,
) -> None:
    """Recompute Elmore quantities, restricted to ``trees`` if given.

    Every scatter adds a node's contributions in the order a full pass
    does: half wire caps in edge-row order, then children into parents
    deepest level first and ascending ids within a level, then delays
    shallowest level first.  Trees occupy disjoint contiguous ranges, so
    a subset (grouped into its own levels by ``flat.depth``) writes
    bit-identical values to a full recompute, and reads and writes only
    its own rows of ``state``, ``edge_r`` and ``edge_c``: any state at
    least as large as ``flat``'s serves as its scratch.
    """
    if trees is None:
        node_rows = e_rows = t_sel = sink_sel = slice(None)
        child = flat.edge_child
        levels = flat.levels
        # Each level's wire resistances, read through a per-node array.
        r_of_node = np.zeros(flat.n_nodes)
        r_of_node[child] = edge_r
        level_r = [r_of_node[lvl] for lvl in levels]
    else:
        trees = np.asarray(trees, dtype=np.int64)
        if trees.size == 0:
            return
        node_rows = flat.node_rows_of_trees(trees)
        e_rows = flat.edge_rows_of_trees(trees)
        t_sel = trees
        sink_sel = flat.sink_rows_of_trees(trees)
        child = flat.edge_child[e_rows]
        levels, level_r = [], []
        if child.size:
            # Stable radix sort by depth keeps ascending ids per level.
            depth = flat.depth[child]
            order = np.argsort(
                depth.astype(np.min_scalar_type(depth.max())), kind="stable"
            )
            per_depth = np.bincount(depth)[1:]
            cuts = np.cumsum(per_depth[per_depth > 0])[:-1]
            levels = np.split(child[order], cuts)
            level_r = np.split(edge_r[e_rows][order], cuts)

    node_cap = state.node_cap
    subtree = state.subtree_cap
    delay = state.delay

    # Node capacitance: sink pin cap + half of each incident wire cap.
    node_cap[node_rows] = caps.node_base_cap[node_rows]
    half = edge_c[e_rows] * 0.5
    np.add.at(node_cap, child, half)
    np.add.at(node_cap, flat.parent[child], half)

    # Downstream capacitance: children into parents, deepest level first.
    subtree[node_rows] = node_cap[node_rows]
    for lvl in reversed(levels):
        np.add.at(subtree, flat.parent[lvl], subtree[lvl])

    # Elmore delay: accumulate R * C_sub along root-to-node paths.
    delay[node_rows] = 0.0
    for lvl, r in zip(levels, level_r):
        delay[lvl] = delay[flat.parent[lvl]] + r * subtree[lvl]

    state.total_cap[t_sel] = np.where(
        flat.tree_has_edges[t_sel],
        subtree[flat.tree_root[t_sel]],
        caps.lumped_cap[t_sel],
    )
    sd = delay[flat.sink_rows[sink_sel]]
    state.sink_delay[sink_sel] = sd
    state.sink_slew_deg[sink_sel] = (LN9 * sd) ** 2
