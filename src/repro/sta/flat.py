"""Flattened RC forest: CSR-style arrays + batched Elmore kernels.

This module is the production wire-timing path.  It flattens every
Steiner tree of a design into contiguous flat-node arrays built
**once** per forest topology, then evaluates Elmore delay for *all*
nets with a handful of numpy scans (the per-net oracle that walks one
Python BFS per net is `repro.testing.oracles.compute_net_timing`):

* downstream (subtree) capacitance — one ``np.add.at`` scatter per BFS
  depth, deepest level first;
* Elmore delay — one gather/multiply/add per BFS depth, shallowest
  level first.

Flat layout (see docs/PERFORMANCE.md):

* nodes of tree ``t`` occupy the contiguous range
  ``node_offset[t] : node_offset[t+1]`` — pins first (driver at the
  start of the range), Steiner nodes after, mirroring the per-tree
  numbering convention;
* each reached non-root node identifies the directed RC edge from its
  parent, so edge arrays are indexed by child flat node, ascending —
  which keeps per-tree edge rows contiguous and makes subsetting by
  tree (the incremental path) reproduce the exact ``np.add.at``
  accumulation order of the full pass: incremental and full results
  are *bitwise* identical, not just close.

Everything here is geometry-only; NLDM cell lookup lives in
`repro.sta.engine`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.groute.flat_route import expand_ranges
from repro.groute.router import GlobalRouteResult
from repro.obs import get_telemetry
from repro.pdk.technology import Technology
from repro.steiner.forest import SteinerForest

LN9 = math.log(9.0)

_FLAT_CACHE_ATTR = "_flat_forest_cache"


@dataclass
class FlatForest:
    """Per-design flat view of all RC trees (static topology)."""

    n_trees: int
    n_nodes: int
    node_offset: np.ndarray  # (T+1,) flat node range per tree
    tree_of_node: np.ndarray  # (N,)
    parent: np.ndarray  # (N,) flat parent node, -1 at roots/unreached
    levels: List[np.ndarray]  # nodes at BFS depth d >= 1, ascending ids
    # Directed RC edges, one per reached non-root node, child ascending:
    edge_child: np.ndarray  # (E,) flat child node
    edge_tree: np.ndarray  # (E,)
    edge_local: np.ndarray  # (E,) undirected edge index within its tree
    edge_offset: np.ndarray  # (T+1,) edge row range per tree
    forest_edge_row: np.ndarray  # (forest edges,) flat edge row, -1 if unreached
    # Geometry binding:
    pin_rows: np.ndarray  # flat nodes that are pins
    pin_xy: np.ndarray  # (n_pin_rows, 2) fixed positions
    steiner_rows: np.ndarray  # flat nodes that are Steiner points
    steiner_flat: np.ndarray  # forest flat-coordinate row per Steiner node
    steiner_tree: np.ndarray  # (S,) owning tree per forest coordinate row
    # Sinks (pin nodes 1..n_pins-1 of each tree), tree-contiguous:
    sink_rows: np.ndarray  # (K,) flat node ids
    sink_pin: np.ndarray  # (K,) global pin indices
    sink_tree: np.ndarray  # (K,)
    sink_offset: np.ndarray  # (T+1,) sink range per tree
    node_base_cap: np.ndarray  # (N,) sink pin cap at sink nodes, else 0
    net_of_tree: np.ndarray  # (T,)
    tree_root: np.ndarray  # (T,) flat node of each driver
    tree_has_edges: np.ndarray  # (T,) bool
    lumped_cap: np.ndarray  # (T,) plain sum of sink pin caps (edgeless case)

    @property
    def n_edges(self) -> int:
        return int(self.edge_child.size)

    # -- subsetting helpers (tree-contiguous ranges) -------------------
    def node_rows_of_trees(self, trees: np.ndarray) -> np.ndarray:
        return expand_ranges(self.node_offset[trees], self.node_offset[trees + 1])

    def edge_rows_of_trees(self, trees: np.ndarray) -> np.ndarray:
        return expand_ranges(self.edge_offset[trees], self.edge_offset[trees + 1])

    def sink_rows_of_trees(self, trees: np.ndarray) -> np.ndarray:
        return expand_ranges(self.sink_offset[trees], self.sink_offset[trees + 1])


@dataclass
class ElmoreState:
    """Mutable per-query Elmore arrays (reused by the incremental STA)."""

    node_cap: np.ndarray  # (N,)
    subtree_cap: np.ndarray  # (N,)
    delay: np.ndarray  # (N,) driver-to-node Elmore delay
    total_cap: np.ndarray  # (T,) cap seen by each driver
    sink_delay: np.ndarray  # (K,)
    sink_slew_deg: np.ndarray  # (K,) additive PERI slew term (ns^2)


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


def build_flat_forest(
    forest: SteinerForest, pin_caps: Dict[int, float]
) -> FlatForest:
    """Flatten ``forest`` into CSR arrays (one-time per topology).

    One gather pass over the trees' memoized topologies, then every
    array is assembled with ``cumsum``/``repeat``/``concatenate`` and
    the BFS levels come from one stable sort by depth.  The per-tree
    loop form is ``repro.testing.oracles.reference_flat_forest``; the
    two agree bitwise, field by field.
    """
    trees = forest.trees
    T = len(trees)
    topos = [tree.topology() for tree in trees]
    n_pins = np.fromiter((len(t.pin_ids) for t in trees), np.int64, T)
    n_steiner = np.fromiter((t.steiner_xy.shape[0] for t in trees), np.int64, T)
    n_edges = np.fromiter((tp.dir_edge_local.size for tp in topos), np.int64, T)
    tree_ids = np.arange(T, dtype=np.int64)
    n_nodes = n_pins + n_steiner

    node_offset = np.zeros(T + 1, dtype=np.int64)
    np.cumsum(n_nodes, out=node_offset[1:])
    N = int(node_offset[-1])
    starts = node_offset[:-1]
    tree_of_node = np.repeat(tree_ids, n_nodes)

    def _cat(parts: List[np.ndarray]) -> np.ndarray:
        if not parts:
            return np.zeros(0, dtype=np.int64)
        return np.concatenate(parts).astype(np.int64, copy=False)

    local_parent = _cat([tp.parent for tp in topos])
    reached = local_parent >= 0
    parent = np.where(reached, local_parent + starts[tree_of_node], -1)
    edge_child = np.flatnonzero(reached)
    edge_local = _cat([tp.dir_edge_local for tp in topos])
    edge_tree = np.repeat(tree_ids, n_edges)
    assert edge_child.size == edge_tree.size
    edge_offset = np.zeros(T + 1, dtype=np.int64)
    np.cumsum(n_edges, out=edge_offset[1:])

    # Reached nodes ordered by depth, ascending ids within a depth.
    depth = _cat([tp.depth for tp in topos])[edge_child]
    by_depth = edge_child[np.argsort(depth, kind="stable")]
    per_depth = np.bincount(depth)[1:] if depth.size else depth
    bounds = np.cumsum(per_depth[per_depth > 0])[:-1]
    levels = np.split(by_depth, bounds) if by_depth.size else []

    pin_ids = np.fromiter(
        (p for t in trees for p in t.pin_ids), np.int64, int(n_pins.sum())
    )
    pin_offset = np.zeros(T + 1, dtype=np.int64)
    np.cumsum(n_pins, out=pin_offset[1:])
    sink_pin = pin_ids[expand_ranges(pin_offset[:-1] + 1, pin_offset[1:])]
    n_sinks = np.maximum(n_pins - 1, 0)
    sink_offset = np.zeros(T + 1, dtype=np.int64)
    np.cumsum(n_sinks, out=sink_offset[1:])
    sink_rows = expand_ranges(starts + 1, starts + n_pins)

    caps = np.fromiter(
        (pin_caps.get(p, 0.0) for p in sink_pin.tolist()),
        np.float64,
        sink_pin.size,
    )
    node_base_cap = np.zeros(N, dtype=np.float64)
    node_base_cap[sink_rows] = caps

    pin_xy = (
        np.concatenate([t.pin_xy for t in trees], axis=0)
        if T
        else np.zeros((0, 2))
    )
    # Forest edge index (tree-major, ``tree.edges`` order) -> edge row:
    # the map a GlobalRouteResult's ``edge`` column reads RC rows through.
    n_forest_edges = np.fromiter((len(t.edges) for t in trees), np.int64, T)
    forest_edge_base = np.zeros(T + 1, dtype=np.int64)
    np.cumsum(n_forest_edges, out=forest_edge_base[1:])
    forest_edge_row = np.full(int(forest_edge_base[-1]), -1, dtype=np.int64)
    forest_edge_row[forest_edge_base[edge_tree] + edge_local] = np.arange(
        edge_child.size, dtype=np.int64
    )
    return FlatForest(
        n_trees=T,
        n_nodes=N,
        node_offset=node_offset,
        tree_of_node=tree_of_node,
        parent=parent,
        levels=levels,
        edge_child=edge_child,
        edge_tree=edge_tree,
        edge_local=edge_local,
        edge_offset=edge_offset,
        forest_edge_row=forest_edge_row,
        pin_rows=expand_ranges(starts, starts + n_pins),
        pin_xy=np.asarray(pin_xy, dtype=np.float64),
        steiner_rows=expand_ranges(starts + n_pins, node_offset[1:]),
        steiner_flat=np.arange(int(n_steiner.sum()), dtype=np.int64),
        steiner_tree=np.repeat(tree_ids, n_steiner),
        sink_rows=sink_rows,
        sink_pin=sink_pin,
        sink_tree=np.repeat(tree_ids, n_sinks),
        sink_offset=sink_offset,
        node_base_cap=node_base_cap,
        net_of_tree=np.fromiter((t.net_index for t in trees), np.int64, T),
        tree_root=starts.copy(),
        tree_has_edges=np.fromiter((bool(t.edges) for t in trees), bool, T),
        lumped_cap=_segment_sums(caps, sink_offset),
    )


def flat_forest_of(forest: SteinerForest, pin_caps: Dict[int, float]) -> FlatForest:
    """Memoized :func:`build_flat_forest`, validated by topology identity.

    The cache holds a reference to each tree's memoized
    :class:`~repro.steiner.tree.TreeTopology`; any edge rewrite calls
    ``invalidate_topology()`` which replaces that object, so an identity
    sweep (cheap — no per-tree property chains) detects every topology
    edit.  Coordinate moves keep the cache.
    """
    tel = get_telemetry()
    cached = getattr(forest, _FLAT_CACHE_ATTR, None)
    if cached is not None:
        flat, topo_refs, caps_ref = cached
        trees = forest.trees
        if (
            caps_ref is pin_caps
            and len(trees) == len(topo_refs)
            and all(t._topo is r for t, r in zip(trees, topo_refs))
        ):
            if tel.enabled:
                tel.count("sta.flat_cache_hits")
            return flat
    if tel.enabled:
        tel.count("sta.flat_cache_misses")
    flat = build_flat_forest(forest, pin_caps)
    topo_refs = [t._topo for t in forest.trees]
    setattr(forest, _FLAT_CACHE_ATTR, (flat, topo_refs, pin_caps))
    return flat


def flat_cache_entry(forest: SteinerForest) -> Optional[tuple]:
    """The forest's :func:`flat_forest_of` memo entry (None if unset),
    opaque; hand it back to :func:`restore_flat_cache`."""
    return getattr(forest, _FLAT_CACHE_ATTR, None)


def restore_flat_cache(forest: SteinerForest, entry: Optional[tuple]) -> None:
    """Reinstate a memo entry taken by :func:`flat_cache_entry`; None
    drops the memo, so the next query re-flattens the forest.

    The entry is still validated on every lookup, so restoring one
    whose trees have since changed costs a rebuild, never a stale hit.
    """
    if entry is not None:
        setattr(forest, _FLAT_CACHE_ATTR, entry)
    elif hasattr(forest, _FLAT_CACHE_ATTR):
        delattr(forest, _FLAT_CACHE_ATTR)


# ----------------------------------------------------------------------
# Geometry / RC extraction
# ----------------------------------------------------------------------
def node_positions(flat: FlatForest, steiner_coords: np.ndarray) -> np.ndarray:
    """(N, 2) flat node positions under the given flat coordinates."""
    xy = np.empty((flat.n_nodes, 2), dtype=np.float64)
    xy[flat.pin_rows] = flat.pin_xy
    if flat.steiner_rows.size:
        xy[flat.steiner_rows] = steiner_coords[flat.steiner_flat]
    return xy


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
    flat: FlatForest, edge_r: np.ndarray, edge_c: np.ndarray
) -> ElmoreState:
    """Elmore delay of every net in one batched depth-scan pass."""
    state = ElmoreState(
        node_cap=np.zeros(flat.n_nodes),
        subtree_cap=np.zeros(flat.n_nodes),
        delay=np.zeros(flat.n_nodes),
        total_cap=np.zeros(flat.n_trees),
        sink_delay=np.zeros(flat.sink_rows.size),
        sink_slew_deg=np.zeros(flat.sink_rows.size),
    )
    elmore_update(flat, edge_r, edge_c, state, trees=None)
    return state


def elmore_update(
    flat: FlatForest,
    edge_r: np.ndarray,
    edge_c: np.ndarray,
    state: ElmoreState,
    trees: Optional[np.ndarray] = None,
) -> None:
    """Recompute Elmore quantities, restricted to ``trees`` if given.

    Because trees occupy disjoint contiguous ranges and all scatter
    index arrays preserve ascending order under the tree subset, a
    partial update writes bit-identical values to a full recompute.
    """
    if trees is None:
        node_rows = slice(None)
        e_rows = slice(None)
        node_mask = None
        t_sel = slice(None)
        sink_sel = slice(None)
    else:
        trees = np.asarray(trees, dtype=np.int64)
        if trees.size == 0:
            return
        node_rows = flat.node_rows_of_trees(trees)
        e_rows = flat.edge_rows_of_trees(trees)
        node_mask = np.zeros(flat.n_nodes, dtype=bool)
        node_mask[node_rows] = True
        t_sel = trees
        sink_sel = flat.sink_rows_of_trees(trees)

    node_cap = state.node_cap
    subtree = state.subtree_cap
    delay = state.delay

    # Node capacitance: sink pin cap + half of each incident wire cap.
    node_cap[node_rows] = flat.node_base_cap[node_rows]
    half = edge_c[e_rows] * 0.5
    child = flat.edge_child[e_rows]
    np.add.at(node_cap, child, half)
    np.add.at(node_cap, flat.parent[child], half)

    # Downstream capacitance: children into parents, deepest level first.
    subtree[node_rows] = node_cap[node_rows]
    for lvl in reversed(flat.levels):
        sel = lvl if node_mask is None else lvl[node_mask[lvl]]
        if sel.size:
            np.add.at(subtree, flat.parent[sel], subtree[sel])

    # Elmore delay: accumulate R * C_sub along root-to-node paths.
    edge_r_of_child = np.zeros(flat.n_nodes) if trees is None else None
    if trees is None:
        edge_r_of_child[flat.edge_child] = edge_r
        era = edge_r_of_child
    else:
        era = np.zeros(flat.n_nodes)
        era[child] = edge_r[e_rows]
    delay[node_rows] = 0.0
    for lvl in flat.levels:
        sel = lvl if node_mask is None else lvl[node_mask[lvl]]
        if sel.size:
            delay[sel] = delay[flat.parent[sel]] + era[sel] * subtree[sel]

    state.total_cap[t_sel] = np.where(
        flat.tree_has_edges[t_sel],
        subtree[flat.tree_root[t_sel]],
        flat.lumped_cap[t_sel],
    )
    sd = delay[flat.sink_rows[sink_sel]]
    state.sink_delay[sink_sel] = sd
    state.sink_slew_deg[sink_sel] = (LN9 * sd) ** 2
