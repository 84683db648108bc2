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
    edge_row_of: Dict[Tuple[int, int], int]  # (tree, local edge) -> row
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
        return _expand_ranges(self.node_offset[trees], self.node_offset[trees + 1])

    def edge_rows_of_trees(self, trees: np.ndarray) -> np.ndarray:
        return _expand_ranges(self.edge_offset[trees], self.edge_offset[trees + 1])

    def sink_rows_of_trees(self, trees: np.ndarray) -> np.ndarray:
        return _expand_ranges(self.sink_offset[trees], self.sink_offset[trees + 1])


@dataclass
class ElmoreState:
    """Mutable per-query Elmore arrays (reused by the incremental STA)."""

    node_cap: np.ndarray  # (N,)
    subtree_cap: np.ndarray  # (N,)
    delay: np.ndarray  # (N,) driver-to-node Elmore delay
    total_cap: np.ndarray  # (T,) cap seen by each driver
    sink_delay: np.ndarray  # (K,)
    sink_slew_deg: np.ndarray  # (K,) additive PERI slew term (ns^2)


def _expand_ranges(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Concatenate ``[arange(s, e) for s, e in zip(starts, ends)]``."""
    counts = (ends - starts).astype(np.int64)
    keep = counts > 0
    starts, ends, counts = starts[keep], ends[keep], counts[keep]
    if counts.size == 0:
        return np.zeros(0, dtype=np.int64)
    out = np.ones(int(counts.sum()), dtype=np.int64)
    out[0] = starts[0]
    boundaries = np.cumsum(counts)[:-1]
    out[boundaries] = starts[1:] - ends[:-1] + 1
    return np.cumsum(out)


def build_flat_forest(
    forest: SteinerForest, pin_caps: Dict[int, float]
) -> FlatForest:
    """Flatten ``forest`` into CSR arrays (one-time per topology)."""
    trees = forest.trees
    T = len(trees)
    node_offset = np.zeros(T + 1, dtype=np.int64)
    for i, tree in enumerate(trees):
        node_offset[i + 1] = node_offset[i] + tree.n_nodes
    N = int(node_offset[-1])

    tree_of_node = np.zeros(N, dtype=np.int64)
    parent = np.full(N, -1, dtype=np.int64)
    depth = np.zeros(N, dtype=np.int64)
    node_base_cap = np.zeros(N, dtype=np.float64)

    edge_tree_parts: List[np.ndarray] = []
    edge_local_parts: List[np.ndarray] = []
    pin_rows_parts: List[np.ndarray] = []
    pin_xy_parts: List[np.ndarray] = []
    steiner_rows_parts: List[np.ndarray] = []
    steiner_flat_parts: List[np.ndarray] = []
    sink_rows_parts: List[np.ndarray] = []
    sink_pin_parts: List[np.ndarray] = []
    sink_tree_parts: List[np.ndarray] = []
    sink_offset = np.zeros(T + 1, dtype=np.int64)
    edge_offset = np.zeros(T + 1, dtype=np.int64)
    net_of_tree = np.zeros(T, dtype=np.int64)
    tree_has_edges = np.zeros(T, dtype=bool)
    lumped_cap = np.zeros(T, dtype=np.float64)
    steiner_tree = np.zeros(forest.num_steiner_points, dtype=np.int64)

    for t, tree in enumerate(trees):
        base = int(node_offset[t])
        n = tree.n_nodes
        n_pins = tree.n_pins
        tree_of_node[base : base + n] = t
        net_of_tree[t] = tree.net_index
        tree_has_edges[t] = bool(tree.edges)

        topo = tree.topology()
        reached = topo.parent >= 0
        parent[base : base + n][reached] = topo.parent[reached] + base
        depth[base : base + n] = topo.depth

        edge_local_parts.append(topo.dir_edge_local)
        edge_tree_parts.append(np.full(topo.dir_edge_local.size, t, dtype=np.int64))
        edge_offset[t + 1] = edge_offset[t] + topo.dir_edge_local.size

        pin_rows_parts.append(np.arange(base, base + n_pins, dtype=np.int64))
        pin_xy_parts.append(tree.pin_xy)
        if tree.n_steiner:
            sl = forest.steiner_slice(t)
            steiner_rows_parts.append(
                np.arange(base + n_pins, base + n, dtype=np.int64)
            )
            steiner_flat_parts.append(np.arange(sl.start, sl.stop, dtype=np.int64))
            steiner_tree[sl] = t

        sinks = np.asarray(tree.pin_ids[1:], dtype=np.int64)
        sink_rows_parts.append(np.arange(base + 1, base + n_pins, dtype=np.int64))
        sink_pin_parts.append(sinks)
        sink_tree_parts.append(np.full(sinks.size, t, dtype=np.int64))
        sink_offset[t + 1] = sink_offset[t] + sinks.size
        caps = np.array([pin_caps.get(int(p), 0.0) for p in sinks], dtype=np.float64)
        node_base_cap[base + 1 : base + n_pins] = caps
        lumped_cap[t] = caps.sum()

    def _cat(parts: List[np.ndarray], dtype=np.int64) -> np.ndarray:
        if not parts:
            return np.zeros(0, dtype=dtype)
        return np.concatenate(parts).astype(dtype, copy=False)

    edge_tree = _cat(edge_tree_parts)
    edge_local = _cat(edge_local_parts)
    # Edge rows are indexed by child node ascending; since per-tree
    # children from `topology()` are ascending and trees are laid out in
    # order, the concatenation is already globally sorted.
    edge_child = np.flatnonzero(parent >= 0)
    assert edge_child.size == edge_tree.size

    max_depth = int(depth.max()) if N else 0
    levels = []
    reached_mask = parent >= 0
    for d in range(1, max_depth + 1):
        lvl = np.flatnonzero((depth == d) & reached_mask)
        if lvl.size:
            levels.append(lvl)

    edge_row_of = {
        (int(t), int(l)): i
        for i, (t, l) in enumerate(zip(edge_tree, edge_local))
    }

    pin_xy = (
        np.concatenate(pin_xy_parts, axis=0)
        if pin_xy_parts
        else np.zeros((0, 2))
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
        edge_row_of=edge_row_of,
        pin_rows=_cat(pin_rows_parts),
        pin_xy=np.asarray(pin_xy, dtype=np.float64),
        steiner_rows=_cat(steiner_rows_parts),
        steiner_flat=_cat(steiner_flat_parts),
        steiner_tree=steiner_tree,
        sink_rows=_cat(sink_rows_parts),
        sink_pin=_cat(sink_pin_parts),
        sink_tree=_cat(sink_tree_parts),
        sink_offset=sink_offset,
        node_base_cap=node_base_cap,
        net_of_tree=net_of_tree,
        tree_root=node_offset[:-1].copy(),
        tree_has_edges=tree_has_edges,
        lumped_cap=lumped_cap,
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
    pair, replicating ``layer_assign.segment_rc``'s via model."""
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


def _seg_path_arrays(seg) -> Tuple[np.ndarray, np.ndarray]:
    """GCell path of a routed segment as (xs, ys) arrays, memoized on
    the segment (segments are replaced, never mutated, on rip-up)."""
    cached = getattr(seg, "_path_arrays", None)
    if cached is not None:
        return cached
    path = seg.path
    if path:
        arr = np.asarray(path, dtype=np.int64)
        xs, ys = arr[:, 0], arr[:, 1]
    else:
        xs = ys = np.zeros(0, dtype=np.int64)
    try:
        seg._path_arrays = (xs, ys)
    except (AttributeError, TypeError):
        pass
    return xs, ys


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
    """Edge RC under a global-routing solution (vectorized).

    Edges with a routed segment use ``segment_rc`` (wire + via stack)
    with the congestion-coupling capacitance multiplier; edges without
    one fall back to the pre-route estimate, matching the reference.
    """
    edge_r, edge_c = preroute_edge_rc(
        flat, technology, xy, default_h_layer, default_v_layer
    )
    segments = route_result.segments
    if not segments:
        return edge_r, edge_c

    E = flat.n_edges
    rows: List[int] = []
    h_len: List[float] = []
    v_len: List[float] = []
    h_lay: List[int] = []
    v_lay: List[int] = []
    vias: List[int] = []
    path_rows: List[np.ndarray] = []
    path_xs: List[np.ndarray] = []
    path_ys: List[np.ndarray] = []
    path_counts = np.zeros(E, dtype=np.int64)

    row_of = flat.edge_row_of
    want_coupling = utilization is not None and coupling_k > 0
    for key, seg in segments.items():
        row = row_of.get(key)
        if row is None:
            continue
        rows.append(row)
        h_len.append(seg.h_length)
        v_len.append(seg.v_length)
        h_lay.append(seg.h_layer)
        v_lay.append(seg.v_layer)
        vias.append(seg.vias)
        if want_coupling:
            xs, ys = _seg_path_arrays(seg)
            if xs.size:
                path_rows.append(np.full(xs.size, row, dtype=np.int64))
                path_xs.append(xs)
                path_ys.append(ys)
                path_counts[row] = xs.size

    if not rows:
        return edge_r, edge_c

    rows_a = np.asarray(rows, dtype=np.int64)
    h_len_a = np.asarray(h_len, dtype=np.float64)
    v_len_a = np.asarray(v_len, dtype=np.float64)
    h_lay_a = np.asarray(h_lay, dtype=np.int64)
    v_lay_a = np.asarray(v_lay, dtype=np.int64)
    vias_a = np.asarray(vias, dtype=np.float64)

    res = np.array([l.res_per_um for l in technology.layers])
    cap = np.array([l.cap_per_um for l in technology.layers])
    via_r_unit, via_c_unit = _via_unit_tables(technology)

    r_seg = res[h_lay_a] * h_len_a + res[v_lay_a] * v_len_a + via_r_unit[
        h_lay_a, v_lay_a
    ] * vias_a
    c_seg = cap[h_lay_a] * h_len_a + cap[v_lay_a] * v_len_a + via_c_unit[
        h_lay_a, v_lay_a
    ] * vias_a

    if want_coupling and path_rows:
        per = np.concatenate(path_rows)
        gx = np.concatenate(path_xs)
        gy = np.concatenate(path_ys)
        util = np.asarray(utilization, dtype=np.float64)
        vals = util[
            np.minimum(gx, util.shape[0] - 1), np.minimum(gy, util.shape[1] - 1)
        ]
        tot = np.zeros(E, dtype=np.float64)
        np.add.at(tot, per, vals)
        factor = np.ones(E, dtype=np.float64)
        nz = path_counts > 0
        factor[nz] = 1.0 + coupling_k * tot[nz] / path_counts[nz]
        c_seg = c_seg * factor[rows_a]

    edge_r[rows_a] = r_seg
    edge_c[rows_a] = c_seg
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
