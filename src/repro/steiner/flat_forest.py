"""Flat forest: one cap-free CSR view of every Steiner tree of a design.

Refinement moves Steiner coordinates and never changes a tree's
topology (Definition 1 of the paper), so one flattening per forest
topology serves every consumer: the global routers and the congestion
probe (undirected edges, node positions), the evaluator's timing graph
and the sign-off STA (driver-rooted RC edges, BFS levels, sinks).
Pin capacitances are not part of it: they belong to an STA engine and
are gathered per engine by :func:`repro.sta.flat.flat_caps`.

Flat layout (see docs/PERFORMANCE.md):

* nodes of tree ``t`` occupy the contiguous range
  ``node_offset[t] : node_offset[t+1]`` — pins first (driver at the
  start of the range), Steiner nodes after, mirroring the per-tree
  numbering convention;
* each reached non-root node identifies the directed RC edge from its
  parent, so edge arrays are indexed by child flat node, ascending —
  which keeps per-tree edge rows contiguous and makes subsetting by
  tree (the incremental path) reproduce the exact ``np.add.at``
  accumulation order of the full pass;
* the undirected forest edges keep ``tree.edges`` order and
  orientation, tree-major (the routers' segment order);
* Steiner nodes, read in ``steiner_rows`` order, are the rows of the
  forest's ``(S, 2)`` coordinate matrix (``SteinerForest.coords``) in
  order, so node positions scatter that matrix in without an index map.

The memo (:func:`flat_forest_of`) lives on the forest and is validated
per tree by the identity of its memoized topology (``tree._topo``) and
of its pin array (``tree.pin_xy``): every edge rewrite replaces the
former, every re-placement reassigns the latter, and coordinate moves
touch neither.  Next to the flattening, the entry keeps the per-tree
columns it was assembled from, so a tree-list edit re-gathers only the
trees it touched and splices them in before the one shared assembly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs import get_telemetry

if TYPE_CHECKING:
    from repro.steiner.forest import SteinerForest
    from repro.steiner.tree import SteinerTree


def expand_ranges(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Concatenate ``[arange(s, e) for s, e in zip(starts, ends)]``
    (int64; empty and reversed ranges contribute nothing)."""
    counts = (ends - starts).astype(np.int64)
    keep = counts > 0
    starts, counts = starts[keep], counts[keep]
    if counts.size == 0:
        return np.zeros(0, dtype=np.int64)
    total = int(counts.sum())
    out = np.ones(total, dtype=np.int64)
    cuts = np.cumsum(counts[:-1])
    out[0] = starts[0]
    out[cuts] = starts[1:] - (starts[:-1] + counts[:-1] - 1)
    return np.cumsum(out)


@dataclass
class FlatForest:
    """Per-design flat view of all Steiner trees (static topology)."""

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
    forest_edge_row: np.ndarray  # (F,) RC edge row per forest edge, -1 if unreached
    # Undirected forest edges, tree-major in ``tree.edges`` orientation:
    forest_edge_u: np.ndarray  # (F,) flat node of the first endpoint
    forest_edge_v: np.ndarray  # (F,) flat node of the second endpoint
    forest_edge_tree: np.ndarray  # (F,)
    forest_edge_local: np.ndarray  # (F,) index within ``tree.edges``
    forest_edge_net: np.ndarray  # (F,)
    # Geometry binding:
    pin_rows: np.ndarray  # flat nodes that are pins
    base_xy: np.ndarray  # (N, 2) pin positions, zeros at Steiner rows
    steiner_rows: np.ndarray  # (S,) flat node per forest coordinate row
    steiner_tree: np.ndarray  # (S,) owning tree per forest coordinate row
    # Sinks (pin nodes 1..n_pins-1 of each tree), tree-contiguous:
    sink_rows: np.ndarray  # (K,) flat node ids
    sink_pin: np.ndarray  # (K,) global pin indices
    sink_tree: np.ndarray  # (K,)
    sink_offset: np.ndarray  # (T+1,) sink range per tree
    net_of_tree: np.ndarray  # (T,)
    tree_root: np.ndarray  # (T,) flat node of each driver
    tree_has_edges: np.ndarray  # (T,) bool

    @property
    def n_edges(self) -> int:
        return int(self.edge_child.size)

    def node_positions(self, steiner_coords: np.ndarray) -> np.ndarray:
        """(N, 2) node positions: the pin base with the forest's
        ``(S, 2)`` Steiner coordinates scattered in."""
        xy = self.base_xy.copy()
        xy[self.steiner_rows] = steiner_coords
        return xy

    # -- subsetting helpers (tree-contiguous ranges) -------------------
    def node_rows_of_trees(self, trees: np.ndarray) -> np.ndarray:
        return expand_ranges(self.node_offset[trees], self.node_offset[trees + 1])

    def edge_rows_of_trees(self, trees: np.ndarray) -> np.ndarray:
        return expand_ranges(self.edge_offset[trees], self.edge_offset[trees + 1])

    def sink_rows_of_trees(self, trees: np.ndarray) -> np.ndarray:
        return expand_ranges(self.sink_offset[trees], self.sink_offset[trees + 1])


def _offsets(counts: np.ndarray) -> np.ndarray:
    out = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


def _cat(parts: List[np.ndarray]) -> np.ndarray:
    if not parts:
        return np.zeros(0, dtype=np.int64)
    return np.concatenate(parts).astype(np.int64, copy=False)


@dataclass(frozen=True)
class _Columns:
    """What a flattening reads from its trees, tree-major: per-tree
    counts and the ragged arrays they delimit.  Kept with the memo
    entry so an edit re-gathers only the trees it touched."""

    n_pins: np.ndarray  # (T,)
    n_steiner: np.ndarray  # (T,)
    n_edges: np.ndarray  # (T,) directed RC edges
    n_forest_edges: np.ndarray  # (T,) ``len(tree.edges)``
    net: np.ndarray  # (T,) net index
    parent: np.ndarray  # per node: local BFS parent, -1 at the root
    depth: np.ndarray  # per node: BFS depth
    dir_edge_local: np.ndarray  # per RC edge: its ``tree.edges`` index
    pin_ids: np.ndarray  # per pin
    pin_xy: np.ndarray  # per pin, (P, 2)
    ends: np.ndarray  # per forest edge: its two local nodes, interleaved

    def ragged(self) -> Tuple[Tuple[str, np.ndarray], ...]:
        """Each ragged column with its per-tree row counts."""
        nodes = self.n_pins + self.n_steiner
        return (
            ("parent", nodes),
            ("depth", nodes),
            ("dir_edge_local", self.n_edges),
            ("pin_ids", self.n_pins),
            ("pin_xy", self.n_pins),
            ("ends", 2 * self.n_forest_edges),
        )


_COUNTS = ("n_pins", "n_steiner", "n_edges", "n_forest_edges", "net")


def _gather(trees: Sequence["SteinerTree"]) -> _Columns:
    """One pass over ``trees``' memoized topologies and edge lists."""
    T = len(trees)
    topos = [tree.topology() for tree in trees]
    edge_lists = [t.edges for t in trees]
    n_pins = np.fromiter((len(t.pin_ids) for t in trees), np.int64, T)
    n_forest_edges = np.fromiter(map(len, edge_lists), np.int64, T)
    return _Columns(
        n_pins=n_pins,
        n_steiner=np.fromiter((t.steiner_xy.shape[0] for t in trees), np.int64, T),
        n_edges=np.fromiter((tp.dir_edge_local.size for tp in topos), np.int64, T),
        n_forest_edges=n_forest_edges,
        net=np.fromiter((t.net_index for t in trees), np.int64, T),
        parent=_cat([tp.parent for tp in topos]),
        depth=_cat([tp.depth for tp in topos]),
        dir_edge_local=_cat([tp.dir_edge_local for tp in topos]),
        pin_ids=np.fromiter(
            (p for t in trees for p in t.pin_ids), np.int64, int(n_pins.sum())
        ),
        pin_xy=np.concatenate([np.zeros((0, 2))] + [t.pin_xy for t in trees]),
        ends=np.fromiter(
            chain.from_iterable(chain.from_iterable(edge_lists)),
            np.int64,
            2 * int(n_forest_edges.sum()),
        ),
    )


def _splice(old: _Columns, n_trees: int, slots: List[int], new: _Columns) -> _Columns:
    """``old``'s columns cut to ``n_trees`` trees, with the rows of tree
    ``slots[j]`` (ascending; every slot past ``old``'s end is listed)
    replaced by tree ``j`` of ``new``: per column, the runs of kept
    trees' rows and the re-gathered trees' rows, joined by one
    concatenation.  Builds new arrays; ``old`` is not written."""
    keep = min(n_trees, old.n_pins.size)
    out = {}
    for name in _COUNTS:
        col = np.zeros(n_trees, dtype=np.int64)
        col[:keep] = getattr(old, name)[:keep]
        col[slots] = getattr(new, name)
        out[name] = col
    for (name, old_counts), (_, new_counts) in zip(old.ragged(), new.ragged()):
        old_col, new_col = getattr(old, name), getattr(new, name)
        old_off, new_off = _offsets(old_counts), _offsets(new_counts)
        parts, prev = [], 0
        for j, t in enumerate(slots):
            if t > prev:
                parts.append(old_col[old_off[prev] : old_off[min(t, keep)]])
            parts.append(new_col[new_off[j] : new_off[j + 1]])
            prev = t + 1
        if prev < keep:
            parts.append(old_col[old_off[prev] : old_off[keep]])
        out[name] = np.concatenate(parts) if parts else old_col[:0].copy()
    return _Columns(**out)


def _assemble(cols: _Columns) -> FlatForest:
    """Every :class:`FlatForest` array from gathered columns, with
    ``cumsum``/``repeat``/``concatenate``; the BFS levels come from one
    stable sort by depth."""
    n_pins, n_steiner = cols.n_pins, cols.n_steiner
    n_edges, n_forest_edges = cols.n_edges, cols.n_forest_edges
    T = n_pins.size
    tree_ids = np.arange(T, dtype=np.int64)
    n_nodes = n_pins + n_steiner

    node_offset = _offsets(n_nodes)
    N = int(node_offset[-1])
    starts = node_offset[:-1]
    tree_of_node = np.repeat(tree_ids, n_nodes)

    local_parent = cols.parent
    reached = local_parent >= 0
    parent = np.where(reached, local_parent + starts[tree_of_node], -1)
    edge_child = np.flatnonzero(reached)
    edge_local = cols.dir_edge_local
    edge_tree = np.repeat(tree_ids, n_edges)
    assert edge_child.size == edge_tree.size

    # Reached nodes ordered by depth, ascending ids within a depth.
    depth = cols.depth[edge_child]
    by_depth = edge_child[np.argsort(depth, kind="stable")]
    per_depth = np.bincount(depth)[1:] if depth.size else depth
    bounds = np.cumsum(per_depth[per_depth > 0])[:-1]
    levels = np.split(by_depth, bounds) if by_depth.size else []

    pin_offset = _offsets(n_pins)
    sink_pin = cols.pin_ids[expand_ranges(pin_offset[:-1] + 1, pin_offset[1:])]
    n_sinks = np.maximum(n_pins - 1, 0)
    pin_rows = expand_ranges(starts, starts + n_pins)
    base_xy = np.zeros((N, 2), dtype=np.float64)
    if T:
        base_xy[pin_rows] = cols.pin_xy

    # Undirected forest edges (tree-major, ``tree.edges`` order) and the
    # map a GlobalRouteResult's ``edge`` column reads RC rows through.
    F = int(n_forest_edges.sum())
    forest_edge_base = _offsets(n_forest_edges)
    ends = cols.ends
    forest_edge_tree = np.repeat(tree_ids, n_forest_edges)
    end_base = starts[forest_edge_tree]
    forest_edge_row = np.full(F, -1, dtype=np.int64)
    forest_edge_row[forest_edge_base[edge_tree] + edge_local] = np.arange(
        edge_child.size, dtype=np.int64
    )
    net_of_tree = cols.net
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
        edge_offset=_offsets(n_edges),
        forest_edge_row=forest_edge_row,
        forest_edge_u=ends[0::2] + end_base,
        forest_edge_v=ends[1::2] + end_base,
        forest_edge_tree=forest_edge_tree,
        forest_edge_local=np.arange(F, dtype=np.int64) - forest_edge_base[forest_edge_tree],
        forest_edge_net=net_of_tree[forest_edge_tree],
        pin_rows=pin_rows,
        base_xy=base_xy,
        steiner_rows=expand_ranges(starts + n_pins, node_offset[1:]),
        steiner_tree=np.repeat(tree_ids, n_steiner),
        sink_rows=expand_ranges(starts + 1, starts + n_pins),
        sink_pin=sink_pin,
        sink_tree=np.repeat(tree_ids, n_sinks),
        sink_offset=_offsets(n_sinks),
        net_of_tree=net_of_tree,
        tree_root=starts.copy(),
        tree_has_edges=n_forest_edges > 0,
    )


def build_flat_forest(forest: "SteinerForest") -> FlatForest:
    """Flatten ``forest`` into CSR arrays (one-time per topology).

    One gather pass over the trees' memoized topologies and edge lists,
    then one array assembly.  The per-tree loop form is
    ``repro.testing.oracles.reference_flat_forest``; the two agree
    bitwise, field by field.
    """
    return _assemble(_gather(forest.trees))


def flat_forest_of(forest: "SteinerForest") -> FlatForest:
    """Memoized :func:`build_flat_forest`, validated and spliced per tree.

    The entry holds each tree's memoized
    :class:`~repro.steiner.tree.TreeTopology` and its ``pin_xy`` array;
    any edge rewrite calls ``invalidate_topology()`` (which replaces the
    former) and re-placement reassigns the latter, so an identity sweep
    detects every edit that changes the flattening.  Coordinate moves
    keep the entry.  When the sweep finds edits (slots whose tree
    changed, trees appended or removed at the tail) to at most a
    quarter of the trees, only those trees are re-gathered and spliced
    into the columns kept with the entry before the one shared
    assembly; without an entry, or past that share, every tree is
    gathered.  Either way the result is a new :class:`FlatForest`: an
    older one, which ECO undo entries and STA states hold, is never
    written.  Each flattening books one ``steiner.flatten`` span; a
    splice's carries ``spliced=<trees re-gathered>`` and counts
    ``steiner.flat_splices``.
    """
    tel = get_telemetry()
    trees = forest.trees
    cached = forest._flat_memo
    slots = None
    if cached is not None:
        flat, topo_refs, pin_refs, cols = cached
        slots = [
            i
            for i, (t, r, p) in enumerate(zip(trees, topo_refs, pin_refs))
            if t._topo is not r or t.pin_xy is not p
        ]
        if not slots and len(trees) == len(topo_refs):
            if tel.enabled:
                tel.count("sta.flat_cache_hits")
            return flat
        slots.extend(range(len(topo_refs), len(trees)))
        if 4 * len(slots) > len(trees):
            slots = None  # past a quarter of the trees, splicing costs more
    if tel.enabled:
        tel.count("sta.flat_cache_misses")
    if slots is None:
        with tel.span("steiner.flatten", trees=len(trees)):
            cols = _gather(trees)
            flat = _assemble(cols)
    else:
        if tel.enabled:
            tel.count("steiner.flat_splices")
        with tel.span("steiner.flatten", trees=len(trees), spliced=len(slots)):
            cols = _splice(cols, len(trees), slots, _gather([trees[i] for i in slots]))
            flat = _assemble(cols)
    forest._flat_memo = (flat, [t._topo for t in trees], [t.pin_xy for t in trees], cols)
    return flat


def flat_cache_entry(forest: "SteinerForest") -> Optional[tuple]:
    """The forest's :func:`flat_forest_of` memo entry (None if unset),
    opaque; hand it back to :func:`restore_flat_cache`."""
    return forest._flat_memo


def restore_flat_cache(forest: "SteinerForest", entry: Optional[tuple]) -> None:
    """Reinstate a memo entry taken by :func:`flat_cache_entry` (None
    leaves the forest without one).

    The entry is still validated on every lookup, so restoring one
    whose trees have since changed costs a rebuild, never a stale hit.
    """
    forest._flat_memo = entry


__all__ = [
    "FlatForest",
    "build_flat_forest",
    "expand_ranges",
    "flat_cache_entry",
    "flat_forest_of",
    "restore_flat_cache",
]
