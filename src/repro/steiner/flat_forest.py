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

The memo (:func:`flat_forest_of`) lives on the forest.  Every edit that
can change a tree's flattening stamps its slot on the forest: tree-list
surgery (``SteinerForest.refresh_offsets``), an edge rewrite
(``invalidate_topology()``, which also replaces the memoized topology
``tree._topo``) and re-placement (a new ``tree.pin_xy`` array);
coordinate moves do none of these.  A lookup re-checks only the slots
stamped since its entry, by the identity of the tree's topology and pin
array, re-gathers the trees that changed and splices them into the
entry's flattening, field by field, without re-assembling the others.
A spliced flattening names the one it was spliced from (weakly) and the
slots it re-gathered (:func:`spliced_slots`), so an STA state timed on
the older one re-times only those trees.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, ClassVar, List, Optional, Sequence, Tuple

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
    depth: np.ndarray  # (N,) BFS depth from the tree's driver, 0 at roots/unreached
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

    #: Set on a flattening made from a memo entry's: ``(weak reference
    #: to that one, slots whose trees changed)``.  Not a field: it is not
    #: part of the flattening's value, and it is dropped when pickled.
    lineage: ClassVar[Optional[Tuple["weakref.ref", np.ndarray]]] = None

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("lineage", None)
        return state

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

    def steiner_rows_of_trees(self, trees: np.ndarray) -> np.ndarray:
        """Rows of the forest's coordinate matrix owned by ``trees``."""
        return expand_ranges(
            np.searchsorted(self.steiner_tree, trees),
            np.searchsorted(self.steiner_tree, trees + 1),
        )


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
    counts and the ragged arrays they delimit."""

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


def _levels(edge_child: np.ndarray, depth: np.ndarray) -> List[np.ndarray]:
    """Reached nodes by BFS depth, ascending ids within a depth: one
    stable sort of their depths, as the smallest unsigned type that
    holds them (numpy sorts 8- and 16-bit keys by radix)."""
    if not edge_child.size:
        return []
    d = depth[edge_child]
    by_depth = edge_child[np.argsort(d.astype(np.min_scalar_type(d.max())), kind="stable")]
    per_depth = np.bincount(d)[1:]
    return np.split(by_depth, np.cumsum(per_depth[per_depth > 0])[:-1])


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
        depth=cols.depth,
        levels=_levels(edge_child, cols.depth),
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


def _row_starts(flat: FlatForest, kind: str, trees: np.ndarray) -> np.ndarray:
    """First row of each of ``trees`` (tree ids, ``n_trees`` allowed) in
    the rows of ``kind``: ``node``, ``edge`` (directed RC edges),
    ``fedge`` (undirected forest edges), ``pin``, ``steiner``, ``sink``
    or ``tree``.  Every kind is tree-contiguous in tree order."""
    if kind == "node":
        return flat.node_offset[trees]
    if kind == "edge":
        return flat.edge_offset[trees]
    if kind == "sink":
        return flat.sink_offset[trees]
    if kind == "fedge":
        return np.searchsorted(flat.forest_edge_tree, trees)
    if kind == "pin":
        return np.searchsorted(flat.pin_rows, flat.node_offset[trees])
    if kind == "steiner":
        return np.searchsorted(flat.steiner_tree, trees)
    return np.asarray(trees)


#: What a splice copies, per field: its row kind and the id space its
#: values live in (shifted by where a run of trees lands; None for
#: plain values).  ``parent`` and ``forest_edge_row`` keep their -1s.
_SPLICED = (
    ("node", "tree_of_node", "tree"),
    ("node", "parent", "node"),
    ("node", "depth", None),
    ("node", "base_xy", None),
    ("edge", "edge_child", "node"),
    ("edge", "edge_tree", "tree"),
    ("edge", "edge_local", None),
    ("fedge", "forest_edge_row", "edge"),
    ("fedge", "forest_edge_u", "node"),
    ("fedge", "forest_edge_v", "node"),
    ("fedge", "forest_edge_tree", "tree"),
    ("fedge", "forest_edge_local", None),
    ("fedge", "forest_edge_net", None),
    ("pin", "pin_rows", "node"),
    ("steiner", "steiner_rows", "node"),
    ("steiner", "steiner_tree", "tree"),
    ("sink", "sink_rows", "node"),
    ("sink", "sink_pin", None),
    ("sink", "sink_tree", "tree"),
    ("tree", "net_of_tree", None),
    ("tree", "tree_has_edges", None),
)
_KINDS = ("node", "edge", "fedge", "pin", "steiner", "sink", "tree")


def _kept_runs(slots: Sequence[int], keep: int) -> List[Tuple[int, int]]:
    """Maximal runs ``[a, b)`` of trees below ``keep`` not in ``slots``
    (ascending)."""
    runs, prev = [], 0
    for t in slots:
        if t >= keep:
            break
        if t > prev:
            runs.append((prev, t))
        prev = t + 1
    if prev < keep:
        runs.append((prev, keep))
    return runs


def _splice(old: FlatForest, n_trees: int, slots: List[int], new: FlatForest) -> FlatForest:
    """``old`` cut to ``n_trees`` trees, with tree ``slots[j]``
    (ascending; every slot past ``old``'s end is listed) replaced by
    tree ``j`` of ``new``.

    Every field is the concatenation, in tree order, of the runs of
    kept trees' rows of ``old`` and the re-gathered trees' rows of
    ``new``, each shifted to where its run lands; the offsets come from
    the runs' per-tree counts and the levels from one sort of the
    spliced depths.  Bitwise the assembly of the edited forest.  Builds
    new arrays: ``old`` is neither written nor referenced.
    """
    # Pieces in tree order: (source, first tree, end tree, first slot).
    pieces = [(old, a, b, a) for a, b in _kept_runs(slots, min(n_trees, old.n_trees))]
    j = 0
    while j < len(slots):
        e = j + 1
        while e < len(slots) and slots[e] == slots[e - 1] + 1:
            e += 1
        pieces.append((new, j, e, slots[j]))
        j = e
    pieces.sort(key=lambda p: p[3])

    def offsets(name: str) -> np.ndarray:
        parts = []
        for src, a, b, _ in pieces:
            o = getattr(src, name)
            parts.append(o[a + 1 : b + 1] - o[a:b])
        return _offsets(np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64))

    node_offset, edge_offset = offsets("node_offset"), offsets("edge_offset")
    spans, shifts = [], []
    for src, a, b, dst in pieces:
        ends = np.array([a, b], dtype=np.int64)
        spans.append({k: _row_starts(src, k, ends).tolist() for k in _KINDS})
        shifts.append({
            "node": int(node_offset[dst] - src.node_offset[a]),
            "edge": int(edge_offset[dst] - src.edge_offset[a]),
            "tree": dst - a,
        })
    fields = {}
    for kind, name, space in _SPLICED:
        # Each piece lands right after the previous one.
        size = sum(span[kind][1] - span[kind][0] for span in spans)
        like = getattr(old, name)
        out = fields[name] = np.empty((size,) + like.shape[1:], dtype=like.dtype)
        at = 0
        for (src, _, _, _), span, shift in zip(pieces, spans, shifts):
            lo, hi = span[kind]
            rows, dst = getattr(src, name)[lo:hi], out[at : at + hi - lo]
            at += hi - lo
            step = shift[space] if space is not None else 0
            if not step:
                dst[...] = rows
            elif name in ("parent", "forest_edge_row"):
                dst[...] = np.where(rows >= 0, rows + step, rows)
            else:
                np.add(rows, step, out=dst)
    return FlatForest(
        n_trees=n_trees,
        n_nodes=int(node_offset[-1]),
        node_offset=node_offset,
        levels=_levels(fields["edge_child"], fields["depth"]),
        edge_offset=edge_offset,
        sink_offset=offsets("sink_offset"),
        tree_root=node_offset[:-1].copy(),
        **fields,
    )


def flat_forest_of(forest: "SteinerForest") -> FlatForest:
    """Memoized :func:`build_flat_forest`, re-checked and spliced per
    edited slot.

    The entry holds the flattening, each tree's memoized
    :class:`~repro.steiner.tree.TreeTopology` and ``pin_xy`` array, and
    the forest's edit clock when it was made.  A lookup re-checks only
    the slots the forest stamped since (see the module docstring): a
    slot whose tree no longer has that topology or pin array changed,
    and so did every slot past the entry's last tree.  Coordinate moves
    keep the entry.  Edits to at most a quarter of the trees are
    re-gathered alone and spliced into the entry's flattening
    (:func:`_splice`); without an entry, or past that share, every tree
    is gathered and assembled.  Either way the result is a new
    :class:`FlatForest` (an older one, which ECO undo entries and STA
    states hold, is never written), and one made from an entry records
    it in ``lineage`` with the slots that changed.  Each flattening
    books one ``steiner.flatten`` span; a splice's carries
    ``spliced=<trees re-gathered>`` and counts ``steiner.flat_splices``.
    """
    tel = get_telemetry()
    trees = forest.trees
    T = len(trees)
    entry = forest._flat_memo
    slots = None
    if entry is not None:
        old, topo_refs, pin_refs, clock = entry
        T0 = old.n_trees
        stamped = np.flatnonzero(forest._stamps[: min(T0, T)] > clock).tolist()
        slots = [
            i for i in stamped
            if trees[i]._topo is not topo_refs[i] or trees[i].pin_xy is not pin_refs[i]
        ]
        slots.extend(range(T0, T))
        if not slots and T0 == T:
            if tel.enabled:
                tel.count("sta.flat_cache_hits")
            return old
    if tel.enabled:
        tel.count("sta.flat_cache_misses")
    if slots is None or 4 * len(slots) > T:
        # Past a quarter of the trees, splicing costs more.
        with tel.span("steiner.flatten", trees=T):
            flat = build_flat_forest(forest)
        topo_refs = [t._topo for t in trees]
        pin_refs = [t.pin_xy for t in trees]
    else:
        if tel.enabled:
            tel.count("steiner.flat_splices")
        picked = [trees[i] for i in slots]
        with tel.span("steiner.flatten", trees=T, spliced=len(slots)):
            flat = _splice(old, T, slots, _assemble(_gather(picked)))
        topo_refs, pin_refs = topo_refs[:T], pin_refs[:T]
        for i, tree in zip(slots, picked):
            if i < len(topo_refs):
                topo_refs[i], pin_refs[i] = tree._topo, tree.pin_xy
            else:
                topo_refs.append(tree._topo)
                pin_refs.append(tree.pin_xy)
    if slots is not None:
        flat.lineage = (weakref.ref(old), np.array(slots, dtype=np.int64))
    forest._flat_memo = (flat, topo_refs, pin_refs, forest._clock)
    return flat


#: How many splices back :func:`spliced_slots` follows a lineage.
_LINEAGE_DEPTH = 8


def spliced_slots(old: FlatForest, new: FlatForest) -> Optional[np.ndarray]:
    """Slots of ``new`` whose trees may differ from ``old``'s, when
    ``new`` descends from ``old`` through at most a few splices: the
    slots re-gathered along the way, and every slot past ``old``'s last
    tree (ascending).  None when ``old`` is not such an ancestor (or a
    flattening in between is gone): then any tree may differ."""
    parts = [np.arange(old.n_trees, new.n_trees, dtype=np.int64)]
    flat = new
    for _ in range(_LINEAGE_DEPTH):
        if flat.lineage is None:
            return None
        ref, slots = flat.lineage
        parts.append(slots)
        flat = ref()
        if flat is old:
            out = np.unique(np.concatenate(parts))
            return out[out < new.n_trees]
        if flat is None:
            return None
    return None


class Carry:
    """Per-row arrays of ``old`` laid out on ``new``, for the trees the
    two share: every tree below both counts that is not in ``slots``
    (ascending; see :func:`spliced_slots`) keeps its rows, which move as
    a few blocks.  Rows of the listed slots are left zero."""

    def __init__(self, old: FlatForest, new: FlatForest, slots: np.ndarray) -> None:
        self.old, self.new = old, new
        keep = min(old.n_trees, new.n_trees)
        self.runs = [] if slots.size >= keep else _kept_runs(slots.tolist(), keep)

    def rows(self, kind: str, values: np.ndarray) -> np.ndarray:
        """``values`` (one row per ``kind`` row of ``old``: ``node``,
        ``edge`` or ``tree``) on ``new``'s rows."""
        size = {"node": self.new.n_nodes, "edge": self.new.n_edges, "tree": self.new.n_trees}
        out = np.zeros((size[kind],) + values.shape[1:], dtype=values.dtype)
        for a, b in self.runs:
            ends = np.array([a, b], dtype=np.int64)
            lo, hi = _row_starts(self.old, kind, ends).tolist()
            at = int(_row_starts(self.new, kind, ends[:1])[0])
            out[at : at + hi - lo] = values[lo:hi]
        return out


def flat_cache_entry(forest: "SteinerForest") -> Optional[tuple]:
    """The forest's :func:`flat_forest_of` memo entry (None if unset),
    opaque; hand it back to :func:`restore_flat_cache`."""
    return forest._flat_memo


def restore_flat_cache(forest: "SteinerForest", entry: Optional[tuple]) -> None:
    """Reinstate a memo entry taken by :func:`flat_cache_entry` from
    this forest (None leaves the forest without one).

    A lookup still re-checks every slot edited since the entry was
    made, so restoring one whose trees have since changed costs a
    splice, never a stale hit.
    """
    forest._flat_memo = entry


__all__ = [
    "Carry",
    "FlatForest",
    "build_flat_forest",
    "expand_ranges",
    "flat_cache_entry",
    "flat_forest_of",
    "restore_flat_cache",
    "spliced_slots",
]
