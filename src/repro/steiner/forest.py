"""Steiner forest: one tree per net, all Steiner points in one matrix.

TSteiner refines all Steiner points of a design as one ``(S, 2)``
matrix (concurrent refinement, Definition 1 of the paper).  The forest
owns it, ``SteinerForest.coords``, as the only coordinate storage: each
tree's ``steiner_xy`` is a view of its rows, written through slices or
the forest API, never rebound.  A tree belongs to one forest (building
a forest from another's trees re-binds them), and ``refresh_offsets``
re-lays the rows after every tree-list edit (from the first edited
slot on, in place), so hold ``coords`` only briefly.  The forest also
clamps against the routing grid and runs the final rounding step
Fig. 4 of the paper describes.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.netlist.netlist import Netlist
from repro.obs import get_telemetry
from repro.steiner.flat_build import construct_trees_flat
from repro.steiner.tree import SteinerTree


class SteinerForest:
    """All Steiner trees of a design."""

    def __init__(self, netlist: Netlist, trees: List[SteinerTree]) -> None:
        self.netlist = netlist
        self.trees = trees
        #: :func:`repro.steiner.flat_forest.flat_forest_of`'s memo entry.
        self._flat_memo: Optional[tuple] = None
        #: The trees the last ``refresh_offsets`` bound, in slot order.
        self._bound: Optional[List[SteinerTree]] = None
        self.refresh_offsets()

    def __setstate__(self, state: dict) -> None:
        # Unpickled trees hold copies, not views: re-join them.
        self.__dict__.update(state)
        self._bound = None
        self.refresh_offsets()

    def refresh_offsets(self, start: int = 0) -> None:
        """Join the trees' Steiner points into ``coords`` and point each
        tree at its rows (at construction and after any surgery on the
        tree list).

        ``start`` is the first slot the surgery touched: the trees before
        it are the ones the last call bound, and keep their rows and
        views untouched.  ``coords`` is a view of a buffer with spare
        rows, so while the buffer has room the rows from ``start`` on
        are re-laid in place: the runs of trees the last call bound
        there move as blocks, and only trees that are new or whose rows
        moved are re-bound.  A new forest (or a full buffer) joins every
        tree into a new buffer.  A tree that leaves the list from
        ``start`` on is handed a private copy of its points first, so
        an undo that puts it back finds them intact.
        """
        trees = self.trees
        bound = self._bound
        start = min(start, len(trees), len(bound)) if bound is not None else 0
        tail = trees[start:]
        counts = np.fromiter((len(t.steiner_xy) for t in tail), np.int64, len(tail))
        offsets = np.empty(len(trees) + 1, dtype=np.int64)
        offsets[: start + 1] = self._offsets[: start + 1] if start else 0
        np.cumsum(counts, out=offsets[start + 1 :])
        offsets[start + 1 :] += offsets[start]
        rows = int(offsets[-1])
        if bound is not None and rows > self._buffer.shape[0]:
            self._bound = None  # the buffer is full: start over
            self.refresh_offsets()
            return
        if bound is not None:
            # Trees the last call bound here that are still in place.
            buf, old = self._buffer, self._offsets
            kept = np.zeros(len(tail), dtype=bool)
            kept[: len(bound) - start] = [
                o is t and t.steiner_xy.base is buf for o, t in zip(bound[start:], tail)
            ]
            gone = [o for o, k in zip(bound[start:], kept) if not k]
            gone += bound[start + len(tail) :]
            if gone:
                staying = set(map(id, tail))
                for tree in gone:
                    if id(tree) not in staying:
                        tree.steiner_xy = tree.steiner_xy.copy()
        if bound is None:
            values = np.concatenate([np.empty((0, 2))] + [t.steiner_xy for t in tail])
            self._buffer = np.empty((rows + max(rows // 16, 64), 2))
            rebind = range(len(tail))
        else:
            # Kept runs move as blocks, other trees one by one; all are
            # read before any row is written.
            parts, i = [], 0
            for j in np.flatnonzero(~kept).tolist() + [len(tail)]:
                if j > i:
                    parts.append(buf[old[start + i] : old[start + j]])
                if j < len(tail):
                    parts.append(tail[j].steiner_xy)
                i = j + 1
            values = np.concatenate([np.empty((0, 2))] + parts)
            n = min(len(tail), old.size - 1 - start)
            moved = np.ones(len(tail), dtype=bool)
            moved[:n] = ~kept[:n] | (offsets[start : start + n] != old[start : start + n])
            rebind = np.flatnonzero(moved).tolist()
        buf = self._buffer
        buf[offsets[start] : rows] = values
        for i in rebind:
            k = start + i
            tail[i].steiner_xy = buf[offsets[k] : offsets[k + 1]]
        self._offsets = offsets
        self._bound = list(trees)
        #: (S, 2) float64: every Steiner point of the design (a view of
        #: the first S rows of a buffer with spare rows).
        self.coords = buf[:rows]

    # ------------------------------------------------------------------
    @property
    def num_trees(self) -> int:
        return len(self.trees)

    @property
    def num_steiner_points(self) -> int:
        return int(self._offsets[-1])

    @property
    def num_edges(self) -> int:
        return sum(len(t.edges) for t in self.trees)

    def tree_slot(self, net_index: int) -> int:
        """Index into ``trees`` of net ``net_index``'s tree."""
        for i, tree in enumerate(self.trees):
            if tree.net_index == net_index:
                return i
        raise KeyError(f"no tree for net {net_index}")

    def tree_for_net(self, net_index: int) -> SteinerTree:
        return self.trees[self.tree_slot(net_index)]

    def steiner_slice(self, tree_idx: int) -> slice:
        """Rows of ``coords`` holding tree ``tree_idx``'s Steiner points."""
        return slice(int(self._offsets[tree_idx]), int(self._offsets[tree_idx + 1]))

    # ------------------------------------------------------------------
    # Flat coordinate view
    # ------------------------------------------------------------------
    def get_steiner_coords(self) -> np.ndarray:
        """(S, 2) Steiner coordinates (a private copy of ``coords``)."""
        return self.coords.copy()

    def set_steiner_coords(self, coords: np.ndarray) -> None:
        """Write an (S, 2) coordinate matrix into ``coords``."""
        coords = np.asarray(coords, dtype=np.float64).reshape(-1, 2)
        if coords.shape[0] != self.num_steiner_points:
            raise ValueError(
                f"expected {self.num_steiner_points} Steiner points, got {coords.shape[0]}"
            )
        self.coords[...] = coords

    def clamp_coords(self, coords: np.ndarray) -> np.ndarray:
        """Clamp a flat coordinate matrix to the routing-grid boundary."""
        out = np.asarray(coords, dtype=np.float64).reshape(-1, 2).copy()
        np.clip(out[:, 0], 0.0, self.netlist.die_width, out=out[:, 0])
        np.clip(out[:, 1], 0.0, self.netlist.die_height, out=out[:, 1])
        return out

    @staticmethod
    def round_array(coords: np.ndarray) -> np.ndarray:
        """Snap coordinates to the 0.01 um manufacturing grid."""
        return np.round(np.asarray(coords, dtype=np.float64) * 100.0) / 100.0

    def round_coords(self) -> None:
        """Post-processing: snap Steiner coordinates to integer dbu.

        The paper rounds final positions onto the grid; we round to the
        nearest 0.01 um (a 10 nm manufacturing grid).
        """
        self.coords[...] = self.round_array(self.coords)

    # ------------------------------------------------------------------
    def total_wirelength(self) -> float:
        return float(sum(t.wirelength() for t in self.trees))

    def two_pin_segments(self) -> List[Tuple[int, Tuple[float, float], Tuple[float, float]]]:
        """All tree edges as (net_index, (x1, y1), (x2, y2)) segments.

        This is the decomposition of multi-pin nets into two-pin nets
        that global routing consumes.
        """
        segments = []
        for tree in self.trees:
            for a, b in tree.segments():
                segments.append((tree.net_index, a, b))
        return segments

    def copy(self) -> "SteinerForest":
        """A forest with a private ``coords`` matrix and edge lists.

        Topology does not change under coordinate moves, so the copy
        shares each tree's ``pin_ids``/``pin_xy`` (read-only: re-placement
        reassigns them) and memoized topology, and with them the flat
        memo entry: timing or routing a copy re-uses this forest's
        flattening until either side edits its trees.
        """
        trusted = SteinerTree._trusted
        trees = []
        for t in self.trees:
            # ``steiner_xy`` is re-bound to the copy's own matrix below.
            c = trusted(t.net_index, t.pin_ids, t.pin_xy, t.steiner_xy, list(t.edges))
            c._topo = t._topo
            trees.append(c)
        out = SteinerForest(self.netlist, trees)
        out._flat_memo = self._flat_memo
        return out

    def validate(self) -> None:
        for tree in self.trees:
            tree.validate()

    def refresh_pin_positions(self) -> None:
        """Re-read pin coordinates from the netlist (after re-placement)."""
        pos = self.netlist.pin_positions()
        for tree in self.trees:
            tree.pin_xy = pos[np.array(tree.pin_ids, dtype=np.int64)]


#: Forest memo keyed by (geometry digest, skip_degenerate).
#: Content-addressed rather than object-identity-addressed: serve
#: warm-state rebuilds and repeated flow runs construct *new* Netlist
#: objects with byte-identical geometry, which an identity cache would
#: always miss.  Bounded LRU; entries are master copies, callers get
#: private copies (:meth:`SteinerForest.copy`, rebound to their netlist;
#: refinement mutates Steiner coordinates in place).
_FOREST_CACHE: "OrderedDict[Tuple[bytes, bool], SteinerForest]" = OrderedDict()
_FOREST_CACHE_CAP = 8


def _forest_digest(netlist: Netlist, pos: np.ndarray) -> bytes:
    """Digest of everything the initial construction depends on."""
    h = hashlib.blake2b(digest_size=16)
    h.update(pos.tobytes())
    for net in netlist.nets:
        h.update(np.int64(net.driver).tobytes())
        h.update(np.array(net.sinks, dtype=np.int64).tobytes())
    return h.digest()


def clear_forest_cache() -> None:
    """Drop all memoized forests (tests / memory pressure)."""
    _FOREST_CACHE.clear()


def build_forest(
    netlist: Netlist,
    skip_degenerate: bool = True,
    cache: bool = True,
) -> SteinerForest:
    """Construct initial Steiner trees for every net of ``netlist``.

    Runs the batched whole-design kernels of
    :mod:`repro.steiner.flat_build`, bitwise-equal to one per-net
    ``construct_tree`` call each (the oracle
    ``repro.testing.oracles.reference_forest``; tests/test_flat_steiner.py).
    ``cache=True`` memoizes by geometry digest so repeated builds of
    identical geometry (serve warm-state rebuilds, flow re-runs) return
    a fork of the cached forest instead of reconstructing.
    """
    tel = get_telemetry()
    pos = netlist.pin_positions()
    key = None
    if cache:
        key = (_forest_digest(netlist, pos), bool(skip_degenerate))
        master = _FOREST_CACHE.get(key)
        if master is not None:
            _FOREST_CACHE.move_to_end(key)
            if tel.enabled:
                tel.count("steiner.cache_hits")
            fork = master.copy()
            fork.netlist = netlist
            return fork
        if tel.enabled:
            tel.count("steiner.cache_misses")

    with tel.span("forest_build", design=netlist.name) as span:
        net_indices: List[int] = []
        net_pins: List[List[int]] = []
        for net in netlist.nets:
            pins = net.pins
            if skip_degenerate and len(pins) < 2:
                continue
            net_indices.append(net.index)
            net_pins.append(pins)
        trees = construct_trees_flat(net_indices, net_pins, pos)
        forest = SteinerForest(netlist, trees)
        if tel.enabled:
            buckets = {1: 0, 2: 0, 3: 0, 4: 0}
            for t in trees:
                d = t.n_pins
                buckets[d if d < 4 else 4] += 1
            span.annotate(
                n_trees=len(trees),
                n_steiner=forest.num_steiner_points,
                deg1=buckets[1],
                deg2=buckets[2],
                deg3=buckets[3],
                deg4plus=buckets[4],
            )

    if cache:
        _FOREST_CACHE[key] = forest.copy()
        while len(_FOREST_CACHE) > _FOREST_CACHE_CAP:
            _FOREST_CACHE.popitem(last=False)
    return forest
