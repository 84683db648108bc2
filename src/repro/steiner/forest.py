"""Steiner forest: one tree per net, all Steiner points in one matrix.

TSteiner refines all Steiner points of a design as one ``(S, 2)``
matrix (concurrent refinement, Definition 1 of the paper).  The forest
owns it, ``SteinerForest.coords``, as the only coordinate storage: each
tree's ``steiner_xy`` is a view of its rows, written through slices or
the forest API, never rebound.  A tree belongs to one forest (building
a forest from another's trees re-binds them), and ``refresh_offsets``
re-lays the rows after every tree-list edit (from the first edited
slot on, in place), so hold ``coords`` only briefly.  The forest
keeps a net -> slot map (``tree_slot`` is one lookup) and, per slot,
the clock of the last edit that may have changed the tree's
flattening, which the flat memo reads instead of sweeping the trees.
It also clamps against the routing grid and runs the final rounding step
Fig. 4 of the paper describes.
"""

from __future__ import annotations

import hashlib
import weakref
from collections import OrderedDict
from operator import is_
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
        #: Edit clock, and per slot the clock of the last edit that may
        #: have changed its tree's flattening (the flat memo re-checks
        #: only slots stamped after its entry).
        self._clock = 0
        self._stamps = np.zeros(0, dtype=np.int64)
        #: net index -> slot (built lazily, kept by ``refresh_offsets``).
        self._slot_of: Optional[Dict[int, int]] = None
        self._ref = weakref.ref(self)
        self.refresh_offsets()

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_ref"]
        return state

    def __setstate__(self, state: dict) -> None:
        # Unpickled trees hold copies, not views: re-join them.
        self.__dict__.update(state)
        self._slot_of = None
        self._ref = weakref.ref(self)
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
        there (found by one identity compare, and whose row counts are
        the old offsets) move as blocks, and only trees that are new or
        whose rows moved are re-bound.  A new forest (or a full buffer)
        joins every tree into a new buffer.  A tree that leaves the list
        from ``start`` on is handed a private copy of its points first,
        so an undo that puts it back finds them intact.  Each slot that
        holds a new tree is stamped for the flat memo, and the net ->
        slot map follows the edit.
        """
        trees = self.trees
        bound = self._bound
        self._clock += 1
        if bound is None:
            counts = np.fromiter((len(t.steiner_xy) for t in trees), np.int64, len(trees))
            offsets = _offsets(counts)
            rows = int(offsets[-1])
            values = np.concatenate([np.empty((0, 2))] + [t.steiner_xy for t in trees])
            buf = self._buffer = np.empty((rows + max(rows // 16, 64), 2))
            buf[:rows] = values
            owner = self._ref
            for t, a, b in zip(trees, offsets[:-1].tolist(), offsets[1:].tolist()):
                t.steiner_xy = buf[a:b]
                t._owner = owner
            self._stamps = np.full(len(trees), self._clock, dtype=np.int64)
            self._slot_of = None
            self._commit(offsets, rows)
            return

        start = min(start, len(trees), len(bound))
        tail = trees[start:]
        n = min(len(tail), len(bound) - start)
        # Trees the last call bound here that are still in place.
        kept = np.zeros(len(tail), dtype=bool)
        kept[:n] = np.fromiter(map(is_, bound[start : start + n], tail), bool, n)
        fresh = np.flatnonzero(~kept).tolist()
        old = self._offsets
        counts = np.empty(len(tail), dtype=np.int64)
        counts[:n] = np.diff(old[start : start + n + 1])
        for i in fresh:
            counts[i] = len(tail[i].steiner_xy)
        offsets = np.empty(len(trees) + 1, dtype=np.int64)
        offsets[: start + 1] = old[: start + 1]
        np.cumsum(counts, out=offsets[start + 1 :])
        offsets[start + 1 :] += offsets[start]
        rows = int(offsets[-1])
        if rows > self._buffer.shape[0]:
            self._bound = None  # the buffer is full: start over
            self.refresh_offsets()
            return
        gone = [bound[start + i] for i in fresh if i < n] + bound[start + len(tail) :]
        if gone:
            staying = {id(tail[i]) for i in fresh}
            for tree in gone:
                if id(tree) not in staying:
                    tree.steiner_xy = tree.steiner_xy.copy()
        # Kept runs move as blocks, other trees one by one; all are read
        # before any row is written.
        buf = self._buffer
        parts, i = [], 0
        for j in fresh + [len(tail)]:
            if j > i:
                parts.append(buf[old[start + i] : old[start + j]])
            if j < len(tail):
                parts.append(tail[j].steiner_xy)
            i = j + 1
        buf[offsets[start] : rows] = np.concatenate([np.empty((0, 2))] + parts)
        moved = np.ones(len(tail), dtype=bool)
        moved[:n] = ~kept[:n] | (offsets[start : start + n] != old[start : start + n])
        for i in np.flatnonzero(moved).tolist():
            k = start + i
            tail[i].steiner_xy = buf[offsets[k] : offsets[k + 1]]
        owner = self._ref
        for i in fresh:
            tail[i]._owner = owner

        stamps = self._stamps
        if stamps.size != len(trees):
            stamps = np.zeros(len(trees), dtype=np.int64)
            keep = min(len(trees), self._stamps.size)
            stamps[:keep] = self._stamps[:keep]
            self._stamps = stamps
        stamps[[start + i for i in fresh]] = self._clock
        self._remap_slots(start, gone, fresh)
        self._commit(offsets, rows)

    def _commit(self, offsets: np.ndarray, rows: int) -> None:
        self._offsets = offsets
        self._bound = list(self.trees)
        #: (S, 2) float64: every Steiner point of the design (a view of
        #: the first S rows of a buffer with spare rows).
        self.coords = self._buffer[:rows]

    def _remap_slots(self, start: int, gone: List[SteinerTree], fresh: List[int]) -> None:
        """Keep the net -> slot map through one ``refresh_offsets`` edit:
        the nets of trees that left their slot go, the new trees' come
        in.  A map that held (or would hold) two trees of one net is
        dropped and rebuilt on the next lookup."""
        slot_of = self._slot_of
        if slot_of is None:
            return
        if len(slot_of) != len(self._bound):
            self._slot_of = None  # built over duplicate nets
            return
        bound = self._bound
        for tree in gone:
            slot = slot_of.get(tree.net_index)
            if slot is not None and slot < len(bound) and bound[slot] is tree:
                del slot_of[tree.net_index]
        trees = self.trees
        for i in fresh:
            slot_of[trees[start + i].net_index] = start + i
        if len(slot_of) != len(trees):
            self._slot_of = None

    def _touch(self, tree: SteinerTree) -> None:
        """Stamp ``tree``'s slot: its flattening changed in place (an
        edge rewrite or a new ``pin_xy``).  A tree no longer in the
        list is ignored."""
        trees = self.trees
        try:
            slot = self.tree_slot(tree.net_index)
        except KeyError:
            slot = None
        if slot is None or slot >= len(trees) or trees[slot] is not tree:
            slot = next((i for i, t in enumerate(trees) if t is tree), None)
        # A slot past the stamps awaits ``refresh_offsets``, which stamps it.
        if slot is not None and slot < self._stamps.size:
            self._clock += 1
            self._stamps[slot] = self._clock

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
        """Index into ``trees`` of net ``net_index``'s tree (the first,
        should two trees share a net): one lookup in the net -> slot map
        ``refresh_offsets`` keeps."""
        slot_of = self._slot_of
        if slot_of is None:
            slot_of = self._slot_of = {}
            for i in range(len(self.trees) - 1, -1, -1):
                slot_of[self.trees[i].net_index] = i
        slot = slot_of.get(net_index)
        if slot is None:
            raise KeyError(f"no tree for net {net_index}")
        return slot

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
        # Edits pending against the shared entry stay pending in the copy.
        out._clock, out._stamps = self._clock, self._stamps.copy()
        return out

    def validate(self) -> None:
        for tree in self.trees:
            tree.validate()

    def refresh_pin_positions(self) -> None:
        """Re-read pin coordinates from the netlist (after re-placement)."""
        pos = self.netlist.pin_positions()
        for tree in self.trees:
            tree.pin_xy = pos[np.array(tree.pin_ids, dtype=np.int64)]  # stamps its slot


def _offsets(counts: np.ndarray) -> np.ndarray:
    out = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


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
