"""Flat (whole-design) batched Steiner tree construction.

:func:`repro.steiner.rsmt.construct_tree` builds one tree at a time in
Python — dozens of tiny numpy calls per net.  This module constructs
the initial trees of **all nets at once** by bucketing nets by degree
over CSR pin arrays (same idiom as ``sta/flat.py``):

* **1 pin** — degenerate, no edges (only reachable with
  ``skip_degenerate=False``);
* **2 pins** — one batched corner kernel: the L-bend corner of every
  two-pin net of the design in two vector ops;
* **3 pins** — one batched rectilinear-median kernel: ``np.median``
  over a ``(G, 3, 2)`` block plus per-leg corner masks; nets whose
  median coincides with a pin fall back to the (rare) per-net star
  constructor, matching the reference case split;
* **4+ pins** — a batched Prim over padded ``(G, d, d)`` distance
  blocks (one ``argmin`` per MST step for *all* degree-``d`` nets
  simultaneously) followed by vectorized L-corner insertion toward the
  net centroid.  Nets with coincident node coordinates — the only case
  where the reference runs its Steinerization merge — are detected with
  one batched duplicate scan and handed to the exact per-net merge
  pass.

The contract is **bitwise equality**: for every net, the flat builder
produces the same pin order, the same Steiner coordinates (same floats,
not just close), and the same edge list as ``construct_tree``.  The
per-net constructor stays in production for coincident-node nets, is
the oracle's building block (``repro.testing.oracles.reference_forest``)
and is the fallback arm a future learned topology seeder will need.

Corner-choice rule (shared with ``rsmt._corner_for``): of the two
L-shapes between ``a`` and ``b``, take the corner closer (L1) to the
net centroid; ties — including every 2-pin net, whose centroid is the
segment midpoint and therefore always equidistant — break to the
``(b.x, a.y)`` corner.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.steiner.rsmt import _merge_coincident_steiner, _star_tree
from repro.steiner.tree import SteinerTree

#: Shared empty Steiner block for degenerate/aligned nets.  Safe to
#: share across trees: zero-size in-place writes are no-ops and every
#: code path that grows/shrinks Steiner storage *reassigns* the
#: attribute instead of resizing in place.
_EMPTY_STEINER = np.zeros((0, 2), dtype=np.float64)

#: Degree-2 edge templates (copied per tree — edge lists are mutable).
_EDGES_ALIGNED = [(0, 1)]
_EDGES_BEND = [(0, 2), (2, 1)]


def _three_pin_templates() -> Dict[int, List[Tuple[int, int]]]:
    """Edge lists for the 8 corner patterns of a 3-pin median tree.

    Bit ``i`` of the key says leg ``i`` needs an L-corner.  Node 3 is
    the median; corner nodes are numbered 4.. in leg order, replicating
    the append order of the reference constructor.
    """
    out: Dict[int, List[Tuple[int, int]]] = {}
    for pattern in range(8):
        edges: List[Tuple[int, int]] = []
        next_id = 4
        for leg in range(3):
            if pattern >> leg & 1:
                edges.append((leg, next_id))
                edges.append((next_id, 3))
                next_id += 1
            else:
                edges.append((leg, 3))
        out[pattern] = edges
    return out


_TEMPLATES3 = _three_pin_templates()


def construct_trees_flat(
    net_indices: Sequence[int],
    net_pins: Sequence[List[int]],
    pos: np.ndarray,
) -> List[SteinerTree]:
    """Batched :func:`~repro.steiner.rsmt.construct_tree` over many nets.

    ``net_indices[i]`` / ``net_pins[i]`` describe net ``i`` (global pin
    ids into ``pos``); the returned trees are in input order and
    bitwise-equal to the per-net reference.  The ``pin_ids`` lists are
    stored on the trees without copying, matching the reference.
    """
    n = len(net_pins)
    if n == 0:
        return []
    pos = np.asarray(pos, dtype=np.float64).reshape(-1, 2)
    deg = np.fromiter((len(p) for p in net_pins), dtype=np.int64, count=n)
    off = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(deg, out=off[1:])
    total = int(off[-1])
    flat_pins = np.fromiter(
        (p for pins in net_pins for p in pins), dtype=np.int64, count=total
    )
    axy = pos[flat_pins]  # (P, 2) gathered pin coordinates, net-contiguous

    steiner_of: List[Optional[np.ndarray]] = [None] * n
    edges_of: List[Optional[List[Tuple[int, int]]]] = [None] * n
    star_hub: Dict[int, int] = {}  # net position -> hub pin (rare)
    merge_pending: List[int] = []  # net positions needing the merge pass

    # -- degree 1: no edges ------------------------------------------------
    for i in np.flatnonzero(deg < 2).tolist():
        steiner_of[i] = _EMPTY_STEINER
        edges_of[i] = []

    # -- degree 2: batched L-corner ---------------------------------------
    i2 = np.flatnonzero(deg == 2)
    if i2.size:
        a = axy[off[i2]]
        b = axy[off[i2] + 1]
        bend = (a[:, 0] != b[:, 0]) & (a[:, 1] != b[:, 1])
        # Centroid rule: the 2-pin centroid is the midpoint, always a
        # tie, so every bend takes the (b.x, a.y) corner.
        corners = np.stack([b[:, 0], a[:, 1]], axis=1)
        bend_l = bend.tolist()
        for k, i in enumerate(i2.tolist()):
            if bend_l[k]:
                steiner_of[i] = corners[k : k + 1]
                edges_of[i] = list(_EDGES_BEND)
            else:
                steiner_of[i] = _EMPTY_STEINER
                edges_of[i] = list(_EDGES_ALIGNED)

    # -- degree 3: batched rectilinear median ------------------------------
    i3 = np.flatnonzero(deg == 3)
    if i3.size:
        c = axy[off[i3][:, None] + np.arange(3)]  # (G, 3, 2)
        med = np.median(c, axis=1)  # exact middle value per axis
        pin_match = (c == med[:, None, :]).all(axis=2)  # (G, 3)
        on_pin = pin_match.any(axis=1)
        hub = np.argmax(pin_match, axis=1)  # first matching pin
        has = (c[:, :, 0] != med[:, None, 0]) & (c[:, :, 1] != med[:, None, 1])
        g3 = i3.size
        scratch = np.empty((g3, 4, 2), dtype=np.float64)
        scratch[:, 0] = med
        scratch[:, 1:, 0] = med[:, None, 0]  # corner x = median x
        scratch[:, 1:, 1] = c[:, :, 1]  # corner y = pin y
        mask = np.empty((g3, 4), dtype=bool)
        mask[:, 0] = True
        mask[:, 1:] = has
        mask[on_pin] = False  # star nets contribute no flat rows
        counts = mask.sum(axis=1)
        starts = np.zeros(g3 + 1, dtype=np.int64)
        np.cumsum(counts, out=starts[1:])
        rows = scratch[mask]  # net-major: [median, corners...] per net
        pattern = has[:, 0] + 2 * has[:, 1] + 4 * has[:, 2]
        on_pin_l = on_pin.tolist()
        hub_l = hub.tolist()
        pattern_l = pattern.tolist()
        starts_l = starts.tolist()
        for k, i in enumerate(i3.tolist()):
            if on_pin_l[k]:
                star_hub[i] = hub_l[k]
            else:
                steiner_of[i] = rows[starts_l[k] : starts_l[k + 1]]
                edges_of[i] = list(_TEMPLATES3[pattern_l[k]])

    # -- degree 4+: batched Prim + corner insertion ------------------------
    i4 = np.flatnonzero(deg >= 4)
    for d in np.unique(deg[i4]).tolist():
        idx = np.flatnonzero(deg == d)
        g = idx.size
        c = axy[off[idx][:, None] + np.arange(d)]  # (G, d, 2)
        dist = np.abs(c[:, :, None, :] - c[:, None, :, :]).sum(axis=-1)
        mst_u, mst_v = _batched_prim(dist)

        centroid = c.mean(axis=1)
        au = np.take_along_axis(c, mst_u[:, :, None], axis=1)  # (G, d-1, 2)
        av = np.take_along_axis(c, mst_v[:, :, None], axis=1)
        bend = (au[:, :, 0] != av[:, :, 0]) & (au[:, :, 1] != av[:, :, 1])
        c1 = np.stack([av[:, :, 0], au[:, :, 1]], axis=-1)
        c2 = np.stack([au[:, :, 0], av[:, :, 1]], axis=-1)
        d1 = np.abs(c1 - centroid[:, None, :]).sum(axis=-1)
        d2 = np.abs(c2 - centroid[:, None, :]).sum(axis=-1)
        corner = np.where((d1 <= d2)[:, :, None], c1, c2)

        counts = bend.sum(axis=1)
        starts = np.zeros(g + 1, dtype=np.int64)
        np.cumsum(counts, out=starts[1:])
        rows = corner[bend]  # net-major, MST-edge order

        # The reference merge pass only ever fires when two nodes share
        # exact coordinates; find those nets with one batched scan over
        # pins + inserted corners (complex view sorts lexicographically).
        nodes = np.full((g, 2 * d - 1), np.nan + 0j, dtype=np.complex128)
        nodes[:, :d] = c[:, :, 0] + 1j * c[:, :, 1]
        nodes[:, d:] = np.where(bend, corner[:, :, 0] + 1j * corner[:, :, 1], np.nan + 0j)
        nodes.sort(axis=1)
        dup = (nodes[:, 1:] == nodes[:, :-1]).any(axis=1)

        u_l = mst_u.tolist()
        v_l = mst_v.tolist()
        bend_l = bend.tolist()
        starts_l = starts.tolist()
        dup_l = dup.tolist()
        for k, i in enumerate(idx.tolist()):
            edges: List[Tuple[int, int]] = []
            next_id = d
            bk, uk, vk = bend_l[k], u_l[k], v_l[k]
            for j in range(d - 1):
                if bk[j]:
                    edges.append((uk[j], next_id))
                    edges.append((next_id, vk[j]))
                    next_id += 1
                else:
                    edges.append((uk[j], vk[j]))
            steiner_of[i] = rows[starts_l[k] : starts_l[k + 1]]
            edges_of[i] = edges
            if dup_l[k]:
                merge_pending.append(i)

    # -- materialize in net order ------------------------------------------
    off_l = off.tolist()
    deg_l = deg.tolist()
    trees: List[SteinerTree] = []
    trusted = SteinerTree._trusted
    for i in range(n):
        pins = net_pins[i]
        pin_xy = axy[off_l[i] : off_l[i] + deg_l[i]]
        hub = star_hub.get(i)
        if hub is not None:
            trees.append(_star_tree(net_indices[i], pins, pin_xy, hub))
        else:
            trees.append(
                trusted(net_indices[i], pins, pin_xy, steiner_of[i], edges_of[i])
            )

    # Exact Steinerization for the rare coincident-coordinate nets: the
    # reference merge/prune pass is a no-op for every other tree, so
    # running it only here preserves bitwise equality.
    for i in merge_pending:
        tree = trees[i]
        _merge_coincident_steiner(tree)
        tree.prune_leaf_steiner()
        tree.validate()
    return trees


def _batched_prim(dist: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Prim MST over every ``(d, d)`` distance block of ``dist`` at once.

    Replicates :func:`repro.steiner.rsmt._prim_mst` exactly — same seed
    node, same ``argmin`` tie-breaking (lowest index), same update rule
    — but one vectorized step grows the tree of *all* nets together.
    Returns ``(u, v)`` arrays of shape ``(G, d-1)`` in edge-pick order.
    """
    g, d = dist.shape[0], dist.shape[1]
    lanes = np.arange(g)
    in_tree = np.zeros((g, d), dtype=bool)
    in_tree[:, 0] = True
    best_dist = dist[:, 0, :].copy()
    best_from = np.zeros((g, d), dtype=np.int64)
    mst_u = np.empty((g, d - 1), dtype=np.int64)
    mst_v = np.empty((g, d - 1), dtype=np.int64)
    for step in range(d - 1):
        candidates = np.where(in_tree, np.inf, best_dist)
        nxt = np.argmin(candidates, axis=1)
        mst_u[:, step] = best_from[lanes, nxt]
        mst_v[:, step] = nxt
        in_tree[lanes, nxt] = True
        dist_new = dist[lanes, nxt, :]
        closer = dist_new < best_dist
        best_dist = np.where(closer, dist_new, best_dist)
        best_from = np.where(closer, nxt[:, None], best_from)
    return mst_u, mst_v
