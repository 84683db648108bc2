"""Congestion-driven global router.

Routes every two-pin segment of the Steiner forest decomposition on the
GCell grid:

1. **Pattern routing** — both L-shapes are costed; if the cheaper one
   is congested, a family of Z-shapes is tried.
2. **Maze routing** — segments that remain congested (or become
   overflowed after the first pass) are ripped up and rerouted with
   Dijkstra over congestion + history costs, the classic negotiated-
   congestion scheme.
3. **Layer assignment** — see :mod:`repro.groute.layer_assign`.

The router is deterministic: identical forests produce identical
routes, which the accept/revert loop of TSteiner depends on (noise in
the oracle would defeat the gradient signal).

Costs are read from one live table per route (:class:`_CostTable`):
flat python lists of the :func:`~repro.groute.flat_route.cost_fields`
values, one slot per grid edge, patched edge by edge as segments are
committed and ripped up.  Dijkstra runs over integer nodes
``x * ny + y``; because ``y < ny`` the heap's ``(dist, node)`` order is
the lexicographic ``(dist, x, y)`` order, so ties resolve exactly as
over ``(x, y)`` tuples.  The scalar per-edge form of this router lives
in :mod:`repro.testing.oracles` and the two agree bitwise
(tests/test_router_parity.py).

Determinism also makes routes reusable: a :class:`RouteMemo` handed to
the router replays a route whose GCell endpoints it has seen before
and re-measures only the um lengths.
"""

from __future__ import annotations

import hashlib
import heapq
from dataclasses import astuple, dataclass
from functools import lru_cache
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.groute.flat_route import cost_fields
from repro.obs import get_telemetry
from repro.routegrid.grid import GCellGrid
from repro.steiner.flat_forest import flat_forest_of
from repro.steiner.forest import SteinerForest

GridPoint = Tuple[int, int]
SegmentKey = Tuple[int, int]  # (tree index in forest, edge index in tree)


@dataclass
class RouterConfig:
    """Global router knobs."""

    overflow_penalty: float = 8.0
    zshape_candidates: int = 4
    congestion_threshold: float = 2.5  # pattern cost/edge above which maze kicks in
    ripup_rounds: int = 2
    history_increment: float = 0.5


@dataclass
class GlobalRouteResult:
    """Every routed tree edge as row-aligned columns, plus the congestion
    summary.

    Row ``i`` is the ``i``-th segment in routing order (longest GCell
    span first, forest edge order among ties).  ``edge`` is the forest
    edge index (tree-major, ``tree.edges`` order) and ``(tree, local)``
    the segment's key.  The GCell path of row ``i`` is
    ``xs[offsets[i]:offsets[i + 1]]`` / ``ys[...]``: the
    :class:`RouteMemo` layout, small unsigned ints, read-only and shared
    with the memo on a hit, so widen them before any arithmetic.  Layer
    assignment (:func:`repro.groute.layer_assign.assign_layers`) fills
    ``h_layer``/``v_layer``/``vias``.
    """

    edge: np.ndarray  # (R,) forest edge index
    tree: np.ndarray  # (R,) tree index in the forest
    local: np.ndarray  # (R,) edge index within its tree
    net: np.ndarray  # (R,) net index
    h_length: np.ndarray  # (R,) um of horizontal wire
    v_length: np.ndarray  # (R,) um of vertical wire
    bends: np.ndarray  # (R,)
    xs: np.ndarray  # (P,) GCell x of every path point, row after row
    ys: np.ndarray  # (P,)
    offsets: np.ndarray  # (R + 1,) path point range of each row
    h_layer: np.ndarray  # (R,) filled by layer assignment
    v_layer: np.ndarray  # (R,)
    vias: np.ndarray  # (R,)
    overflow: float
    max_utilization: float
    total_wirelength: float
    maze_routed: int
    timed_out: bool = False  # budget expired; negotiation degraded/cut short
    memo_hit: bool = False  # replayed from a RouteMemo instead of searched

    @property
    def num_segments(self) -> int:
        return int(self.edge.size)

    @property
    def length(self) -> np.ndarray:
        return self.h_length + self.v_length

    def keys(self) -> List[SegmentKey]:
        """``(tree, local edge)`` of every row."""
        return list(zip(self.tree.tolist(), self.local.tolist()))

    def path(self, row: int) -> List[GridPoint]:
        """GCell path of ``row`` as ``(x, y)`` tuples of plain ints."""
        a, b = int(self.offsets[row]), int(self.offsets[row + 1])
        return list(zip(self.xs[a:b].tolist(), self.ys[a:b].tolist()))


@lru_cache(maxsize=4096)
def _z_mids(lo: int, hi: int, k: int) -> Tuple[int, ...]:
    """``k`` evenly spaced interior x-coordinates in ``[lo, hi]``."""
    return tuple(np.linspace(lo, hi, k).astype(int).tolist())


class _CostTable:
    """Live usage and congestion cost of every grid edge, one route long.

    Edge ids are flat: horizontal edge ``(i, j)`` is ``i * ny + j`` and
    vertical edge ``(i, j)`` is ``n_h + i * nyv + j``.  ``cost`` starts
    as :func:`cost_fields` and :meth:`commit` re-derives the touched
    slots with the same formula, so it stays elementwise equal to
    ``GCellGrid.edge_cost(..., overflow_penalty)`` on the committed
    usage.  Usage lives here while a route runs; :meth:`store` writes it
    back to the grid arrays and :meth:`load` re-reads them.
    """

    def __init__(self, grid: GCellGrid, overflow_penalty: float) -> None:
        self.grid = grid
        self.penalty = overflow_penalty
        nx, ny = grid.nx, grid.ny
        nyv = grid.cap_v.shape[1]
        n_h = grid.cap_h.size
        self.ny, self.nyv, self.n_h = ny, nyv, n_h
        self.cap = grid.cap_h.ravel().tolist() + grid.cap_v.ravel().tolist()
        # Dijkstra adjacency: (neighbour node, edge id) in +x, -x, +y, -y order.
        nbrs: List[Tuple[Tuple[int, int], ...]] = []
        for x in range(nx):
            for y in range(ny):
                node = x * ny + y
                v_id = n_h + x * nyv + y
                adj = []
                if x + 1 < nx:
                    adj.append((node + ny, node))
                if x >= 1:
                    adj.append((node - ny, node - ny))
                if y + 1 < ny:
                    adj.append((node + 1, v_id))
                if y >= 1:
                    adj.append((node - 1, v_id - 1))
                nbrs.append(tuple(adj))
        self.nbrs = nbrs
        self.load()

    def load(self) -> None:
        grid = self.grid
        self.use = grid.use_h.ravel().tolist() + grid.use_v.ravel().tolist()
        self.hist = grid.hist_h.ravel().tolist() + grid.hist_v.ravel().tolist()
        cost_h, cost_v = cost_fields(grid, self.penalty)
        self.cost = cost_h.ravel().tolist() + cost_v.ravel().tolist()

    def store(self) -> None:
        grid, n_h = self.grid, self.n_h
        grid.use_h[...] = np.asarray(self.use[:n_h]).reshape(grid.use_h.shape)
        grid.use_v[...] = np.asarray(self.use[n_h:]).reshape(grid.use_v.shape)

    def commit(self, ids: Sequence[int], amount: float) -> None:
        use, cap, hist, cost = self.use, self.cap, self.hist, self.cost
        penalty = self.penalty
        for e in ids:
            u = use[e] + amount
            use[e] = u
            util = (u + 1.0) / max(cap[e], 1e-9)
            if util > 1.0:
                t = util - 1.0
                # t * t, not t ** 2: numpy's ``** 2`` squares, python's calls pow().
                extra = penalty * (t * t)
            elif util > 0.7:
                extra = (util - 0.7) * 2.0
            else:
                extra = 0.0
            cost[e] = (1.0 + hist[e]) + extra

    def crosses_overflow(self, ids: Sequence[int]) -> bool:
        use, cap = self.use, self.cap
        for e in ids:
            if use[e] > cap[e]:
                return True
        return False

    def run(self, a: GridPoint, b: GridPoint) -> range:
        """Ids of the edges on the straight run from ``a`` to ``b``, in
        travel order."""
        xa, ya, xb, yb = int(a[0]), int(a[1]), int(b[0]), int(b[1])
        if ya == yb:
            ny = self.ny
            if xb >= xa:
                return range(xa * ny + ya, xb * ny + ya, ny)
            return range((xa - 1) * ny + ya, (xb - 1) * ny + ya, -ny)
        base = self.n_h + xa * self.nyv
        if yb >= ya:
            return range(base + ya, base + yb)
        return range(base + ya - 1, base + yb - 1, -1)


_GRID_STATE = ("use_h", "use_v", "hist_h", "hist_v")


def _path_csr(
    paths: List[List[GridPoint]], grid: GCellGrid
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``paths`` as read-only ``(xs, ys, offsets)`` of the smallest
    unsigned dtypes that hold them."""
    offsets = np.cumsum([0] + [len(p) for p in paths])
    points = np.fromiter(
        chain.from_iterable(chain.from_iterable(paths)), np.int64, 2 * offsets[-1]
    ).reshape(-1, 2)
    dtype = np.min_scalar_type(max(grid.nx, grid.ny))
    out = (
        points[:, 0].astype(dtype),
        points[:, 1].astype(dtype),
        offsets.astype(np.min_scalar_type(offsets[-1])),
    )
    for array in out:
        array.flags.writeable = False
    return out


class _MemoEntry:
    """One finished route: its read-only path CSR (:func:`_path_csr`),
    the maze count and the four grid arrays the route left behind."""

    __slots__ = ("xs", "ys", "offsets", "maze_count", "arrays")

    def __init__(
        self,
        csr: Tuple[np.ndarray, np.ndarray, np.ndarray],
        maze_count: int,
        grid: GCellGrid,
    ) -> None:
        self.xs, self.ys, self.offsets = csr
        self.maze_count = maze_count
        self.arrays = tuple(getattr(grid, name).copy() for name in _GRID_STATE)

    def restore(
        self, grid: GCellGrid
    ) -> Tuple[Tuple[np.ndarray, np.ndarray, np.ndarray], int]:
        """Write the stored usage and history to ``grid``; returns the
        path CSR (shared, not copied) and the maze count."""
        for name, array in zip(_GRID_STATE, self.arrays):
            getattr(grid, name)[...] = array
        return (self.xs, self.ys, self.offsets), self.maze_count


class RouteMemo:
    """Finished global routes of one flow, keyed by what decides them.

    A route's paths, maze count and final usage/history arrays depend
    only on the segments' GCell endpoints and tree-edge topology, the
    grid's shape and capacity and the :class:`RouterConfig`; the um
    deltas reach nothing but :meth:`GlobalRouter._measure`.  So a
    forest that lands on an already routed key (a Steiner move that
    stays inside its GCells, or a re-probe of the refine anchor)
    hands over the stored path arrays, restores the grid arrays and is
    re-measured with its own deltas — bitwise the route a fresh search returns
    (tests/test_router_parity.py).  A timed-out route is never stored.

    The owner bounds the lifetime: one memo per ``run_routing_flow``
    call (the hybrid validator's probes and the final GR share it) or
    per standalone ``TSteiner.optimize``.  A longer-lived memo would
    turn every repeat run of one forest into pure hits.
    """

    def __init__(self, telemetry=None) -> None:
        self.telemetry = telemetry if telemetry is not None else get_telemetry()
        self._entries: Dict[bytes, _MemoEntry] = {}

    @staticmethod
    def digest(
        ends: Sequence[np.ndarray],
        eu: np.ndarray,
        ev: np.ndarray,
        grid: GCellGrid,
        config: RouterConfig,
    ) -> bytes:
        """Key of a route: endpoint columns ``(x1, y1, x2, y2)`` in
        forest edge order, the edge topology, grid and config."""
        h = hashlib.blake2b(digest_size=20)
        h.update(repr((grid.nx, grid.ny, len(eu), astuple(config))).encode())
        for array in (*ends, eu, ev):
            h.update(np.ascontiguousarray(array, dtype=np.int64).tobytes())
        for array in (grid.cap_h, grid.cap_v):
            h.update(repr(array.shape).encode())
            h.update(np.ascontiguousarray(array).tobytes())
        return h.digest()

    def lookup(self, key: bytes, budget=None) -> Optional[_MemoEntry]:
        """The stored route of ``key``, or ``None``.  Under an expired
        budget a hit counts as a miss: a fresh route would wind down at
        its first poll."""
        entry = self._entries.get(key)
        if entry is not None and budget is not None and budget.expired():
            entry = None
        tel = self.telemetry
        if tel.enabled:
            tel.count("groute.memo_hits" if entry is not None else "groute.memo_misses")
        return entry

    def store(
        self,
        key: bytes,
        csr: Tuple[np.ndarray, np.ndarray, np.ndarray],
        maze_count: int,
        grid: GCellGrid,
    ) -> None:
        self._entries[key] = _MemoEntry(csr, maze_count, grid)

    def __len__(self) -> int:
        return len(self._entries)


class GlobalRouter:
    """Routes a Steiner forest onto a GCell grid."""

    def __init__(
        self,
        grid: GCellGrid,
        config: Optional[RouterConfig] = None,
        memo: Optional[RouteMemo] = None,
    ) -> None:
        self.grid = grid
        self.config = config or RouterConfig()
        self.memo = memo
        self._table: Optional[_CostTable] = None  # live while route() runs

    def _costs(self) -> _CostTable:
        """The running route's table, or a fresh one of the grid's state."""
        if self._table is not None:
            return self._table
        return _CostTable(self.grid, self.config.overflow_penalty)

    # ------------------------------------------------------------------
    def route(self, forest: SteinerForest, budget=None) -> GlobalRouteResult:
        """Route every tree edge; returns the committed result.

        ``budget`` (a :class:`repro.runtime.Budget`) makes the router
        cooperative: once it expires, remaining segments take their
        cheapest pattern route (no maze search) and the rip-up
        negotiation rounds stop (checked every 64 victims), so the caller
        always gets a complete — if congestion-degraded — routing
        flagged ``timed_out=True``.

        With a :class:`RouteMemo`, a forest whose segments were routed
        before under this grid and config replays that route (flagged
        ``memo_hit=True``) instead of searching again, provided the
        budget is still live.
        """
        grid, memo = self.grid, self.memo
        grid.reset_usage()
        flat = flat_forest_of(forest)
        xy = flat.node_positions(forest.coords)
        gx = np.clip(xy[:, 0] / grid.gcell, 0, grid.nx - 1).astype(np.int64)
        gy = np.clip(xy[:, 1] / grid.gcell, 0, grid.ny - 1).astype(np.int64)
        eu, ev = flat.forest_edge_u, flat.forest_edge_v
        ends = (gx[eu], gy[eu], gx[ev], gy[ev])
        digest = entry = None
        if memo is not None:
            digest = memo.digest(ends, eu, ev, grid, self.config)
            entry = memo.lookup(digest, budget)
        # Long segments first: they need contiguous corridors, short
        # ones fit in the gaps (standard global-routing ordering).
        span = np.abs(ends[0] - ends[2]) + np.abs(ends[1] - ends[3])
        order = np.argsort(-span, kind="stable")
        if entry is not None:
            csr, maze_count = entry.restore(grid)
            timed_out = False
        else:
            self._table = _CostTable(grid, self.config.overflow_penalty)
            try:
                jobs = zip(*(col[order].tolist() for col in ends))
                paths, maze_count, timed_out = self._route(jobs, budget, self._table)
            finally:
                self._table = None
            csr = _path_csr(paths, grid)
            if memo is not None and not timed_out:
                memo.store(digest, csr, maze_count, grid)

        dx = np.abs(xy[eu, 0] - xy[ev, 0])[order]
        dy = np.abs(xy[eu, 1] - xy[ev, 1])[order]
        h_len, v_len, bends = self._measure(*csr, dx, dy)
        n = order.size
        return GlobalRouteResult(
            edge=order,
            tree=flat.forest_edge_tree[order],
            local=flat.forest_edge_local[order],
            net=flat.forest_edge_net[order],
            h_length=h_len,
            v_length=v_len,
            bends=bends,
            xs=csr[0],
            ys=csr[1],
            offsets=csr[2],
            h_layer=np.full(n, 2, dtype=np.int64),
            v_layer=np.full(n, 3, dtype=np.int64),
            vias=np.zeros(n, dtype=np.int64),
            overflow=grid.overflow(),
            max_utilization=grid.max_utilization(),
            # Left to right in routing order, as python floats: the
            # per-segment oracle's sum, not numpy's pairwise one.
            total_wirelength=sum((h_len + v_len).tolist()),
            maze_routed=maze_count,
            timed_out=timed_out,
            memo_hit=entry is not None,
        )

    def _route(
        self, jobs, budget, table: _CostTable
    ) -> Tuple[List[List[GridPoint]], int, bool]:
        """Route ``jobs`` (``x1, y1, x2, y2`` GCell endpoints, in routing
        order) on ``table`` and store the final usage to the grid.

        Returns one path per job, the maze count and whether the budget
        cut the negotiation short.  Paths are measured by the caller,
        once each, after rip-up settles them.
        """
        grid, cfg = self.grid, self.config
        timed_out = False
        paths: List[List[GridPoint]] = []
        edges: List[List[int]] = []
        maze_count = 0
        for job_idx, (x1, y1, x2, y2) in enumerate(jobs):
            p1, p2 = (x1, y1), (x2, y2)
            if not timed_out and budget is not None and job_idx % 64 == 0 and budget.expired():
                timed_out = True
            if timed_out:
                # Degraded completion: cheapest pattern, no maze search.
                path, ids, _ = self._best_pattern(p1, p2)
                used_maze = False
            else:
                path, ids, used_maze = self._route_segment(p1, p2)
            if used_maze:
                maze_count += 1
            table.commit(ids, 1.0)
            paths.append(path)
            edges.append(ids)

        # Negotiation rounds: rip up segments crossing overflowed edges.
        for _ in range(cfg.ripup_rounds):
            table.store()
            if grid.overflow() <= 0:
                break
            if budget is not None and budget.expired():
                timed_out = True
                break
            grid.bump_history(cfg.history_increment)
            table.load()
            victims = [i for i, ids in enumerate(edges) if table.crosses_overflow(ids)]
            for v_idx, i in enumerate(victims):
                if v_idx and v_idx % 64 == 0 and budget is not None and budget.expired():
                    timed_out = True
                    break
                table.commit(edges[i], -1.0)
                path, ids, _ = self._route_segment(paths[i][0], paths[i][-1], force_maze=True)
                maze_count += 1
                table.commit(ids, 1.0)
                paths[i] = path
                edges[i] = ids
            if timed_out:
                break
        table.store()
        return paths, maze_count, timed_out

    # ------------------------------------------------------------------
    # Per-segment routing.  Each returns the path with the ids of the
    # grid edges it crosses, in path order.
    # ------------------------------------------------------------------
    def _route_segment(
        self, p1: GridPoint, p2: GridPoint, force_maze: bool = False
    ) -> Tuple[List[GridPoint], List[int], bool]:
        if p1 == p2:
            return [p1], [], False
        if force_maze:
            return (*self._search(p1, p2), True)
        path, ids, cost = self._best_pattern(p1, p2)
        if cost / max(len(ids), 1) > self.config.congestion_threshold:
            return (*self._search(p1, p2), True)
        return path, ids, False

    def _best_pattern(
        self, p1: GridPoint, p2: GridPoint
    ) -> Tuple[List[GridPoint], List[int], float]:
        """Cheapest straight, L or Z route; the earliest candidate wins ties."""
        table = self._costs()
        cost = table.cost
        x1, y1 = p1
        x2, y2 = p2
        # Each candidate is its corner sequence from p1 to p2.
        if x1 == x2 or y1 == y2:
            candidates = [(p1, p2)]
        else:
            candidates = [(p1, (x2, y1), p2), (p1, (x1, y2), p2)]
            candidates += [(p1, (m, y1), (m, y2), p2) for m in self._z_midpoints(p1, p2)]
        best, best_cost, best_runs = None, 0.0, []
        for corners in candidates:
            runs = [table.run(a, b) for a, b in zip(corners, corners[1:])]
            c = 0.0
            for run in runs:
                for e in run:
                    c += cost[e]
            if best is None or c < best_cost:
                best, best_cost, best_runs = corners, c, runs
        path = [p1]
        for a, b in zip(best, best[1:]):
            path += self._straight(a, b)[1:]
        return path, list(chain.from_iterable(best_runs)), best_cost

    def _z_midpoints(self, p1: GridPoint, p2: GridPoint) -> Tuple[int, ...]:
        """Intermediate x-coordinates for HVH Z-shapes."""
        x1, x2 = sorted((p1[0], p2[0]))
        if x2 - x1 < 2:
            return ()
        k = min(self.config.zshape_candidates, x2 - x1 - 1)
        return _z_mids(x1 + 1, x2 - 1, k)

    @staticmethod
    def _straight(p1: GridPoint, p2: GridPoint) -> List[GridPoint]:
        x, y = p1
        tx, ty = p2
        sx = 1 if tx > x else (-1 if tx < x else 0)
        sy = 1 if ty > y else (-1 if ty < y else 0)
        n = max(abs(tx - x), abs(ty - y))
        return [p1] + [(x + k * sx, y + k * sy) for k in range(1, n + 1)]

    def _path_cost(self, path: List[GridPoint]) -> float:
        table = self._costs()
        cost = 0.0
        for a, b in zip(path, path[1:]):
            for e in table.run(a, b):
                cost += table.cost[e]
        return cost

    def _maze(self, p1: GridPoint, p2: GridPoint) -> List[GridPoint]:
        """Dijkstra on the GCell graph with congestion costs."""
        return self._search(p1, p2)[0]

    def _search(self, p1: GridPoint, p2: GridPoint) -> Tuple[List[GridPoint], List[int]]:
        """:meth:`_maze` plus the crossed edge ids.

        The grid graph is connected, so ``p2`` is always reached.
        """
        table = self._costs()
        cost, nbrs, ny = table.cost, table.nbrs, table.ny
        src = int(p1[0]) * ny + int(p1[1])
        dst = int(p2[0]) * ny + int(p2[1])
        if src == dst:
            return [p2], []
        n = len(nbrs)
        dist = [float("inf")] * n
        dist[src] = 0.0
        prev = [-1] * n
        via = [-1] * n
        heap = [(0.0, src)]
        pop, push = heapq.heappop, heapq.heappush
        while heap:
            d, node = pop(heap)
            # Pushes only follow a strict improvement and every edge costs
            # >= 1, so a node's entry is stale exactly when it lies above
            # the node's distance, and each node is expanded once.
            if d > dist[node]:
                continue
            if node == dst:
                break
            for nxt, e in nbrs[node]:
                nd = d + cost[e]
                if nd < dist[nxt]:
                    dist[nxt] = nd
                    prev[nxt] = node
                    via[nxt] = e
                    push(heap, (nd, nxt))
        nodes = [dst]
        ids = []
        while nodes[-1] != src:
            ids.append(via[nodes[-1]])
            nodes.append(prev[nodes[-1]])
        nodes.reverse()
        ids.reverse()
        path = [p1] + [divmod(v, ny) for v in nodes[1:-1]] + [p2]
        return path, ids

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------
    def _measure(
        self,
        xs: np.ndarray,
        ys: np.ndarray,
        offsets: np.ndarray,
        direct_dx: np.ndarray,
        direct_dy: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Physical wire lengths and bends of every row of a path CSR.

        Physical length = the direct Manhattan deltas plus one GCell per
        grid-level detour step beyond the minimum, split by direction.
        A bend is a step whose direction differs from the previous one;
        a sub-GCell L (both deltas > 0 on a straight path) still bends
        once physically.  Counts are integers and each length is one
        multiply and one add, so the rows equal the per-segment form
        (``repro.testing.oracles``) bitwise.
        """
        # The CSR holds small unsigned ints: widen before subtracting.
        x = xs.astype(np.int64)
        y = ys.astype(np.int64)
        off = offsets.astype(np.int64)
        n = off.size - 1
        seg = np.repeat(np.arange(n), np.diff(off))
        step_x, step_y = np.diff(x), np.diff(y)
        # Step k joins points k and k + 1; it is inside a path unless
        # point k + 1 starts the next one.
        inside = np.ones(step_x.size, dtype=bool)
        inside[off[1:-1] - 1] = False
        h_edges = np.bincount(seg[:-1][inside & (step_y == 0)], minlength=n)
        v_edges = np.diff(off) - 1 - h_edges
        first, last = off[:-1], off[1:] - 1
        min_h = np.abs(x[first] - x[last])
        min_v = np.abs(y[first] - y[last])
        g = self.grid.gcell
        h_len = direct_dx + np.maximum(h_edges - min_h, 0) * g
        v_len = direct_dy + np.maximum(v_edges - min_v, 0) * g
        turn = inside[:-1] & inside[1:] & (
            (step_x[:-1] != step_x[1:]) | (step_y[:-1] != step_y[1:])
        )
        bends = np.bincount(seg[:-2][turn], minlength=n)
        bends[(direct_dx > 0) & (direct_dy > 0) & (bends == 0)] = 1
        return h_len, v_len, bends
