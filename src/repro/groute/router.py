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
from dataclasses import astuple, dataclass, field
from functools import lru_cache
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.groute.flat_route import _geometry_of, cost_fields
from repro.obs import get_telemetry
from repro.routegrid.grid import GCellGrid
from repro.steiner.forest import SteinerForest

GridPoint = Tuple[int, int]
SegmentKey = Tuple[int, int]  # (tree index in forest, edge index in tree)


@dataclass
class SegmentRoute:
    """Routed geometry of one tree edge."""

    key: SegmentKey
    net_index: int
    h_length: float  # um of horizontal wire
    v_length: float  # um of vertical wire
    bends: int
    path: List[GridPoint] = field(default_factory=list)
    h_layer: int = 2  # filled by layer assignment
    v_layer: int = 3
    vias: int = 0

    @property
    def length(self) -> float:
        return self.h_length + self.v_length


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
    """All routed segments plus congestion summary."""

    segments: Dict[SegmentKey, SegmentRoute]
    overflow: float
    max_utilization: float
    total_wirelength: float
    maze_routed: int
    timed_out: bool = False  # budget expired; negotiation degraded/cut short
    memo_hit: bool = False  # replayed from a RouteMemo instead of searched

    def segment(self, key: SegmentKey) -> SegmentRoute:
        return self.segments[key]


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


class _MemoEntry:
    """One finished route: paths as flat points plus offsets, the maze
    count and the four grid arrays the route left behind."""

    __slots__ = ("xs", "ys", "offsets", "maze_count", "arrays")

    def __init__(self, paths: List[List[GridPoint]], maze_count: int, grid: GCellGrid) -> None:
        dtype = np.min_scalar_type(max(grid.nx, grid.ny))
        points = np.array(list(chain.from_iterable(paths)), dtype=dtype).reshape(-1, 2)
        self.xs = points[:, 0].copy()
        self.ys = points[:, 1].copy()
        offsets = np.cumsum([0] + [len(p) for p in paths])
        self.offsets = offsets.astype(np.min_scalar_type(offsets[-1]))
        self.maze_count = maze_count
        self.arrays = tuple(getattr(grid, name).copy() for name in _GRID_STATE)

    def restore(self, grid: GCellGrid) -> Tuple[List[List[GridPoint]], int]:
        """Write the stored usage and history to ``grid``; returns the
        paths (tuples of plain ints, as routed) and the maze count."""
        for name, array in zip(_GRID_STATE, self.arrays):
            getattr(grid, name)[...] = array
        points = list(zip(self.xs.tolist(), self.ys.tolist()))
        offsets = self.offsets.tolist()
        paths = [points[a:b] for a, b in zip(offsets, offsets[1:])]
        return paths, self.maze_count


class RouteMemo:
    """Finished global routes of one flow, keyed by what decides them.

    A route's paths, maze count and final usage/history arrays depend
    only on the segments' GCell endpoints and tree-edge topology, the
    grid's shape and capacity and the :class:`RouterConfig`; the um
    deltas reach nothing but :meth:`GlobalRouter._measure`.  So a
    forest that lands on an already routed key (a Steiner move that
    stays inside its GCells, or a re-probe of the refine anchor)
    replays the stored paths and arrays and is re-measured with its own
    deltas — bitwise the route a fresh search returns
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
        self, key: bytes, paths: List[List[GridPoint]], maze_count: int, grid: GCellGrid
    ) -> None:
        self._entries[key] = _MemoEntry(paths, maze_count, grid)

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
        geom = _geometry_of(forest)
        xy = geom.gather_coords(forest)
        gx = np.clip(xy[:, 0] / grid.gcell, 0, grid.nx - 1).astype(np.int64)
        gy = np.clip(xy[:, 1] / grid.gcell, 0, grid.ny - 1).astype(np.int64)
        eu, ev = geom.eu, geom.ev
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
            paths, maze_count = entry.restore(grid)
            timed_out = False
        else:
            self._table = _CostTable(grid, self.config.overflow_penalty)
            try:
                jobs = zip(*(col[order].tolist() for col in ends))
                paths, maze_count, timed_out = self._route(jobs, budget, self._table)
            finally:
                self._table = None
            if memo is not None and not timed_out:
                memo.store(digest, paths, maze_count, grid)

        keys = [(t, e) for t, tree in enumerate(forest.trees) for e in range(len(tree.edges))]
        nets = [tree.net_index for tree in forest.trees for _ in tree.edges]
        deltas = zip(
            np.abs(xy[eu, 0] - xy[ev, 0])[order].tolist(),
            np.abs(xy[eu, 1] - xy[ev, 1])[order].tolist(),
        )
        segments: Dict[SegmentKey, SegmentRoute] = {}
        for j, path, (dx, dy) in zip(order.tolist(), paths, deltas):
            segments[keys[j]] = self._measure(keys[j], nets[j], path[0], path[-1], dx, dy, path)
        total_wl = sum(s.length for s in segments.values())
        return GlobalRouteResult(
            segments=segments,
            overflow=grid.overflow(),
            max_utilization=grid.max_utilization(),
            total_wirelength=total_wl,
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
        key: SegmentKey,
        net_index: int,
        p1: GridPoint,
        p2: GridPoint,
        direct_dx: float,
        direct_dy: float,
        path: List[GridPoint],
    ) -> SegmentRoute:
        """Convert a grid path into physical wire lengths and bends.

        Physical length = the direct Manhattan deltas plus one GCell per
        grid-level detour step beyond the minimum, split by direction.
        """
        steps = [(b[0] - a[0], b[1] - a[1]) for a, b in zip(path, path[1:])]
        h_edges = sum(1 for step in steps if step[1] == 0)
        v_edges = len(steps) - h_edges
        min_h = abs(p1[0] - p2[0])
        min_v = abs(p1[1] - p2[1])
        g = self.grid.gcell
        h_len = direct_dx + max(h_edges - min_h, 0) * g
        v_len = direct_dy + max(v_edges - min_v, 0) * g
        bends = sum(1 for turn_1, turn_2 in zip(steps, steps[1:]) if turn_1 != turn_2)
        if direct_dx > 0 and direct_dy > 0 and bends == 0:
            bends = 1  # sub-GCell L still bends once physically
        return SegmentRoute(
            key=key,
            net_index=net_index,
            h_length=h_len,
            v_length=v_len,
            bends=bends,
            path=path,
        )
