"""Scalar reference implementations kept as parity oracles for tests.

Nothing in the production package imports this module: each class here
is the slow, obviously-correct form of a production kernel, and the
test suite asserts the two agree bitwise.

* :class:`ReferenceGlobalRouter` — the per-edge scalar global router
  (``(x, y)`` tuple Dijkstra, one :meth:`GCellGrid.edge_cost` call per
  relaxed edge).  :class:`repro.groute.router.GlobalRouter` must return
  the same :class:`GlobalRouteResult` field by field and leave the same
  ``use_*``/``hist_*`` grid arrays (tests/test_router_parity.py).  Its
  maze search prices edges with the configured ``overflow_penalty`` and
  its rip-up rounds poll the budget every 64 victims, as the production
  router does.
* :func:`reference_hold_analysis` — the per-net scalar hold analysis
  (RC trees from ``repro.sta.rctree``, one pin at a time in topological
  order).  :func:`repro.sta.hold.run_hold_analysis` must report the
  same hold slacks, WHS and violation count, with earliest arrivals
  equal up to float re-association (tests/test_sta_extras.py).
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.groute.router import (
    GlobalRouteResult,
    GridPoint,
    RouterConfig,
    SegmentKey,
    SegmentRoute,
)
from repro.netlist.netlist import PinDirection
from repro.pdk.corners import DEFAULT_HOLD_TIME
from repro.routegrid.grid import GCellGrid
from repro.sta.engine import DEFAULT_INPUT_SLEW, STAEngine
from repro.sta.hold import HoldReport
from repro.sta.rctree import compute_net_timing
from repro.steiner.forest import SteinerForest


class ReferenceGlobalRouter:
    """Scalar global router: the parity oracle of
    :class:`repro.groute.router.GlobalRouter`.

    Reads every congestion cost through :meth:`GCellGrid.edge_cost` and
    writes every usage change through :meth:`GCellGrid.add_usage`; paths
    are ``(x, y)`` tuples end to end.
    """

    def __init__(self, grid: GCellGrid, config: Optional[RouterConfig] = None) -> None:
        self.grid = grid
        self.config = config or RouterConfig()

    # ------------------------------------------------------------------
    def route(self, forest: SteinerForest, budget=None) -> GlobalRouteResult:
        """Route every tree edge; returns the committed result.

        ``budget`` (a :class:`repro.runtime.Budget`) makes the router
        cooperative: once it expires, remaining segments take their
        cheapest pattern route (no maze search) and the rip-up
        negotiation rounds stop (checked every 64 victims), so the caller
        always gets a complete — if congestion-degraded — routing
        flagged ``timed_out=True``.
        """
        self.grid.reset_usage()
        timed_out = False
        jobs: List[Tuple[SegmentKey, int, GridPoint, GridPoint, float, float]] = []
        for t_idx, tree in enumerate(forest.trees):
            xy = tree.node_xy()
            for e_idx, (u, v) in enumerate(tree.edges):
                p1 = self.grid.locate(xy[u][0], xy[u][1])
                p2 = self.grid.locate(xy[v][0], xy[v][1])
                dx = abs(float(xy[u][0] - xy[v][0]))
                dy = abs(float(xy[u][1] - xy[v][1]))
                jobs.append(((t_idx, e_idx), tree.net_index, p1, p2, dx, dy))

        # Long segments first: they need contiguous corridors, short
        # ones fit in the gaps (standard global-routing ordering).
        jobs.sort(key=lambda j: -(abs(j[2][0] - j[3][0]) + abs(j[2][1] - j[3][1])))

        segments: Dict[SegmentKey, SegmentRoute] = {}
        deltas: Dict[SegmentKey, Tuple[float, float]] = {}
        maze_count = 0
        for job_idx, (key, net_index, p1, p2, dx, dy) in enumerate(jobs):
            if not timed_out and budget is not None and job_idx % 64 == 0 and budget.expired():
                timed_out = True
            if timed_out:
                # Degraded completion: cheapest pattern, no maze search.
                path, _ = self._best_pattern(p1, p2) if p1 != p2 else ([p1], 0.0)
                used_maze = False
            else:
                path, used_maze = self._route_segment(p1, p2)
            if used_maze:
                maze_count += 1
            self._commit(path)
            deltas[key] = (dx, dy)
            segments[key] = self._measure(key, net_index, p1, p2, dx, dy, path)

        # Negotiation rounds: rip up segments crossing overflowed edges.
        for _ in range(self.config.ripup_rounds):
            if self.grid.overflow() <= 0:
                break
            if budget is not None and budget.expired():
                timed_out = True
                break
            self.grid.bump_history(self.config.history_increment)
            victims = [k for k, s in segments.items() if self._crosses_overflow(s.path)]
            for v_idx, key in enumerate(victims):
                if v_idx and v_idx % 64 == 0 and budget is not None and budget.expired():
                    timed_out = True
                    break
                seg = segments[key]
                self._uncommit(seg.path)
                path, _ = self._route_segment(seg.path[0], seg.path[-1], force_maze=True)
                maze_count += 1
                self._commit(path)
                dx, dy = deltas[key]
                segments[key] = self._measure(
                    key, seg.net_index, path[0], path[-1], dx, dy, path
                )
            if timed_out:
                break

        total_wl = sum(s.length for s in segments.values())
        return GlobalRouteResult(
            segments=segments,
            overflow=self.grid.overflow(),
            max_utilization=self.grid.max_utilization(),
            total_wirelength=total_wl,
            maze_routed=maze_count,
            timed_out=timed_out,
        )

    # ------------------------------------------------------------------
    # Per-segment routing
    # ------------------------------------------------------------------
    def _route_segment(
        self, p1: GridPoint, p2: GridPoint, force_maze: bool = False
    ) -> Tuple[List[GridPoint], bool]:
        if p1 == p2:
            return [p1], False
        if force_maze:
            return self._maze(p1, p2), True
        best_path, best_cost = self._best_pattern(p1, p2)
        n_edges = max(len(best_path) - 1, 1)
        if best_cost / n_edges > self.config.congestion_threshold:
            return self._maze(p1, p2), True
        return best_path, False

    def _best_pattern(self, p1: GridPoint, p2: GridPoint) -> Tuple[List[GridPoint], float]:
        candidates: List[List[GridPoint]] = []
        x1, y1 = p1
        x2, y2 = p2
        if x1 == x2 or y1 == y2:
            candidates.append(self._straight(p1, p2))
        else:
            candidates.append(self._l_shape(p1, p2, corner=(x2, y1)))
            candidates.append(self._l_shape(p1, p2, corner=(x1, y2)))
            for mid in self._z_midpoints(p1, p2):
                candidates.append(self._z_shape(p1, p2, mid))
        best_path: List[GridPoint] = candidates[0]
        best_cost = self._path_cost(candidates[0])
        for path in candidates[1:]:
            cost = self._path_cost(path)
            if cost < best_cost:
                best_cost = cost
                best_path = path
        return best_path, best_cost

    def _z_midpoints(self, p1: GridPoint, p2: GridPoint) -> List[int]:
        """Intermediate x-coordinates for HVH Z-shapes."""
        x1, x2 = sorted((p1[0], p2[0]))
        if x2 - x1 < 2:
            return []
        k = min(self.config.zshape_candidates, x2 - x1 - 1)
        return list(np.linspace(x1 + 1, x2 - 1, k).astype(int))

    @staticmethod
    def _straight(p1: GridPoint, p2: GridPoint) -> List[GridPoint]:
        pts = [p1]
        x, y = p1
        sx = int(np.sign(p2[0] - x))
        sy = int(np.sign(p2[1] - y))
        while (x, y) != p2:
            x += sx
            y += sy
            pts.append((x, y))
        return pts

    def _l_shape(self, p1: GridPoint, p2: GridPoint, corner: GridPoint) -> List[GridPoint]:
        leg1 = self._straight(p1, corner)
        leg2 = self._straight(corner, p2)
        return leg1 + leg2[1:]

    def _z_shape(self, p1: GridPoint, p2: GridPoint, mid_x: int) -> List[GridPoint]:
        c1 = (mid_x, p1[1])
        c2 = (mid_x, p2[1])
        part1 = self._straight(p1, c1)
        part2 = self._straight(c1, c2)
        part3 = self._straight(c2, p2)
        return part1 + part2[1:] + part3[1:]

    def _path_cost(self, path: List[GridPoint]) -> float:
        cost = 0.0
        for (x1, y1), (x2, y2) in zip(path, path[1:]):
            if y1 == y2:
                cost += self.grid.edge_cost("H", min(x1, x2), y1, self.config.overflow_penalty)
            else:
                cost += self.grid.edge_cost("V", x1, min(y1, y2), self.config.overflow_penalty)
        return cost

    def _maze(self, p1: GridPoint, p2: GridPoint) -> List[GridPoint]:
        """Dijkstra on the GCell graph with congestion costs."""
        grid = self.grid
        penalty = self.config.overflow_penalty
        dist: Dict[GridPoint, float] = {p1: 0.0}
        prev: Dict[GridPoint, GridPoint] = {}
        heap: List[Tuple[float, GridPoint]] = [(0.0, p1)]
        visited = set()
        while heap:
            d, node = heapq.heappop(heap)
            if node in visited:
                continue
            if node == p2:
                break
            visited.add(node)
            x, y = node
            neighbours = []
            if x + 1 < grid.nx:
                neighbours.append(((x + 1, y), grid.edge_cost("H", x, y, penalty)))
            if x - 1 >= 0:
                neighbours.append(((x - 1, y), grid.edge_cost("H", x - 1, y, penalty)))
            if y + 1 < grid.ny:
                neighbours.append(((x, y + 1), grid.edge_cost("V", x, y, penalty)))
            if y - 1 >= 0:
                neighbours.append(((x, y - 1), grid.edge_cost("V", x, y - 1, penalty)))
            for nxt, cost in neighbours:
                nd = d + cost
                if nd < dist.get(nxt, np.inf):
                    dist[nxt] = nd
                    prev[nxt] = node
                    heapq.heappush(heap, (nd, nxt))
        if p2 not in prev and p1 != p2:
            # Unreachable should not happen on a full grid; fall back.
            return self._l_shape(p1, p2, corner=(p2[0], p1[1])) if p1[0] != p2[0] and p1[1] != p2[1] else self._straight(p1, p2)
        path = [p2]
        while path[-1] != p1:
            path.append(prev[path[-1]])
        return list(reversed(path))

    # ------------------------------------------------------------------
    # Usage bookkeeping
    # ------------------------------------------------------------------
    def _commit(self, path: List[GridPoint], amount: float = 1.0) -> None:
        for (x1, y1), (x2, y2) in zip(path, path[1:]):
            if y1 == y2:
                self.grid.add_usage("H", min(x1, x2), y1, amount)
            else:
                self.grid.add_usage("V", x1, min(y1, y2), amount)

    def _uncommit(self, path: List[GridPoint]) -> None:
        self._commit(path, amount=-1.0)

    def _crosses_overflow(self, path: List[GridPoint]) -> bool:
        for (x1, y1), (x2, y2) in zip(path, path[1:]):
            if y1 == y2:
                i = min(x1, x2)
                if self.grid.use_h[i, y1] > self.grid.cap_h[i, y1]:
                    return True
            else:
                j = min(y1, y2)
                if self.grid.use_v[x1, j] > self.grid.cap_v[x1, j]:
                    return True
        return False

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
        h_edges = sum(1 for (x1, y1), (x2, y2) in zip(path, path[1:]) if y1 == y2)
        v_edges = len(path) - 1 - h_edges
        min_h = abs(p1[0] - p2[0])
        min_v = abs(p1[1] - p2[1])
        g = self.grid.gcell
        h_len = direct_dx + max(h_edges - min_h, 0) * g
        v_len = direct_dy + max(v_edges - min_v, 0) * g
        bends = 0
        for a, b, c in zip(path, path[1:], path[2:]):
            turn_1 = (b[0] - a[0], b[1] - a[1])
            turn_2 = (c[0] - b[0], c[1] - b[1])
            if turn_1 != turn_2:
                bends += 1
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


def reference_hold_analysis(
    engine: STAEngine,
    forest: SteinerForest,
    route_result: Optional[GlobalRouteResult] = None,
    utilization: Optional[np.ndarray] = None,
    hold_time: float = DEFAULT_HOLD_TIME,
) -> HoldReport:
    """Scalar min-delay PERT traversal: the parity oracle of
    :func:`repro.sta.hold.run_hold_analysis`."""
    netlist = engine.netlist
    n_pins = netlist.num_pins
    arrival = np.full(n_pins, np.nan)
    slew = np.full(n_pins, DEFAULT_INPUT_SLEW)

    pin_caps = {
        p.index: p.cap for p in netlist.pins if p.direction == PinDirection.INPUT
    }
    net_timing = {}
    net_load: Dict[int, float] = {}
    for t_idx, tree in enumerate(forest.trees):
        sink_caps = {p: pin_caps.get(p, 0.0) for p in tree.pin_ids[1:]}
        nt = compute_net_timing(
            tree,
            sink_caps,
            engine.technology,
            route_result=route_result,
            tree_idx=t_idx,
            utilization=utilization,
            coupling_k=engine.COUPLING_K,
        )
        net_timing[tree.net_index] = nt
        net_load[tree.net_index] = nt.total_cap
    for net in netlist.nets:
        net_load.setdefault(
            net.index, sum(pin_caps.get(s, 0.0) for s in net.sinks)
        )

    launch = engine.clock.launch_time()
    for port in netlist.primary_inputs():
        arrival[port.index] = launch + engine.clock.input_delay
    clock_pins = set()
    for cell in netlist.registers():
        ck = cell.pin_indices[cell.cell_type.clock_pin]
        clock_pins.add(ck)
        arrival[ck] = launch

    driver_of: Dict[int, int] = {}
    for net in netlist.nets:
        for s in net.sinks:
            driver_of[s] = net.index

    for pin_idx in netlist.topological_pin_order():
        pin = netlist.pins[pin_idx]
        if pin_idx in clock_pins or (
            pin.is_port and pin.direction == PinDirection.OUTPUT
        ):
            continue
        if pin.direction == PinDirection.OUTPUT:
            arcs = engine._cell_arcs.get(pin_idx, [])
            net_idx = netlist.pin_net_map()[pin_idx]
            load = net_load.get(int(net_idx), 0.0) if net_idx >= 0 else 0.0
            best = np.inf
            best_slew = DEFAULT_INPUT_SLEW
            for in_pin, arc in arcs:
                a_in = arrival[in_pin]
                if np.isnan(a_in):
                    continue
                a_out = a_in + arc.delay.lookup(float(slew[in_pin]), load)
                if a_out < best:  # earliest arrival: min over arcs
                    best = a_out
                    best_slew = arc.output_slew.lookup(float(slew[in_pin]), load)
            if best < np.inf:
                arrival[pin_idx] = best
                slew[pin_idx] = best_slew
        else:
            net_idx = driver_of.get(pin_idx)
            if net_idx is None:
                continue
            driver = netlist.nets[net_idx].driver
            a_drv = arrival[driver]
            if np.isnan(a_drv):
                continue
            nt = net_timing.get(net_idx)
            if nt is None:
                arrival[pin_idx] = a_drv
            else:
                arrival[pin_idx] = a_drv + nt.sink_delay.get(pin_idx, 0.0)
                slew[pin_idx] = math.sqrt(
                    float(slew[driver]) ** 2
                    + nt.sink_slew_degradation.get(pin_idx, 0.0)
                )

    requirement = hold_time + engine.clock.uncertainty
    hold_slack: Dict[int, float] = {}
    for cell in netlist.registers():
        ct = cell.cell_type
        for in_name in ct.input_pins:
            if in_name == ct.clock_pin:
                continue
            ep = cell.pin_indices[in_name]
            arr = arrival[ep]
            if not np.isnan(arr):
                hold_slack[ep] = float(arr - launch - requirement)
    whs = min(hold_slack.values()) if hold_slack else 0.0
    vios = sum(1 for s in hold_slack.values() if s < 0)
    return HoldReport(
        early_arrival=arrival,
        hold_slack=hold_slack,
        whs=float(whs),
        num_violations=vios,
    )


__all__ = ["ReferenceGlobalRouter", "reference_hold_analysis"]
