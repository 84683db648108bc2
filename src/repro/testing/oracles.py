"""Scalar reference implementations kept as parity oracles.

Each function or class here is the slow, obviously-correct form of a
production kernel, and the test suite asserts the two agree.  The one
production-package importer is :mod:`repro.bench`, which times every
fast kernel against its oracle on the same workload; nothing else
under ``src/repro`` may import this module (tests/test_import_boundary.py).

* :func:`compute_net_timing` — per-net RC tree extraction and Elmore
  delay, one Python BFS per net.  The batched CSR kernels of
  :mod:`repro.sta.flat` reproduce it to 1e-12 (tests/test_flat_sta.py).
* :func:`reference_sta` — the per-net, per-pin scalar PERT traversal.
  :meth:`repro.sta.engine.STAEngine.run` agrees with it to 1e-9 on
  arrivals, slews and slacks (float re-association only).
* :func:`reference_hold_analysis` — the scalar min-delay traversal.
  :func:`repro.sta.hold.run_hold_analysis` must report the same hold
  slacks, WHS and violation count, with earliest arrivals equal up to
  float re-association (tests/test_sta_extras.py).
* :func:`reference_forest` — one :func:`repro.steiner.rsmt.construct_tree`
  call per net.  :func:`repro.steiner.forest.build_forest` must return
  bitwise-equal trees (tests/test_flat_steiner.py).
* :func:`pattern_route_reference` — the per-edge single-pass L-pattern
  estimate.  :func:`repro.groute.flat_route.pattern_route_flat` must
  agree bitwise on shape choice, cost, committed usage and overflow.
* :class:`ReferenceGlobalRouter` — the per-edge scalar global router
  (``(x, y)`` tuple Dijkstra, one :meth:`GCellGrid.edge_cost` call per
  relaxed edge).  :class:`repro.groute.router.GlobalRouter` must return
  the same :class:`GlobalRouteResult` field by field and leave the same
  ``use_*``/``hist_*`` grid arrays (tests/test_router_parity.py).  Its
  maze search prices edges with the configured ``overflow_penalty`` and
  its rip-up rounds poll the budget every 64 victims, as the production
  router does.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.groute.flat_route import FlatRouteResult
from repro.groute.layer_assign import segment_rc
from repro.groute.router import (
    GlobalRouteResult,
    GridPoint,
    RouterConfig,
    SegmentKey,
    SegmentRoute,
)
from repro.netlist.netlist import Netlist, PinDirection
from repro.pdk.corners import DEFAULT_HOLD_TIME
from repro.pdk.technology import Technology
from repro.routegrid.grid import GCellGrid
from repro.sta.engine import DEFAULT_INPUT_SLEW, STAEngine, TimingReport
from repro.sta.flat import LN9
from repro.sta.hold import HoldReport
from repro.steiner.forest import SteinerForest
from repro.steiner.rsmt import construct_tree
from repro.steiner.tree import SteinerTree


# ----------------------------------------------------------------------
# Wire timing: per-net RC trees
# ----------------------------------------------------------------------
@dataclass
class NetTiming:
    """Wire-level timing of one net."""

    net_index: int
    total_cap: float  # pF seen by the driver (wire + sink pins)
    sink_delay: Dict[int, float]  # global sink pin index -> Elmore delay (ns)
    sink_slew_degradation: Dict[int, float]  # ns^2 additive term under PERI


def _coupling_factor(
    seg_path,
    utilization: Optional[np.ndarray],
    coupling_k: float,
) -> float:
    """Capacitance multiplier from neighbour coupling in dense regions.

    At 130 nm the lateral coupling capacitance to adjacent same-layer
    wires is comparable to the ground capacitance; its magnitude scales
    with local routing density.  We model ``c_eff = c * (1 + k * u)``
    with ``u`` the mean GCell utilization along the segment's route —
    a smooth function of where the wire runs, which is exactly the
    channel Steiner-point refinement exploits to escape congestion.
    """
    if utilization is None or coupling_k <= 0 or not seg_path:
        return 1.0
    total = 0.0
    for gx, gy in seg_path:
        total += float(utilization[min(gx, utilization.shape[0] - 1), min(gy, utilization.shape[1] - 1)])
    return 1.0 + coupling_k * total / len(seg_path)


def _edge_rc(
    xy: np.ndarray,
    tree_idx: int,
    edge_idx: int,
    u: int,
    v: int,
    technology: Technology,
    route_result: Optional[GlobalRouteResult],
    default_h_layer: int,
    default_v_layer: int,
    utilization: Optional[np.ndarray] = None,
    coupling_k: float = 0.0,
) -> Tuple[float, float]:
    """Resistance/capacitance of one tree edge at node positions ``xy``."""
    if route_result is not None:
        seg = route_result.segments.get((tree_idx, edge_idx))
        if seg is not None:
            r, c = segment_rc(seg, technology)
            return r, c * _coupling_factor(seg.path, utilization, coupling_k)
    dx = abs(float(xy[u][0] - xy[v][0]))
    dy = abs(float(xy[u][1] - xy[v][1]))
    r_h, c_h = technology.wire_rc(default_h_layer, dx)
    r_v, c_v = technology.wire_rc(default_v_layer, dy)
    return r_h + r_v, c_h + c_v


def compute_net_timing(
    tree: SteinerTree,
    sink_pin_caps: Dict[int, float],
    technology: Technology,
    route_result: Optional[GlobalRouteResult] = None,
    tree_idx: int = -1,
    default_h_layer: int = 2,
    default_v_layer: int = 3,
    utilization: Optional[np.ndarray] = None,
    coupling_k: float = 0.0,
) -> NetTiming:
    """Elmore analysis of one net's Steiner tree.

    Every tree edge is a distributed RC segment with its wire cap
    lumped half at each end (pi-model); sink pin caps add at sink
    nodes.  ``delay(n)`` sums ``R_e * C_sub(e)`` over the edges on the
    driver-to-``n`` path, and the PERI slew term is
    ``(ln(9) * delay)^2``.

    ``sink_pin_caps`` maps global sink pin index -> input capacitance.
    ``tree_idx`` is the tree's index inside its forest (needed to find
    routed segments); -1 means unrouted/pre-route mode.
    """
    n = tree.n_nodes
    if n == 1 or not tree.edges:
        total = sum(sink_pin_caps.values())
        return NetTiming(tree.net_index, total, {p: 0.0 for p in tree.pin_ids[1:]}, {p: 0.0 for p in tree.pin_ids[1:]})

    topo = tree.topology()
    directed = topo.directed_list  # (parent, child), driver-rooted
    dir_edge_local = topo.dir_edge_local
    parent_of_node = topo.parent
    xy = tree.node_xy()

    node_cap = np.zeros(n, dtype=np.float64)
    edge_r = np.zeros(len(directed), dtype=np.float64)
    slot_of_child = np.full(n, -1, dtype=np.int64)

    for k, (p, c) in enumerate(directed):
        e_idx = int(dir_edge_local[k])
        r, cap = _edge_rc(
            xy, tree_idx, e_idx, p, c, technology, route_result,
            default_h_layer, default_v_layer, utilization, coupling_k,
        )
        edge_r[k] = r
        node_cap[p] += cap * 0.5
        node_cap[c] += cap * 0.5
        slot_of_child[c] = k

    for node_pos, pin_id in enumerate(tree.pin_ids):
        if node_pos == 0:
            continue
        node_cap[node_pos] += sink_pin_caps.get(pin_id, 0.0)

    # Subtree capacitance via reverse BFS order (children before parents).
    order = topo.bfs_order
    subtree_cap = node_cap.copy()
    for node in order[::-1]:
        p = parent_of_node[node]
        if p >= 0:
            subtree_cap[p] += subtree_cap[node]

    delay = np.zeros(n, dtype=np.float64)
    for node in order:
        p = parent_of_node[node]
        if p < 0:
            continue
        delay[node] = delay[p] + edge_r[slot_of_child[node]] * subtree_cap[node]

    sink_delay: Dict[int, float] = {}
    sink_slew: Dict[int, float] = {}
    for node_pos, pin_id in enumerate(tree.pin_ids):
        if node_pos == 0:
            continue
        d = float(delay[node_pos])
        sink_delay[pin_id] = d
        sink_slew[pin_id] = (LN9 * d) ** 2

    return NetTiming(
        net_index=tree.net_index,
        total_cap=float(subtree_cap[0]),
        sink_delay=sink_delay,
        sink_slew_degradation=sink_slew,
    )


def _reference_wire_timing(
    engine: STAEngine,
    forest: SteinerForest,
    route_result: Optional[GlobalRouteResult],
    utilization: Optional[np.ndarray],
) -> Tuple[Dict[int, NetTiming], Dict[int, float]]:
    """Per-net :class:`NetTiming` and driver load (treeless nets: the
    lumped sum of their sink pin caps)."""
    netlist = engine.netlist
    pin_caps = {
        p.index: p.cap for p in netlist.pins if p.direction == PinDirection.INPUT
    }
    net_timing: Dict[int, NetTiming] = {}
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
    return net_timing, net_load


# ----------------------------------------------------------------------
# Setup and hold STA
# ----------------------------------------------------------------------
def reference_sta(
    engine: STAEngine,
    forest: SteinerForest,
    route_result: Optional[GlobalRouteResult] = None,
    utilization: Optional[np.ndarray] = None,
) -> TimingReport:
    """Scalar max-delay PERT traversal: the parity oracle of
    :meth:`repro.sta.engine.STAEngine.run`."""
    netlist = engine.netlist
    n_pins = netlist.num_pins
    arrival = np.full(n_pins, np.nan)
    slew = np.full(n_pins, DEFAULT_INPUT_SLEW)
    net_timing, net_load = _reference_wire_timing(
        engine, forest, route_result, utilization
    )

    launch = engine.clock.launch_time()
    for port in netlist.primary_inputs():
        arrival[port.index] = launch + engine.clock.input_delay
    for ck_pin in engine._clock_pins:
        arrival[ck_pin] = launch

    for pin_idx in engine._topo:
        pin = netlist.pins[pin_idx]
        if pin_idx in engine._clock_pins or (
            pin.is_port and pin.direction == PinDirection.OUTPUT
        ):
            continue  # launch values already set
        if pin.direction == PinDirection.OUTPUT:
            arcs = engine._cell_arcs.get(pin_idx, [])
            net_idx = netlist.pin_net_map()[pin_idx]
            load = net_load.get(int(net_idx), 0.0) if net_idx >= 0 else 0.0
            best_arr = -np.inf
            best_slew = DEFAULT_INPUT_SLEW
            for in_pin, arc in arcs:
                a_in = arrival[in_pin]
                if np.isnan(a_in):
                    continue
                a_out = a_in + arc.delay.lookup(float(slew[in_pin]), load)
                if a_out > best_arr:
                    best_arr = a_out
                    best_slew = arc.output_slew.lookup(float(slew[in_pin]), load)
            if best_arr > -np.inf:
                arrival[pin_idx] = best_arr
                slew[pin_idx] = best_slew
        else:
            net_idx = engine._driver_of.get(pin_idx)
            if net_idx is None:
                continue
            driver = netlist.nets[net_idx].driver
            a_drv = arrival[driver]
            if np.isnan(a_drv):
                continue
            nt = net_timing.get(net_idx)
            if nt is None:
                arrival[pin_idx] = a_drv
                slew[pin_idx] = slew[driver]
            else:
                arrival[pin_idx] = a_drv + nt.sink_delay.get(pin_idx, 0.0)
                slew[pin_idx] = math.sqrt(
                    float(slew[driver]) ** 2
                    + nt.sink_slew_degradation.get(pin_idx, 0.0)
                )

    slack: Dict[int, float] = {}
    for ep in engine._endpoints:
        req = engine._required[ep]
        arr = arrival[ep]
        slack[ep] = float(req - arr) if not np.isnan(arr) else float(req - launch)
    return TimingReport(
        arrival=arrival,
        slew=slew,
        required=dict(engine._required),
        slack=slack,
        wns=float(min(slack.values()) if slack else 0.0),
        tns=float(sum(min(0.0, s) for s in slack.values())),
        num_violations=sum(1 for s in slack.values() if s < 0.0),
        net_load=net_load,
    )


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

    net_timing, net_load = _reference_wire_timing(
        engine, forest, route_result, utilization
    )

    launch = engine.clock.launch_time()
    for port in netlist.primary_inputs():
        arrival[port.index] = launch + engine.clock.input_delay
    for ck_pin in engine._clock_pins:
        arrival[ck_pin] = launch

    for pin_idx in engine._topo:
        pin = netlist.pins[pin_idx]
        if pin_idx in engine._clock_pins or (
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
            net_idx = engine._driver_of.get(pin_idx)
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


# ----------------------------------------------------------------------
# Steiner construction and the single-pass pattern-route estimate
# ----------------------------------------------------------------------
def reference_forest(netlist: Netlist) -> SteinerForest:
    """One :func:`construct_tree` call per net of two or more pins: the
    parity oracle of :func:`repro.steiner.forest.build_forest`."""
    pos = netlist.pin_positions()
    trees = []
    for net in netlist.nets:
        pins = net.pins
        if len(pins) >= 2:
            trees.append(construct_tree(net.index, pins, pos[np.array(pins, dtype=np.int64)]))
    return SteinerForest(netlist, trees)


def pattern_route_reference(
    grid: GCellGrid,
    forest: SteinerForest,
    overflow_penalty: float = 8.0,
    commit: bool = True,
) -> FlatRouteResult:
    """Per-edge python form of the single-pass L-pattern estimate.

    The parity oracle for
    :func:`repro.groute.flat_route.pattern_route_flat`: same edge order
    (tree order, then edge order), same H-leg-then-V-leg accumulation,
    same tie-break — but through :meth:`GCellGrid.edge_cost` calls.
    """
    choices: List[int] = []
    costs: List[float] = []
    runs: List[Tuple[int, int, int, int, int, int]] = []
    for tree in forest.trees:
        xy = tree.node_xy()
        for u, v in tree.edges:
            x1, y1 = grid.locate(xy[u][0], xy[u][1])
            x2, y2 = grid.locate(xy[v][0], xy[v][1])
            h_lo, h_hi = min(x1, x2), max(x1, x2)
            v_lo, v_hi = min(y1, y2), max(y1, y2)
            cost0 = 0.0
            for i in range(h_lo, h_hi):
                cost0 += grid.edge_cost("H", i, y1, overflow_penalty)
            for j in range(v_lo, v_hi):
                cost0 += grid.edge_cost("V", x2, j, overflow_penalty)
            cost1 = 0.0
            for i in range(h_lo, h_hi):
                cost1 += grid.edge_cost("H", i, y2, overflow_penalty)
            for j in range(v_lo, v_hi):
                cost1 += grid.edge_cost("V", x1, j, overflow_penalty)
            pick = 0 if cost0 <= cost1 else 1
            choices.append(pick)
            costs.append(cost0 if pick == 0 else cost1)
            runs.append(
                (h_lo, h_hi, y1 if pick == 0 else y2, v_lo, v_hi, x2 if pick == 0 else x1)
            )
    if commit:
        # Committed after scoring: every edge is costed against the
        # incoming usage state, exactly like the batched kernel.
        for h_lo, h_hi, row, v_lo, v_hi, col in runs:
            for i in range(h_lo, h_hi):
                grid.add_usage("H", i, row)
            for j in range(v_lo, v_hi):
                grid.add_usage("V", col, j)
    return FlatRouteResult(
        choice=np.asarray(choices, dtype=np.int64),
        cost=np.asarray(costs, dtype=np.float64),
        overflow=grid.overflow(),
        max_utilization=grid.max_utilization(),
    )


__all__ = [
    "NetTiming",
    "ReferenceGlobalRouter",
    "compute_net_timing",
    "pattern_route_reference",
    "reference_forest",
    "reference_hold_analysis",
    "reference_sta",
]
