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
* :func:`reference_levelized_pins` — the per-pin loop levelization
  (longest-path levels over ``Netlist.topological_pin_order``).
  :class:`repro.sta.engine.LevelizedPins` must build bitwise-equal
  fields, level by level (tests/test_sta.py).
* :func:`reference_hold_analysis` — the scalar min-delay traversal.
  The :data:`~repro.mcmm.scenario.NEUTRAL_HOLD` row of
  :class:`repro.mcmm.sta.ScenarioSTA` must report the same hold
  slacks, WHS and violation count, with earliest arrivals equal up to
  float re-association (tests/test_sta_extras.py).
* :func:`reference_flat_forest` — the per-tree loop that flattens a
  forest into CSR arrays and gathers pin caps onto it.
  :func:`repro.steiner.flat_forest.build_flat_forest` and
  :func:`repro.sta.flat.flat_caps` must return a bitwise-equal
  :class:`~repro.steiner.flat_forest.FlatForest` and
  :class:`~repro.sta.flat.FlatCaps`, field by field
  (tests/test_flat_sta.py).
* :func:`reference_timing_graph` — the loop form of the evaluator's
  static graph (its own Kahn sort, register and port walks, per-tree
  Steiner loop).  :func:`repro.timing_model.graph.build_timing_graph`
  must return a bitwise-equal :class:`~repro.timing_model.graph.
  TimingGraph`, field by field and level by level, wherever the loop's
  levels agree with the sign-off levelization (tests/test_timing_model.py).
* :func:`reference_forest` — one :func:`repro.steiner.rsmt.construct_tree`
  call per net.  :func:`repro.steiner.forest.build_forest` must return
  bitwise-equal trees (tests/test_flat_steiner.py).
* :func:`pattern_route_reference` — the per-edge single-pass L-pattern
  estimate.  :func:`repro.groute.flat_route.pattern_route_flat` must
  agree bitwise on shape choice, cost, committed usage and overflow.
* :class:`ReferenceGlobalRouter` — the per-edge scalar global router
  (``(x, y)`` tuple Dijkstra, one :meth:`GCellGrid.edge_cost` call per
  relaxed edge), returning one :class:`SegmentRoute` object per tree
  edge (:class:`ReferenceRouteResult`).
  :class:`repro.groute.router.GlobalRouter` must return the same
  segments as the rows of its columnar :class:`GlobalRouteResult`, row
  by row in the same order, and leave the same ``use_*``/``hist_*``
  grid arrays (tests/test_router_parity.py).  Its maze search prices
  edges with the configured ``overflow_penalty`` and its rip-up rounds
  poll the budget every 64 victims, as the production router does.
* :func:`reference_assign_layers` — the per-segment layer assignment
  loop (with :func:`count_vias`).
  :func:`repro.groute.layer_assign.assign_layers` must fill the same
  layers and vias into the columns (tests/test_router_parity.py).
* :func:`reference_routed_edge_rc` — one :func:`segment_rc` call per
  routed segment.  :func:`repro.sta.flat.routed_edge_rc`
  must return bitwise-equal edge R and C from the columns
  (tests/test_flat_sta.py).  :func:`segment_routes` gives either route
  form as :class:`SegmentRoute` objects, which is how the per-net
  oracles read a production route.
* :func:`rebuilt_state` — a :class:`~repro.mcmm.sta.ScenarioSTA`'s
  state rebuilt from scratch: a fresh flattening, the whole forest's
  caps, edge RC and Elmore rows, and one full pass.  Every array of
  the state its re-time path keeps must equal it bitwise after any
  sequence of edits (tests/test_retime.py).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.groute.flat_route import FlatRouteResult
from repro.groute.router import (
    GlobalRouteResult,
    GridPoint,
    RouterConfig,
    SegmentKey,
)
from repro.mcmm.scenario import NEUTRAL_HOLD
from repro.mcmm.sta import BatchState, ScenarioMetrics, ScenarioSTA
from repro.netlist.netlist import Netlist, PinDirection
from repro.pdk.corners import DEFAULT_HOLD_TIME
from repro.pdk.technology import Technology
from repro.routegrid.grid import GCellGrid
from repro.sta.engine import (
    DEFAULT_INPUT_SLEW,
    LevelizedPins,
    PertLevel,
    STAEngine,
    TimingReport,
    propagate_from_batched,
)
from repro.sta.flat import (
    LN9,
    FlatCaps,
    elmore_forest,
    flat_caps,
    preroute_edge_rc,
    routed_edge_rc,
)
from repro.steiner.flat_forest import FlatForest, build_flat_forest
from repro.steiner.forest import SteinerForest
from repro.steiner.rsmt import construct_tree
from repro.steiner.tree import SteinerTree
from repro.timing_model.graph import (
    NODE_DRIVER,
    NODE_SINK,
    NODE_STEINER,
    LevelArcs,
    TimingGraph,
)


# ----------------------------------------------------------------------
# Per-segment route results
# ----------------------------------------------------------------------
@dataclass
class SegmentRoute:
    """Routed geometry of one tree edge, as one object."""

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
class ReferenceRouteResult:
    """Per-segment form of :class:`GlobalRouteResult`: one
    :class:`SegmentRoute` per key, inserted in routing order."""

    segments: Dict[SegmentKey, SegmentRoute]
    overflow: float
    max_utilization: float
    total_wirelength: float
    maze_routed: int
    timed_out: bool = False


RouteLike = Union[GlobalRouteResult, ReferenceRouteResult]


def segment_routes(result: RouteLike) -> Dict[SegmentKey, SegmentRoute]:
    """The segments of either route form, keyed in routing order.  A
    columnar result's rows become :class:`SegmentRoute`s of plain
    python scalars."""
    if isinstance(result, ReferenceRouteResult):
        return result.segments
    columns = zip(
        result.keys(),
        result.net.tolist(),
        result.h_length.tolist(),
        result.v_length.tolist(),
        result.bends.tolist(),
        result.h_layer.tolist(),
        result.v_layer.tolist(),
        result.vias.tolist(),
    )
    return {
        key: SegmentRoute(key, net, h, v, bends, result.path(row), h_layer, v_layer, vias)
        for row, (key, net, h, v, bends, h_layer, v_layer, vias) in enumerate(columns)
    }


def count_vias(seg: SegmentRoute, technology: Technology) -> int:
    """Vias: bends switch H/V layer; endpoints drop to the pin layer."""
    layer_gap = abs(seg.h_layer - seg.v_layer)
    bend_vias = seg.bends * max(layer_gap, 1)
    # Access vias from met1 (pins) up to whichever layer each end uses.
    access = 0
    if seg.h_length > 0:
        access += seg.h_layer  # met1 is index 0
    if seg.v_length > 0:
        access += seg.v_layer
    if seg.h_length == 0 and seg.v_length == 0:
        access = 0
    return bend_vias + access


def segment_rc(seg: SegmentRoute, technology: Technology) -> Tuple[float, float]:
    """(resistance, capacitance) of a routed segment including vias."""
    r_h, c_h = technology.wire_rc(seg.h_layer, seg.h_length)
    r_v, c_v = technology.wire_rc(seg.v_layer, seg.v_length)
    via_r = 0.0
    via_c = 0.0
    if seg.vias:
        # Use the via between the two assigned layers as representative.
        low, high = sorted((seg.h_layer, seg.v_layer))
        if low == high:
            high = min(high + 1, technology.num_layers - 1)
        per_via_r = technology.via_stack_resistance(low, high) / max(high - low, 1)
        via_r = per_via_r * seg.vias
        via_c = technology.via_between(low, min(low + 1, technology.num_layers - 1)).capacitance * seg.vias if low < technology.num_layers - 1 else 0.0
    return r_h + r_v + via_r, c_h + c_v + via_c


def reference_assign_layers(
    result: ReferenceRouteResult,
    technology: Technology,
    grid_area_gcells: int,
    promote_quantiles: Tuple[float, float] = (0.55, 0.85),
) -> None:
    """Per-segment loop form of
    :func:`repro.groute.layer_assign.assign_layers` (mutates the
    segments): longest first, one ``pick`` per wire against running
    per-tier usage counters."""
    h_layers = [l.index for l in technology.horizontal_layers()]
    v_layers = [l.index for l in technology.vertical_layers()]
    if not h_layers or not v_layers:
        raise ValueError("technology must have both H and V layers")

    lengths = np.array([s.length for s in result.segments.values()])
    if lengths.size == 0:
        return
    q_mid, q_high = np.quantile(lengths, promote_quantiles[0]), np.quantile(
        lengths, promote_quantiles[1]
    )

    # Rough per-tier budget: upper layers hold fewer, longer wires.
    budget = {
        "mid": grid_area_gcells * 4.0,
        "high": grid_area_gcells * 1.5,
    }
    used = {"mid": 0.0, "high": 0.0}

    def pick(layers: List[int], seg_len: float) -> int:
        """Choose a layer index from ``layers`` (sorted low to high)."""
        if len(layers) == 1:
            return layers[0]
        tier = 0
        if seg_len >= q_high and len(layers) >= 3 and used["high"] < budget["high"]:
            tier = 2
            used["high"] += seg_len / max(technology.gcell_size, 1e-9)
        elif seg_len >= q_mid and used["mid"] < budget["mid"]:
            tier = 1
            used["mid"] += seg_len / max(technology.gcell_size, 1e-9)
        tier = min(tier, len(layers) - 1)
        return layers[tier]

    # Deterministic order: longest first, matching routing order.
    for key in sorted(result.segments, key=lambda k: -result.segments[k].length):
        seg = result.segments[key]
        seg.h_layer = pick(h_layers, seg.length)
        seg.v_layer = pick(v_layers, seg.length)
        seg.vias = count_vias(seg, technology)


def reference_routed_edge_rc(
    flat: FlatForest,
    technology: Technology,
    xy: np.ndarray,
    route_result: RouteLike,
    utilization: Optional[np.ndarray] = None,
    coupling_k: float = 0.0,
    default_h_layer: int = 2,
    default_v_layer: int = 3,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-segment loop form of :func:`repro.sta.flat.routed_edge_rc`:
    one :func:`segment_rc` and one :func:`_coupling_factor` per routed
    segment, written to its edge row."""
    edge_r, edge_c = preroute_edge_rc(
        flat, technology, xy, default_h_layer, default_v_layer
    )
    row_of = dict(
        zip(zip(flat.edge_tree.tolist(), flat.edge_local.tolist()), range(flat.n_edges))
    )
    for key, seg in segment_routes(route_result).items():
        row = row_of.get(key)
        if row is None:
            continue
        r, c = segment_rc(seg, technology)
        edge_r[row] = r
        edge_c[row] = c * _coupling_factor(seg.path, utilization, coupling_k)
    return edge_r, edge_c


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
    segments: Optional[Dict[SegmentKey, SegmentRoute]],
    default_h_layer: int,
    default_v_layer: int,
    utilization: Optional[np.ndarray] = None,
    coupling_k: float = 0.0,
) -> Tuple[float, float]:
    """Resistance/capacitance of one tree edge at node positions ``xy``."""
    if segments is not None:
        seg = segments.get((tree_idx, edge_idx))
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
    segments: Optional[Dict[SegmentKey, SegmentRoute]] = None,
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
    ``segments`` are the routed segments (:func:`segment_routes`) and
    ``tree_idx`` the tree's index inside its forest (needed to find
    them); ``None`` / -1 mean unrouted/pre-route mode.
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
            xy, tree_idx, e_idx, p, c, technology, segments,
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
    route_result: Optional[RouteLike],
    utilization: Optional[np.ndarray],
) -> Tuple[Dict[int, NetTiming], Dict[int, float]]:
    """Per-net :class:`NetTiming` and driver load (treeless nets: the
    lumped sum of their sink pin caps)."""
    netlist = engine.netlist
    segments = segment_routes(route_result) if route_result is not None else None
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
            segments=segments,
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
# Levelization
# ----------------------------------------------------------------------
def reference_levelized_pins(netlist: Netlist) -> LevelizedPins:
    """Per-pin, per-net, per-cell loop form of
    :class:`repro.sta.engine.LevelizedPins`: longest-path levels over
    ``Netlist.topological_pin_order``, one Python list per level."""
    pert = LevelizedPins.__new__(LevelizedPins)
    n_pins = netlist.num_pins
    pert.n_pins = n_pins
    pert.n_nets = netlist.num_nets
    pert.pin_cap = np.zeros(n_pins, dtype=np.float64)
    for p in netlist.pins:
        if p.direction == PinDirection.INPUT:
            pert.pin_cap[p.index] = p.cap
    lumped = np.zeros(pert.n_nets, dtype=np.float64)
    for net in netlist.nets:
        total = 0.0
        for s in net.sinks:
            total += float(pert.pin_cap[s])
        lumped[net.index] = total
    pert.lumped_net_cap = lumped

    pert.input_pins = np.array(
        [p.index for p in netlist.primary_inputs()], dtype=np.int64
    )
    pert.clock_pins = np.unique(
        np.array(
            [c.pin_indices[c.cell_type.clock_pin] for c in netlist.registers()],
            dtype=np.int64,
        )
    )
    skip = set(pert.input_pins.tolist()) | set(pert.clock_pins.tolist())

    net_arcs: List[Tuple[int, int, int]] = []
    for net in netlist.nets:
        for s in net.sinks:
            if s not in skip:
                net_arcs.append((net.driver, s, net.index))
    pnm = netlist.pin_net_map()
    cell_dests: List[Tuple[int, list, int]] = []
    for cell in netlist.cells:
        ct = cell.cell_type
        for out_name in ct.output_pins:
            out_pin = cell.pin_indices[out_name]
            arcs = [
                (cell.pin_indices[arc.from_pin], arc) for arc in ct.arcs_to(out_name)
            ]
            if out_pin not in skip and arcs:
                cell_dests.append((out_pin, arcs, int(pnm[out_pin])))
    cell_dests.sort(key=lambda d: d[0])

    level = [0] * n_pins
    succ: List[List[int]] = [[] for _ in range(n_pins)]
    for u, v, _ in net_arcs:
        succ[u].append(v)
    for out_pin, arcs, _ in cell_dests:
        for in_pin, _arc in arcs:
            succ[in_pin].append(out_pin)
    for u in netlist.topological_pin_order():
        lu = level[u] + 1
        for v in succ[u]:
            if level[v] < lu:
                level[v] = lu

    pert.pin_level = np.array(level, dtype=np.int64)
    net_src = np.array([a[0] for a in net_arcs], dtype=np.int64)
    net_dst = np.array([a[1] for a in net_arcs], dtype=np.int64)
    net_net = np.array([a[2] for a in net_arcs], dtype=np.int64)
    net_lvl = np.array([level[v] for v in net_dst.tolist()], dtype=np.int64)
    order = np.argsort(net_lvl, kind="stable")
    net_src, net_dst, net_net = net_src[order], net_dst[order], net_net[order]
    max_lvl = int(net_lvl.max()) if net_lvl.size else 0
    dests_at: Dict[int, List[Tuple[int, list, int]]] = {}
    for dest in cell_dests:
        L = level[dest[0]]
        dests_at.setdefault(L, []).append(dest)
        max_lvl = max(max_lvl, L)
    net_bound = np.searchsorted(net_lvl[order], np.arange(max_lvl + 2)).tolist()

    pert.levels = []
    for L in range(1, max_lvl + 1):
        lo, hi = net_bound[L], net_bound[L + 1]
        c_in: List[int] = []
        c_dest: List[int] = []
        c_counts: List[int] = []
        c_net: List[int] = []
        groups: Dict[int, Tuple[object, List[int]]] = {}
        for out_pin, arcs, net_idx in dests_at.get(L, ()):
            c_dest.append(out_pin)
            c_counts.append(len(arcs))
            c_net.append(net_idx)
            for in_pin, arc in arcs:
                pos = len(c_in)
                c_in.append(in_pin)
                entry = groups.setdefault(id(arc), (arc, []))
                entry[1].append(pos)
        counts = np.array(c_counts, dtype=np.int64)
        start = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=start[1:])
        arc_groups = [
            (arc, np.array(pos, dtype=np.int64)) for arc, pos in groups.values()
        ]
        group_id = np.zeros(len(c_in), dtype=np.int64)
        for g, (_arc, pos) in enumerate(arc_groups):
            group_id[pos] = g
        pert.levels.append(
            PertLevel(
                net_src=net_src[lo:hi],
                net_dst=net_dst[lo:hi],
                net_net=net_net[lo:hi],
                cell_in=np.array(c_in, dtype=np.int64),
                cell_dest=np.array(c_dest, dtype=np.int64),
                cell_start=start,
                cell_counts=counts,
                cell_dest_net=np.array(c_net, dtype=np.int64),
                arc_groups=arc_groups,
                arc_group_id=group_id,
            )
        )

    outputs = [p.index for p in netlist.primary_outputs()]
    data_pins: List[int] = []
    setup: List[float] = []
    for cell in netlist.registers():
        ct = cell.cell_type
        for in_name in ct.input_pins:
            if in_name != ct.clock_pin:
                data_pins.append(cell.pin_indices[in_name])
                setup.append(ct.setup_time)
    pert.endpoints_arr = np.array(outputs + data_pins, dtype=np.int64)
    pert.is_output = np.arange(pert.endpoints_arr.size) < len(outputs)
    pert.setup_time = np.array([np.nan] * len(outputs) + setup, dtype=np.float64)
    pert.hold_endpoints = np.array(data_pins, dtype=np.int64)

    # Table layout: every table of the library in library order (cell,
    # arc, delay before output slew), then the tables of arcs from
    # outside the library in the order the levels first use them.
    tables: List[object] = []
    seen_tables = set()
    lib_arcs = [a for ct in netlist.library.cells.values() for a in ct.arcs]
    used_arcs = [arc for lv in pert.levels for arc, _pos in lv.arc_groups]
    for arc in lib_arcs + used_arcs:
        for tbl in (arc.delay, arc.output_slew):
            if id(tbl) not in seen_tables:
                seen_tables.add(id(tbl))
                tables.append(tbl)
    pert.shared_axes = None
    pert.table_values = None
    if tables and all(
        np.array_equal(t.slew_axis, tables[0].slew_axis)
        and np.array_equal(t.load_axis, tables[0].load_axis)
        for t in tables
    ):
        pert.shared_axes = (tables[0].slew_axis, tables[0].load_axis)
        offsets: Dict[int, int] = {}
        values: List[np.ndarray] = []
        size = 0
        for tbl in tables:
            offsets[id(tbl)] = size
            values.append(tbl.values.ravel())
            size += tbl.values.size
        for lv in pert.levels:
            lv.delay_base = np.zeros(lv.cell_in.size, dtype=np.int64)
            lv.slew_base = np.zeros(lv.cell_in.size, dtype=np.int64)
            for arc, pos in lv.arc_groups:
                lv.delay_base[pos] = offsets[id(arc.delay)]
                lv.slew_base[pos] = offsets[id(arc.output_slew)]
        pert.table_values = np.concatenate(values)
    pert.net_driver = np.array([net.driver for net in netlist.nets], dtype=np.int64)
    return pert


# ----------------------------------------------------------------------
@dataclass
class _ScalarGraph:
    """The timing graph as the scalar traversals read it, derived from
    the netlist alone."""

    topo: List[int]  # pins in dependency order
    clock_pins: set  # register CK pins (ideal clock)
    cell_arcs: Dict[int, List[Tuple[int, object]]]  # out pin -> (in pin, arc)
    driver_of: Dict[int, int]  # sink pin -> net


def _scalar_graph(netlist: Netlist) -> _ScalarGraph:
    cell_arcs: Dict[int, List[Tuple[int, object]]] = {}
    for cell in netlist.cells:
        ct = cell.cell_type
        for out_name in ct.output_pins:
            cell_arcs[cell.pin_indices[out_name]] = [
                (cell.pin_indices[arc.from_pin], arc) for arc in ct.arcs_to(out_name)
            ]
    return _ScalarGraph(
        topo=netlist.topological_pin_order(),
        clock_pins={
            cell.pin_indices[cell.cell_type.clock_pin] for cell in netlist.registers()
        },
        cell_arcs=cell_arcs,
        driver_of={s: net.index for net in netlist.nets for s in net.sinks},
    )


def reference_sta(
    engine: STAEngine,
    forest: SteinerForest,
    route_result: Optional[RouteLike] = None,
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

    graph = _scalar_graph(netlist)
    launch = engine.clock.launch_time()
    for port in netlist.primary_inputs():
        arrival[port.index] = launch + engine.clock.input_delay
    for ck_pin in graph.clock_pins:
        arrival[ck_pin] = launch

    for pin_idx in graph.topo:
        pin = netlist.pins[pin_idx]
        if pin_idx in graph.clock_pins or (
            pin.is_port and pin.direction == PinDirection.OUTPUT
        ):
            continue  # launch values already set
        if pin.direction == PinDirection.OUTPUT:
            arcs = graph.cell_arcs.get(pin_idx, [])
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
            net_idx = graph.driver_of.get(pin_idx)
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

    required: Dict[int, float] = {}
    for cell in netlist.registers():
        ct = cell.cell_type
        for in_name in ct.input_pins:
            if in_name != ct.clock_pin:
                required[cell.pin_indices[in_name]] = engine.clock.required_at_register(
                    ct.setup_time
                )
    for port in netlist.primary_outputs():
        required[port.index] = engine.clock.required_at_output()
    slack: Dict[int, float] = {}
    for ep in netlist.endpoints():
        req = required[ep]
        arr = arrival[ep]
        slack[ep] = float(req - arr) if not np.isnan(arr) else float(req - launch)
    return TimingReport(
        arrival=arrival,
        slew=slew,
        required=required,
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
    def route(self, forest: SteinerForest, budget=None) -> ReferenceRouteResult:
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
        return ReferenceRouteResult(
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
        return np.linspace(x1 + 1, x2 - 1, k).astype(int).tolist()

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
    route_result: Optional[RouteLike] = None,
    utilization: Optional[np.ndarray] = None,
) -> ScenarioMetrics:
    """Scalar min-delay PERT traversal: the parity oracle of the
    :data:`~repro.mcmm.scenario.NEUTRAL_HOLD` row of
    :class:`~repro.mcmm.sta.ScenarioSTA` (``wns`` is the WHS)."""
    netlist = engine.netlist
    n_pins = netlist.num_pins
    arrival = np.full(n_pins, np.nan)
    slew = np.full(n_pins, DEFAULT_INPUT_SLEW)

    net_timing, net_load = _reference_wire_timing(
        engine, forest, route_result, utilization
    )

    graph = _scalar_graph(netlist)
    launch = engine.clock.launch_time()
    for port in netlist.primary_inputs():
        arrival[port.index] = launch + engine.clock.input_delay
    for ck_pin in graph.clock_pins:
        arrival[ck_pin] = launch

    for pin_idx in graph.topo:
        pin = netlist.pins[pin_idx]
        if pin_idx in graph.clock_pins or (
            pin.is_port and pin.direction == PinDirection.OUTPUT
        ):
            continue
        if pin.direction == PinDirection.OUTPUT:
            arcs = graph.cell_arcs.get(pin_idx, [])
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
            net_idx = graph.driver_of.get(pin_idx)
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

    requirement = DEFAULT_HOLD_TIME + engine.clock.uncertainty
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
    tns = sum(min(s, 0.0) for s in hold_slack.values())
    vios = sum(1 for s in hold_slack.values() if s < 0)
    return ScenarioMetrics(
        name=NEUTRAL_HOLD.name,
        check="hold",
        wns=float(whs),
        tns=float(tns),
        num_violations=vios,
        slack=hold_slack,
        arrival=arrival,
    )


# ----------------------------------------------------------------------
# Flat RC forest construction
# ----------------------------------------------------------------------
def reference_flat_forest(
    forest: SteinerForest, pin_cap: np.ndarray
) -> Tuple[FlatForest, FlatCaps]:
    """Per-tree loop form of
    :func:`repro.steiner.flat_forest.build_flat_forest` and
    :func:`repro.sta.flat.flat_caps`: each tree's CSR slice is written
    in turn, and each BFS level is one ``flatnonzero`` over the whole
    forest."""
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
    base_xy = np.zeros((N, 2), dtype=np.float64)

    fedge_u: List[int] = []
    fedge_v: List[int] = []
    fedge_tree: List[int] = []
    fedge_local: List[int] = []
    fedge_net: List[int] = []
    edge_tree_parts: List[np.ndarray] = []
    edge_local_parts: List[np.ndarray] = []
    pin_rows_parts: List[np.ndarray] = []
    steiner_rows_parts: List[np.ndarray] = []
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
        for k, (u, v) in enumerate(tree.edges):
            fedge_u.append(base + u)
            fedge_v.append(base + v)
            fedge_tree.append(t)
            fedge_local.append(k)
            fedge_net.append(tree.net_index)

        topo = tree.topology()
        reached = topo.parent >= 0
        parent[base : base + n][reached] = topo.parent[reached] + base
        depth[base : base + n] = topo.depth

        edge_local_parts.append(topo.dir_edge_local)
        edge_tree_parts.append(np.full(topo.dir_edge_local.size, t, dtype=np.int64))
        edge_offset[t + 1] = edge_offset[t] + topo.dir_edge_local.size

        pin_rows_parts.append(np.arange(base, base + n_pins, dtype=np.int64))
        base_xy[base : base + n_pins] = tree.pin_xy
        if tree.n_steiner:
            sl = forest.steiner_slice(t)
            steiner_rows_parts.append(
                np.arange(base + n_pins, base + n, dtype=np.int64)
            )
            steiner_tree[sl] = t

        sinks = np.asarray(tree.pin_ids[1:], dtype=np.int64)
        sink_rows_parts.append(np.arange(base + 1, base + n_pins, dtype=np.int64))
        sink_pin_parts.append(sinks)
        sink_tree_parts.append(np.full(sinks.size, t, dtype=np.int64))
        sink_offset[t + 1] = sink_offset[t] + sinks.size
        caps = np.array([float(pin_cap[p]) for p in sinks.tolist()], dtype=np.float64)
        node_base_cap[base + 1 : base + n_pins] = caps
        lumped_cap[t] = caps.sum()

    def _cat(parts: List[np.ndarray], dtype=np.int64) -> np.ndarray:
        if not parts:
            return np.zeros(0, dtype=dtype)
        return np.concatenate(parts).astype(dtype, copy=False)

    edge_tree = _cat(edge_tree_parts)
    edge_local = _cat(edge_local_parts)
    edge_child = np.flatnonzero(parent >= 0)
    assert edge_child.size == edge_tree.size

    max_depth = int(depth.max()) if N else 0
    levels = []
    reached_mask = parent >= 0
    for d in range(1, max_depth + 1):
        lvl = np.flatnonzero((depth == d) & reached_mask)
        if lvl.size:
            levels.append(lvl)

    forest_edge_row = np.full(sum(len(t.edges) for t in trees), -1, dtype=np.int64)
    base = 0
    row = 0
    for tree in trees:
        for local in tree.topology().dir_edge_local.tolist():
            forest_edge_row[base + local] = row
            row += 1
        base += len(tree.edges)
    flat = FlatForest(
        n_trees=T,
        n_nodes=N,
        node_offset=node_offset,
        tree_of_node=tree_of_node,
        parent=parent,
        depth=depth,
        levels=levels,
        edge_child=edge_child,
        edge_tree=edge_tree,
        edge_local=edge_local,
        edge_offset=edge_offset,
        forest_edge_row=forest_edge_row,
        forest_edge_u=np.array(fedge_u, dtype=np.int64),
        forest_edge_v=np.array(fedge_v, dtype=np.int64),
        forest_edge_tree=np.array(fedge_tree, dtype=np.int64),
        forest_edge_local=np.array(fedge_local, dtype=np.int64),
        forest_edge_net=np.array(fedge_net, dtype=np.int64),
        pin_rows=_cat(pin_rows_parts),
        base_xy=base_xy,
        steiner_rows=_cat(steiner_rows_parts),
        steiner_tree=steiner_tree,
        sink_rows=_cat(sink_rows_parts),
        sink_pin=_cat(sink_pin_parts),
        sink_tree=_cat(sink_tree_parts),
        sink_offset=sink_offset,
        net_of_tree=net_of_tree,
        tree_root=node_offset[:-1].copy(),
        tree_has_edges=tree_has_edges,
    )
    return flat, FlatCaps(node_base_cap=node_base_cap, lumped_cap=lumped_cap)


# ----------------------------------------------------------------------
# Evaluator timing graph
# ----------------------------------------------------------------------
def reference_timing_graph(
    netlist: Netlist,
    forest: SteinerForest,
    congestion: Optional[np.ndarray] = None,
) -> TimingGraph:
    """Loop form of :func:`repro.timing_model.graph.build_timing_graph`:
    a per-tree walk for the Steiner graph, its own Kahn sort over the
    pin graph (net arcs into clock pins included) and the register and
    port walks for the launch and endpoint tables."""
    # ------------------------------------------------------------------
    # Steiner graph
    # ------------------------------------------------------------------
    tree_offsets = np.zeros(len(forest.trees) + 1, dtype=np.int64)
    for i, tree in enumerate(forest.trees):
        tree_offsets[i + 1] = tree_offsets[i] + tree.n_nodes
    m = int(tree_offsets[-1])

    node_type = np.full(m, NODE_STEINER, dtype=np.int64)
    static_pos = np.zeros((m, 2), dtype=np.float64)
    node_cap = np.zeros(m, dtype=np.float64)
    tree_of_node = np.zeros(m, dtype=np.int64)
    steiner_rows: List[int] = []
    bcast_src: List[int] = []
    bcast_dst: List[int] = []
    reduce_src: List[int] = []
    reduce_dst: List[int] = []
    edge_src: List[int] = []
    edge_dst: List[int] = []
    net_of_edge: List[int] = []
    sink_node_of: Dict[Tuple[int, int], int] = {}  # (net, sink pin) -> node

    pin_caps = {p.index: p.cap for p in netlist.pins}

    for t_idx, tree in enumerate(forest.trees):
        base = int(tree_offsets[t_idx])
        tree_of_node[base : base + tree.n_nodes] = t_idx
        for local, pin_id in enumerate(tree.pin_ids):
            node = base + local
            node_type[node] = NODE_DRIVER if local == 0 else NODE_SINK
            static_pos[node] = tree.pin_xy[local]
            node_cap[node] = pin_caps.get(pin_id, 0.0) if local > 0 else 0.0
            if local > 0:
                sink_node_of[(tree.net_index, pin_id)] = node
        for s in range(tree.n_steiner):
            node = base + tree.n_pins + s
            steiner_rows.append(node)
        for p, c in tree.directed_edges():
            bcast_src.append(base + p)
            bcast_dst.append(base + c)
        for local in range(1, tree.n_pins):
            reduce_src.append(base + local)
            reduce_dst.append(base + 0)
        for u, v in tree.edges:
            edge_src.append(base + u)
            edge_dst.append(base + v)
            net_of_edge.append(tree.net_index)

    # ------------------------------------------------------------------
    # Driver->sink path structure with downstream-cap weights
    # ------------------------------------------------------------------
    net_arc_index: Dict[Tuple[int, int], int] = {}
    arc_net: List[int] = []
    arc_sink: List[int] = []
    for net in netlist.nets:
        for s in net.sinks:
            net_arc_index[(net.index, s)] = len(net_arc_index)
            arc_net.append(net.index)
            arc_sink.append(s)
    n_net_arcs = len(net_arc_index)

    path_src: List[int] = []
    path_dst: List[int] = []
    path_arc: List[int] = []
    path_downcap: List[float] = []
    for t_idx, tree in enumerate(forest.trees):
        base = int(tree_offsets[t_idx])
        # Downstream sink-pin capacitance per node (subtree sums).
        topo = tree.topology()
        parent = topo.parent
        sub_cap = np.zeros(tree.n_nodes)
        for local, pin_id in enumerate(tree.pin_ids):
            if local > 0:
                sub_cap[local] = pin_caps.get(pin_id, 0.0)
        # Accumulate leaves-to-root (parents precede children in BFS).
        for node in topo.bfs_order[::-1]:
            p = parent[node]
            if p >= 0:
                sub_cap[p] += sub_cap[node]
        for path in tree.driver_paths():
            sink_local = path[-1]
            pin_id = tree.pin_ids[sink_local]
            arc_id = net_arc_index.get((tree.net_index, pin_id))
            if arc_id is None:
                continue
            for a, b in zip(path, path[1:]):
                path_src.append(base + a)
                path_dst.append(base + b)
                path_arc.append(arc_id)
                path_downcap.append(float(sub_cap[b]))

    # ------------------------------------------------------------------
    # Per-net static features
    # ------------------------------------------------------------------
    n_nets = netlist.num_nets
    # np.bincount accumulates in input (= sink) order, so this matches
    # the per-net sequential sum bit for bit.
    pin_cap_arr = np.array([p.cap for p in netlist.pins], dtype=np.float64)
    if arc_net:
        sink_cap_sum = np.bincount(
            np.asarray(arc_net, dtype=np.int64),
            weights=pin_cap_arr[np.asarray(arc_sink, dtype=np.int64)],
            minlength=n_nets,
        )
    else:
        sink_cap_sum = np.zeros(n_nets, dtype=np.float64)
    drive_res = np.zeros(n_nets, dtype=np.float64)
    for net in netlist.nets:
        driver = netlist.pins[net.driver]
        if driver.is_cell_pin:
            drive_res[net.index] = netlist.cells[driver.cell_index].cell_type.drive_res
        else:
            drive_res[net.index] = 1.0  # port driver: nominal source impedance

    # ------------------------------------------------------------------
    # Netlist graph levelization
    # ------------------------------------------------------------------
    n_pins = netlist.num_pins
    preds_net: Dict[int, Tuple[int, int]] = {}  # sink pin -> (driver pin, net)
    for net in netlist.nets:
        for s in net.sinks:
            preds_net[s] = (net.driver, net.index)
    cell_arcs: List[Tuple[int, int, np.ndarray, int]] = []
    pin_net = netlist.pin_net_map()
    for cell in netlist.cells:
        ct = cell.cell_type
        for out_name in ct.output_pins:
            out_pin = cell.pin_indices[out_name]
            out_net = int(pin_net[out_pin])
            for arc in ct.arcs_to(out_name):
                in_pin = cell.pin_indices[arc.from_pin]
                feat = np.array(
                    [
                        arc.delay.values.mean(),  # characteristic delay
                        ct.drive_res / 10.0,
                        ct.input_cap(arc.from_pin) * 100.0,
                        1.0 if ct.is_sequential else 0.0,
                    ]
                )
                cell_arcs.append((in_pin, out_pin, feat, out_net))

    level = np.zeros(n_pins, dtype=np.int64)
    indeg = np.zeros(n_pins, dtype=np.int64)
    succ: List[List[int]] = [[] for _ in range(n_pins)]
    for s, (d, _) in preds_net.items():
        succ[d].append(s)
        indeg[s] += 1
    for in_pin, out_pin, _, _ in cell_arcs:
        succ[in_pin].append(out_pin)
        indeg[out_pin] += 1
    queue = [i for i in range(n_pins) if indeg[i] == 0]
    head = 0
    order: List[int] = []
    while head < len(queue):
        u = queue[head]
        head += 1
        order.append(u)
        for v in succ[u]:
            level[v] = max(level[v], level[u] + 1)
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(v)

    max_level = int(level.max()) if n_pins else 0

    # Group arcs by destination level.
    net_arcs_by_level: Dict[int, List[Tuple[int, int, int, int]]] = {}
    for s, (d, net_idx) in preds_net.items():
        node = sink_node_of.get((net_idx, s), -1)
        net_arcs_by_level.setdefault(int(level[s]), []).append((d, s, node, net_idx))
    cell_arcs_by_level: Dict[int, List[Tuple[int, int, np.ndarray, int]]] = {}
    for in_pin, out_pin, feat, out_net in cell_arcs:
        cell_arcs_by_level.setdefault(int(level[out_pin]), []).append(
            (in_pin, out_pin, feat, out_net)
        )

    levels: List[LevelArcs] = []
    for lv in range(1, max_level + 1):
        na = net_arcs_by_level.get(lv, [])
        ca = cell_arcs_by_level.get(lv, [])
        levels.append(
            LevelArcs(
                net_driver=np.array([a[0] for a in na], dtype=np.int64),
                net_sink=np.array([a[1] for a in na], dtype=np.int64),
                net_sink_node=np.array([a[2] for a in na], dtype=np.int64),
                net_of_sink=np.array([a[3] for a in na], dtype=np.int64),
                net_arc_id=np.array(
                    [net_arc_index[(a[3], a[1])] for a in na], dtype=np.int64
                ),
                cell_in=np.array([a[0] for a in ca], dtype=np.int64),
                cell_out=np.array([a[1] for a in ca], dtype=np.int64),
                cell_feat=(
                    np.stack([a[2] for a in ca]) if ca else np.zeros((0, 4))
                ),
                cell_out_net=np.array([a[3] for a in ca], dtype=np.int64),
            )
        )

    # ------------------------------------------------------------------
    # Startpoints / endpoints
    # ------------------------------------------------------------------
    clock = netlist.clock
    startpoints: List[int] = []
    start_arrival: List[float] = []
    start_feat: List[List[float]] = []
    for port in netlist.primary_inputs():
        startpoints.append(port.index)
        start_arrival.append(clock.launch_time() + clock.input_delay)
        start_feat.append([1.0, 0.0])
    for cell in netlist.registers():
        ck = cell.pin_indices[cell.cell_type.clock_pin]
        startpoints.append(ck)
        start_arrival.append(clock.launch_time())
        start_feat.append([0.0, 1.0])

    endpoints: List[int] = []
    required: List[float] = []
    setup_time: List[float] = []
    for cell in netlist.registers():
        ct = cell.cell_type
        for in_name in ct.input_pins:
            if in_name != ct.clock_pin:
                endpoints.append(cell.pin_indices[in_name])
                required.append(clock.required_at_register(ct.setup_time))
                setup_time.append(ct.setup_time)
    n_register_endpoints = len(endpoints)
    for port in netlist.primary_outputs():
        endpoints.append(port.index)
        required.append(clock.required_at_output())
        setup_time.append(math.nan)

    reachable = np.zeros(n_pins, dtype=bool)
    reachable[np.array(startpoints, dtype=np.int64)] = True
    for lv in levels:
        reachable[lv.net_sink] = True
        reachable[lv.cell_out] = True

    return TimingGraph(
        netlist=netlist,
        forest=forest,
        n_sg_nodes=m,
        sg_node_type=node_type,
        sg_static_pos=static_pos,
        sg_steiner_rows=np.array(steiner_rows, dtype=np.int64),
        sg_node_cap=node_cap,
        sg_bcast_src=np.array(bcast_src, dtype=np.int64),
        sg_bcast_dst=np.array(bcast_dst, dtype=np.int64),
        sg_reduce_src=np.array(reduce_src, dtype=np.int64),
        sg_reduce_dst=np.array(reduce_dst, dtype=np.int64),
        sg_tree_of_node=tree_of_node,
        n_nets=n_nets,
        net_edge_src_node=np.array(edge_src, dtype=np.int64),
        net_edge_dst_node=np.array(edge_dst, dtype=np.int64),
        net_of_edge=np.array(net_of_edge, dtype=np.int64),
        net_sink_cap_sum=sink_cap_sum,
        net_drive_res=drive_res,
        n_net_arcs=n_net_arcs,
        path_src=np.array(path_src, dtype=np.int64),
        path_dst=np.array(path_dst, dtype=np.int64),
        path_arc=np.array(path_arc, dtype=np.int64),
        path_downcap=np.array(path_downcap, dtype=np.float64),
        arc_drive_res=drive_res[np.array(arc_net, dtype=np.int64)]
        if arc_net
        else np.zeros(0),
        n_pins=n_pins,
        levels=levels,
        startpoints=np.array(startpoints, dtype=np.int64),
        start_feat=np.array(start_feat, dtype=np.float64),
        start_arrival=np.array(start_arrival, dtype=np.float64),
        endpoints=np.array(endpoints, dtype=np.int64),
        required=np.array(required, dtype=np.float64),
        endpoint_setup_time=np.array(setup_time, dtype=np.float64),
        endpoint_is_register=np.arange(len(endpoints)) < n_register_endpoints,
        pin_level=level,
        reachable=reachable,
        congestion=congestion,
        gcell_size=netlist.technology.gcell_size,
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


# ----------------------------------------------------------------------
# Whole-forest STA state
# ----------------------------------------------------------------------
def rebuilt_state(
    sta: ScenarioSTA,
    route_result: Optional[GlobalRouteResult] = None,
    utilization: Optional[np.ndarray] = None,
) -> BatchState:
    """``sta``'s state at the forest's current coordinates, rebuilt from
    scratch: a fresh flattening (no memo), the engine's pin caps on it,
    every node position and edge's RC, every wire group's Elmore rows
    over the whole forest, and a full pass (every pin seeded from
    launch) per check block.  ``sta`` is only read."""
    engine = sta.engine
    pert = engine.pert()
    flat = build_flat_forest(sta.forest)
    caps = flat_caps(flat, pert.pin_cap)
    xy = flat.node_positions(sta.forest.coords)
    if route_result is not None:
        base_r, base_c = routed_edge_rc(
            flat, engine.technology, xy, route_result, utilization, engine.COUPLING_K
        )
    else:
        base_r, base_c = preroute_edge_rc(flat, engine.technology, xy)
    G = len(sta._wire_keys)
    wire_delay_G = np.zeros((G, pert.n_pins))
    wire_deg_G = np.zeros((G, pert.n_pins))
    net_load_G = np.empty((G, pert.n_nets))
    for g, (rd, cd) in enumerate(sta._wire_keys):
        el = elmore_forest(flat, caps, base_r * rd, base_c * cd)
        wire_delay_G[g, flat.sink_pin] = el.sink_delay
        wire_deg_G[g, flat.sink_pin] = el.sink_slew_deg
        net_load_G[g] = pert.lumped_net_cap
        net_load_G[g, flat.net_of_tree] = el.total_cap
    net_has_tree = np.zeros(pert.n_nets, dtype=bool)
    net_has_tree[flat.net_of_tree] = True
    state = BatchState(
        flat=flat, pert=pert, caps=caps, xy=xy, routed=route_result is not None,
        base_r=base_r, base_c=base_c, wire_delay_G=wire_delay_G,
        wire_deg_G=wire_deg_G, net_load_G=net_load_G, net_has_tree=net_has_tree,
        arr_setup=None, slew_setup=None, arr_hold=None, slew_hold=None,
    )
    everything = np.ones(pert.n_pins, dtype=bool)
    for idx, early, rows, derate in sta._blocks:
        arrival, slew = pert.launch([sta._clocks[s] for s in idx])
        propagate_from_batched(
            pert, arrival, slew, wire_delay_G[rows], wire_deg_G[rows],
            net_load_G[rows], net_has_tree, derate, everything, early=early,
        )
        if early:
            state.arr_hold, state.slew_hold = arrival, slew
        else:
            state.arr_setup, state.slew_setup = arrival, slew
    return state


__all__ = [
    "NetTiming",
    "ReferenceGlobalRouter",
    "ReferenceRouteResult",
    "SegmentRoute",
    "compute_net_timing",
    "count_vias",
    "pattern_route_reference",
    "reference_assign_layers",
    "reference_flat_forest",
    "reference_forest",
    "reference_hold_analysis",
    "reference_routed_edge_rc",
    "reference_sta",
    "reference_timing_graph",
    "rebuilt_state",
    "segment_rc",
    "segment_routes",
]
