"""Static graph structure consumed by the timing evaluator.

Built once per (netlist, Steiner forest *topology*); Steiner point
*positions* are injected as a tensor at every forward pass, so the same
``TimingGraph`` serves all refinement iterations (tree topology never
changes during refinement, only coordinates — Definition 1 of the
paper).

Both halves are the sign-off timer's own structures, read into the
evaluator's layout: the netlist graph comes from the STA levelization
(:class:`repro.sta.engine.LevelizedPins`: levels, launch points and the
endpoint table) and the Steiner graph from the flat RC forest
(:func:`repro.sta.flat.build_flat_forest`).  Steiner-graph node ids are
flat forest nodes: node ``node_offset[t] + k`` is node ``k`` of tree
``t`` (pins first, Steiner nodes after, matching ``SteinerTree``
order).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter
from typing import Dict, List, Optional

import numpy as np

from repro.netlist.netlist import Netlist
from repro.sta.engine import LevelizedPins
from repro.sta.flat import build_flat_forest
from repro.steiner.forest import SteinerForest

NODE_DRIVER = 0
NODE_SINK = 1
NODE_STEINER = 2


@dataclass
class LevelArcs:
    """Arcs whose destination pins live at one topological level."""

    net_driver: np.ndarray  # driver pin ids (global)
    net_sink: np.ndarray  # sink pin ids (global)
    net_sink_node: np.ndarray  # Steiner-graph node id of each sink
    net_of_sink: np.ndarray  # net index per arc
    net_arc_id: np.ndarray  # global sink-arc index (for path features)
    cell_in: np.ndarray  # input pin ids
    cell_out: np.ndarray  # output pin ids
    cell_feat: np.ndarray  # (n_arcs, n_cell_feats) static arc features
    cell_out_net: np.ndarray  # net index driven by the output pin (-1 if none)


@dataclass
class TimingGraph:
    """Everything static the evaluator needs for one design."""

    netlist: Netlist
    forest: SteinerForest
    # ---- Steiner graph ----
    n_sg_nodes: int
    sg_node_type: np.ndarray  # (M,) NODE_DRIVER / NODE_SINK / NODE_STEINER
    sg_static_pos: np.ndarray  # (M, 2) pin positions; zeros at Steiner rows
    sg_steiner_rows: np.ndarray  # (S,) node ids that are Steiner points
    sg_steiner_flat: np.ndarray  # (S,) index into the forest's flat coords
    sg_node_cap: np.ndarray  # (M,) pin cap (0 for Steiner/driver nodes)
    sg_bcast_src: np.ndarray  # directed Steiner edges, driver-rooted
    sg_bcast_dst: np.ndarray
    sg_reduce_src: np.ndarray  # net edges: sink node -> driver node
    sg_reduce_dst: np.ndarray
    sg_tree_of_node: np.ndarray  # (M,) tree index
    # ---- per-net ----
    n_nets: int
    net_edge_src_node: np.ndarray  # per tree edge: endpoint node ids
    net_edge_dst_node: np.ndarray
    net_of_edge: np.ndarray  # net index per tree edge
    net_sink_cap_sum: np.ndarray  # (n_nets,) static
    net_drive_res: np.ndarray  # (n_nets,) driver cell output resistance
    # ---- netlist graph ----
    # ---- per-sink driver->sink path structure (physics features) ----
    # Entry k is one tree edge on the path of sink arc path_arc[k]; the
    # differentiable path length / Elmore proxy of every sink arc is a
    # segment-sum of smoothed edge lengths over these entries.
    n_net_arcs: int
    path_src: np.ndarray  # Steiner-graph node ids
    path_dst: np.ndarray
    path_arc: np.ndarray  # sink-arc id per entry
    path_downcap: np.ndarray  # static downstream pin cap per entry (pF)
    arc_drive_res: np.ndarray  # (n_net_arcs,) driver resistance per arc
    # ---- netlist graph ----
    n_pins: int
    levels: List[LevelArcs]
    startpoints: np.ndarray
    start_feat: np.ndarray  # (n_start, n_start_feats)
    start_arrival: np.ndarray  # (n_start,) known launch arrivals
    endpoints: np.ndarray  # register data pins, then primary outputs
    required: np.ndarray  # (n_endpoints,) required times
    endpoint_setup_time: np.ndarray  # (n_endpoints,) library setup, NaN at POs
    endpoint_is_register: np.ndarray  # (n_endpoints,) bool
    pin_level: np.ndarray
    reachable: np.ndarray  # (n_pins,) bool — pins the traversal sets
    # ---- congestion field (routing-stage feature, see Table IV note) ----
    congestion: Optional[np.ndarray] = None  # (nx, ny) GCell utilization
    gcell_size: float = 0.0
    # Scratch cache for evaluator-static tensors (one-hot node types,
    # per-level masks, ...) keyed by the consumer; never compared.
    _static: Dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def num_steiner(self) -> int:
        return int(self.sg_steiner_rows.size)


def build_timing_graph(
    netlist: Netlist,
    forest: SteinerForest,
    congestion: Optional[np.ndarray] = None,
) -> TimingGraph:
    """Assemble the static two-graph structure.

    ``congestion`` is an optional (nx, ny) GCell utilization field
    (from a routing probe of the current forest); the evaluator samples
    it bilinearly at node positions, making detour likelihood a
    differentiable function of Steiner coordinates.  Raises the STA's
    ``ValueError`` on a combinational loop.

    The forest is flattened with ``build_flat_forest``, not the STA's
    memo, so building a graph never evicts the sign-off flat entry.
    Only arrays are kept: the graph holds neither intermediate.
    """
    pert = LevelizedPins(netlist)
    flat = build_flat_forest(forest, pert.pin_caps)
    n_pins, n_nets = pert.n_pins, pert.n_nets
    trees = forest.trees

    # ------------------------------------------------------------------
    # Steiner graph: flat forest nodes, driver-rooted RC edges
    # ------------------------------------------------------------------
    m = flat.n_nodes
    node_type = np.full(m, NODE_STEINER, dtype=np.int64)
    node_type[flat.pin_rows] = NODE_SINK
    node_type[flat.tree_root] = NODE_DRIVER
    static_pos = np.zeros((m, 2), dtype=np.float64)
    static_pos[flat.pin_rows] = flat.pin_xy
    # Undirected tree edges in ``tree.edges`` orientation.
    edge_lists = list(map(attrgetter("edges"), trees))
    n_edges = np.fromiter(map(len, edge_lists), np.int64, len(trees))
    ends = np.fromiter(
        chain.from_iterable(chain.from_iterable(edge_lists)),
        np.int64,
        2 * int(n_edges.sum()),
    )
    edge_base = np.repeat(flat.node_offset[:-1], n_edges)

    # ------------------------------------------------------------------
    # Per-net static features; sink arcs in netlist order
    # ------------------------------------------------------------------
    nets, pins, cells = netlist.nets, netlist.pins, netlist.cells
    sink_lists = list(map(attrgetter("sinks"), nets))
    fanout = np.fromiter(map(len, sink_lists), np.int64, n_nets)
    sinks = np.fromiter(chain.from_iterable(sink_lists), np.int64, int(fanout.sum()))
    n_net_arcs = int(sinks.size)
    arc_of_pin = np.full(n_pins, -1, dtype=np.int64)
    arc_of_pin[sinks] = np.arange(n_net_arcs, dtype=np.int64)
    drive_res = np.ones(n_nets, dtype=np.float64)  # port driver: nominal source
    for net in nets:
        driver = pins[net.driver]
        if driver.is_cell_pin:
            drive_res[net.index] = cells[driver.cell_index].cell_type.drive_res

    # ------------------------------------------------------------------
    # Driver->sink path structure with downstream-cap weights
    # ------------------------------------------------------------------
    # Downstream sink-pin capacitance per node: deepest level first, and
    # into each parent in reverse BFS order, as a per-tree walk of
    # reversed ``bfs_order`` adds them.
    topos = [tree.topology() for tree in trees]
    n_reached = np.fromiter((tp.bfs_order.size for tp in topos), np.int64, len(trees))
    bfs = np.concatenate(
        [tp.bfs_order for tp in topos] or [np.zeros(0, dtype=np.int64)]
    ) + np.repeat(flat.node_offset[:-1], n_reached)
    bfs_rank = np.zeros(m, dtype=np.int64)
    bfs_rank[bfs] = np.arange(bfs.size, dtype=np.int64)
    depth = np.zeros(m, dtype=np.int64)
    sub_cap = flat.node_base_cap.copy()
    for d in range(len(flat.levels), 0, -1):
        nodes = flat.levels[d - 1]
        depth[nodes] = d
        nodes = nodes[np.argsort(-bfs_rank[nodes], kind="stable")]
        np.add.at(sub_cap, flat.parent[nodes], sub_cap[nodes])
    # One entry per tree edge on each sink's driver path, root first,
    # sinks in tree order: fill each path from its sink end upwards.
    sink_arc = arc_of_pin[flat.sink_pin]
    node = flat.sink_rows[sink_arc >= 0]
    n_up = depth[node]  # edges on the path
    path_arc = np.repeat(sink_arc[sink_arc >= 0], n_up)
    path_end = np.cumsum(n_up)
    path_dst = np.empty(path_arc.size, dtype=np.int64)
    for k in range(len(flat.levels)):
        up = n_up > k
        path_dst[path_end[up] - 1 - k] = node[up]
        node = np.where(up, flat.parent[node], node)

    # ------------------------------------------------------------------
    # Netlist graph: the STA levelization
    # ------------------------------------------------------------------
    # Static cell-arc features, once per library arc of the design's
    # cell types (a ``TimingArc`` belongs to one cell type).
    type_arcs = [
        (arc, ct)
        for ct in {id(c.cell_type): c.cell_type for c in cells}.values()
        for arc in ct.arcs
    ]
    feat_row = {id(arc): k for k, (arc, _) in enumerate(type_arcs)}
    feat_table = np.array(
        [
            [
                arc.delay.values.mean(),  # characteristic delay
                ct.drive_res / 10.0,
                ct.input_cap(arc.from_pin) * 100.0,
                1.0 if ct.is_sequential else 0.0,
            ]
            for arc, ct in type_arcs
        ],
        dtype=np.float64,
    ).reshape(-1, 4)
    node_of_sink = np.full(n_pins, -1, dtype=np.int64)
    node_of_sink[flat.sink_pin] = flat.sink_rows
    pin_level = np.zeros(n_pins, dtype=np.int64)
    # Level rows are copied: a ``PertLevel`` row is a view of its level's
    # whole row block, which the graph would otherwise keep alive.
    levels: List[LevelArcs] = []
    for lv_no, lv in enumerate(pert.levels, start=1):
        group_feat = np.array(
            [feat_row[id(arc)] for arc, _ in lv.arc_groups], dtype=np.int64
        )
        pin_level[lv.net_dst] = lv_no
        pin_level[lv.cell_dest] = lv_no
        levels.append(
            LevelArcs(
                net_driver=lv.net_src.copy(),
                net_sink=lv.net_dst.copy(),
                net_sink_node=node_of_sink[lv.net_dst],
                net_of_sink=lv.net_net.copy(),
                net_arc_id=arc_of_pin[lv.net_dst],
                cell_in=lv.cell_in.copy(),
                cell_out=np.repeat(lv.cell_dest, lv.cell_counts),
                cell_feat=feat_table[group_feat[lv.arc_group_id]],
                cell_out_net=np.repeat(lv.cell_dest_net, lv.cell_counts),
            )
        )

    # Launch points (primary inputs, then register clock pins) and the
    # endpoint table, rotated to register data pins first.
    clock = netlist.clock
    startpoints = np.concatenate([pert.input_pins, pert.clock_pins])
    n_in, n_ck = pert.input_pins.size, pert.clock_pins.size
    reachable = pin_level > 0
    reachable[startpoints] = True
    n_ep = pert.endpoints_arr.size
    ep_order = np.roll(np.arange(n_ep, dtype=np.int64), -int(pert.is_output.sum()))

    return TimingGraph(
        netlist=netlist,
        forest=forest,
        n_sg_nodes=m,
        sg_node_type=node_type,
        sg_static_pos=static_pos,
        sg_steiner_rows=flat.steiner_rows,
        sg_steiner_flat=flat.steiner_flat,
        sg_node_cap=flat.node_base_cap,
        sg_bcast_src=flat.parent[flat.edge_child],
        sg_bcast_dst=flat.edge_child,
        sg_reduce_src=flat.sink_rows,
        sg_reduce_dst=flat.tree_root[flat.sink_tree],
        sg_tree_of_node=flat.tree_of_node,
        n_nets=n_nets,
        net_edge_src_node=ends[0::2] + edge_base,
        net_edge_dst_node=ends[1::2] + edge_base,
        net_of_edge=np.repeat(flat.net_of_tree, n_edges),
        net_sink_cap_sum=pert.lumped_net_cap,
        net_drive_res=drive_res,
        n_net_arcs=n_net_arcs,
        path_src=flat.parent[path_dst],
        path_dst=path_dst,
        path_arc=path_arc,
        path_downcap=sub_cap[path_dst],
        arc_drive_res=drive_res[np.repeat(np.arange(n_nets, dtype=np.int64), fanout)],
        n_pins=n_pins,
        levels=levels,
        startpoints=startpoints,
        start_feat=np.repeat(np.eye(2), [n_in, n_ck], axis=0),
        start_arrival=np.concatenate(
            [
                np.full(n_in, clock.launch_time() + clock.input_delay),
                np.full(n_ck, clock.launch_time()),
            ]
        ),
        endpoints=pert.endpoints_arr[ep_order],
        required=pert.required(clock, 0.0)[ep_order],
        endpoint_setup_time=pert.setup_time[ep_order],
        endpoint_is_register=~pert.is_output[ep_order],
        pin_level=pin_level,
        reachable=reachable,
        congestion=congestion,
        gcell_size=netlist.technology.gcell_size,
    )
