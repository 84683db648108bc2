"""PERT-traversal timing engine.

One pass over the pins in level order computes lumped
(worst-of-rise/fall) arrival times and slews:

* startpoints (PIs, register CK pins) get launch values from the clock
  spec;
* a cell output's arrival is the max over input arcs of
  ``arrival(in) + NLDM_delay(slew(in), load)``;
* a net sink's arrival is ``arrival(driver) + elmore(sink)`` with PERI
  slew degradation.

Endpoint slacks, WNS, TNS and the violation count follow Eq. (1).

The PERT kernels carry a leading scenario axis: every per-pin array is
``(S, n_pins)``, one row per scenario, over the *shared* levelized
topology.  Per-scenario physics enters through three inputs only:

* ``wire_delay`` / ``wire_deg`` / ``net_load`` rows carry each
  scenario's derated Elmore results (wire R/C derates);
* ``cell_derate`` (``(S, 1)``, or ``None`` when every row is 1.0)
  scales NLDM delays and output slews;
* ``early=True`` flips the arc reduction from latest (setup) to
  earliest (hold) arrival.

Every operation is elementwise or an ``axis=1`` segmented reduction, so
each row of a batch is bitwise-identical to running that scenario alone
(tests/test_mcmm.py).  :meth:`STAEngine.run` is the S=1 case, and a
neutral row (all derates exactly 1.0) reproduces it bit for bit because
``x * 1.0`` is a bitwise no-op on finite floats.
The scalar per-pin form is :func:`repro.testing.oracles.reference_sta`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.groute.router import GlobalRouteResult
from repro.netlist.netlist import Netlist, PinDirection
from repro.pdk.clocks import ClockSpec
from repro.sta import flat as flatmod
from repro.steiner.forest import SteinerForest

DEFAULT_INPUT_SLEW = 0.08  # ns at startpoints


@dataclass
class TimingReport:
    """Full result of one STA run."""

    arrival: np.ndarray  # ns per pin (NaN where unreached)
    slew: np.ndarray  # ns per pin
    required: Dict[int, float]  # endpoint pin -> required time
    slack: Dict[int, float]  # endpoint pin -> slack
    wns: float
    tns: float
    num_violations: int
    net_load: Dict[int, float] = field(default_factory=dict)  # net -> cap (pF)

    def endpoint_arrivals(self) -> Dict[int, float]:
        return {p: float(self.arrival[p]) for p in self.slack}

    def worst_endpoint(self) -> int:
        return min(self.slack, key=self.slack.get)


@dataclass
class PertLevel:
    """Arcs whose destination pins sit at one PERT level.

    Cell arcs are grouped contiguously per destination pin (CSR via
    ``cell_start``), arcs within a destination in library order — the
    order the scalar oracle uses for its strict-``>`` max, so
    first-occurrence winner selection reproduces its tie-breaking.
    """

    net_src: np.ndarray  # (n_net_arcs,) driver pin
    net_dst: np.ndarray  # (n_net_arcs,) sink pin
    net_net: np.ndarray  # (n_net_arcs,) net index
    cell_in: np.ndarray  # (n_cell_arcs,) input pin per arc
    cell_dest: np.ndarray  # (n_dests,) output pin per destination
    cell_start: np.ndarray  # (n_dests+1,) CSR into arc arrays
    cell_counts: np.ndarray  # (n_dests,) arcs per destination
    cell_dest_net: np.ndarray  # (n_dests,) driven net (-1 if none)
    arc_groups: List[Tuple[object, np.ndarray]]  # (TimingArc, arc rows)
    arc_group_id: np.ndarray  # (n_cell_arcs,) index into arc_groups
    # Per arc row, the offset of its delay / output-slew table inside
    # ``LevelizedPins.table_values`` (None without shared table axes).
    delay_base: Optional[np.ndarray] = None
    slew_base: Optional[np.ndarray] = None


class LevelizedPins:
    """Static per-netlist PERT structure shared by the flat kernel and
    the incremental engine: arc arrays grouped by destination level."""

    def __init__(self, engine: "STAEngine") -> None:
        netlist = engine.netlist
        n_pins = netlist.num_pins
        self.n_pins = n_pins
        self.n_nets = netlist.num_nets
        self.pin_caps: Dict[int, float] = {
            p.index: p.cap
            for p in netlist.pins
            if p.direction == PinDirection.INPUT
        }
        # Treeless nets: lumped sum of sink pin caps (static), summed in
        # sink order to match the reference accumulation exactly.
        lumped = np.zeros(self.n_nets, dtype=np.float64)
        for net in netlist.nets:
            total = 0.0
            for s in net.sinks:
                total += self.pin_caps.get(s, 0.0)
            lumped[net.index] = total
        self.lumped_net_cap = lumped

        skip = set(engine._clock_pins)
        for p in netlist.pins:
            if p.is_port and p.direction == PinDirection.OUTPUT:
                skip.add(p.index)

        net_arcs: List[Tuple[int, int, int]] = []
        for net in netlist.nets:
            for s in net.sinks:
                if s not in skip:
                    net_arcs.append((net.driver, s, net.index))
        pnm = netlist.pin_net_map()
        cell_dests: List[Tuple[int, list, int]] = []
        for out_pin in sorted(engine._cell_arcs):
            arcs = engine._cell_arcs[out_pin]
            if out_pin in skip or not arcs:
                continue
            cell_dests.append((out_pin, arcs, int(pnm[out_pin])))

        # Longest-path level per pin: every arc crosses at least one
        # level boundary, so processing level-by-level is dependency-safe.
        level = np.zeros(n_pins, dtype=np.int64)
        succ: List[List[int]] = [[] for _ in range(n_pins)]
        for u, v, _ in net_arcs:
            succ[u].append(v)
        for out_pin, arcs, _ in cell_dests:
            for in_pin, _arc in arcs:
                succ[in_pin].append(out_pin)
        for u in engine._topo:
            lu = int(level[u])
            for v in succ[u]:
                if level[v] <= lu:
                    level[v] = lu + 1

        net_src = np.array([a[0] for a in net_arcs], dtype=np.int64)
        net_dst = np.array([a[1] for a in net_arcs], dtype=np.int64)
        net_net = np.array([a[2] for a in net_arcs], dtype=np.int64)
        net_lvl = level[net_dst] if net_dst.size else net_dst
        dest_lvl = {out: int(level[out]) for out, _, _ in cell_dests}
        max_lvl = 0
        if net_dst.size:
            max_lvl = int(net_lvl.max())
        if dest_lvl:
            max_lvl = max(max_lvl, max(dest_lvl.values()))

        self.levels: List[PertLevel] = []
        for L in range(1, max_lvl + 1):
            if net_dst.size:
                m = net_lvl == L
                l_src, l_dst, l_net = net_src[m], net_dst[m], net_net[m]
            else:
                l_src = l_dst = l_net = np.zeros(0, dtype=np.int64)
            c_in: List[int] = []
            c_dest: List[int] = []
            c_counts: List[int] = []
            c_net: List[int] = []
            groups: Dict[int, Tuple[object, List[int]]] = {}
            for out_pin, arcs, net_idx in cell_dests:
                if dest_lvl[out_pin] != L:
                    continue
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
                (arc, np.array(pos, dtype=np.int64))
                for arc, pos in groups.values()
            ]
            group_id = np.zeros(len(c_in), dtype=np.int64)
            for g, (_arc, pos) in enumerate(arc_groups):
                group_id[pos] = g
            self.levels.append(
                PertLevel(
                    net_src=l_src,
                    net_dst=l_dst,
                    net_net=l_net,
                    cell_in=np.array(c_in, dtype=np.int64),
                    cell_dest=np.array(c_dest, dtype=np.int64),
                    cell_start=start,
                    cell_counts=counts,
                    cell_dest_net=np.array(c_net, dtype=np.int64),
                    arc_groups=arc_groups,
                    arc_group_id=group_id,
                )
            )

        self.endpoints_arr = np.array(engine._endpoints, dtype=np.int64)
        self.required_arr = np.array(
            [engine._required[ep] for ep in engine._endpoints], dtype=np.float64
        )
        # NLDM tables generated from one grid share their axis arrays;
        # when every table in the design does, interpolation indices and
        # weights can be computed once per level instead of per table.
        self.shared_axes: Optional[Tuple[np.ndarray, np.ndarray]] = None
        axes = None
        shared = True
        for lv in self.levels:
            for arc, _pos in lv.arc_groups:
                for tbl in (arc.delay, arc.output_slew):
                    key = (tbl.slew_axis, tbl.load_axis)
                    if axes is None:
                        axes = key
                    elif not (
                        np.array_equal(axes[0], key[0])
                        and np.array_equal(axes[1], key[1])
                    ):
                        shared = False
                if not shared:
                    break
            if not shared:
                break
        if shared and axes is not None:
            self.shared_axes = axes
        # With shared axes every table is one (n_slew, n_load) grid, so
        # all of them stack into one flat value array and each arc row
        # records where its two tables start: the kernels interpolate a
        # whole level in one gather instead of one pass per timing arc.
        self.table_values: Optional[np.ndarray] = None
        if self.shared_axes is not None:
            offsets: Dict[int, int] = {}
            values: List[np.ndarray] = []

            def offset(tbl) -> int:
                if id(tbl) not in offsets:
                    offsets[id(tbl)] = len(values) * tbl.values.size
                    values.append(tbl.values.ravel())
                return offsets[id(tbl)]

            for lv in self.levels:
                lv.delay_base = np.zeros(lv.cell_in.size, dtype=np.int64)
                lv.slew_base = np.zeros(lv.cell_in.size, dtype=np.int64)
                for arc, pos in lv.arc_groups:
                    lv.delay_base[pos] = offset(arc.delay)
                    lv.slew_base[pos] = offset(arc.output_slew)
            self.table_values = np.concatenate(values)
        # Sinks of every net (used by the incremental engine to seed
        # recomputation when a net's wire timing changes).
        self.net_driver = np.array(
            [net.driver for net in netlist.nets], dtype=np.int64
        )


def _arc_tables(
    pert: LevelizedPins,
    lv: PertLevel,
    arc_rows: Optional[np.ndarray],
    s_in: np.ndarray,
    load_arc: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """NLDM delay and output slew of each arc row of a level.

    ``s_in``/``load_arc`` hold one column per selected arc row (all of
    the level's rows when ``arc_rows`` is None) and may carry leading
    axes — the scenario-batched kernels pass ``(S, n_arc)``.  Same math
    as ``LookupTable.lookup_many`` (clamped bilinear, same operation
    order term for term), so the result is bitwise-identical to looking
    every arc up on its own table.
    """
    if pert.table_values is not None:
        # Axis work once per level, then one gather per table corner.
        sa, la = pert.shared_axes
        s = np.minimum(np.maximum(s_in, sa[0]), sa[-1])
        c = np.minimum(np.maximum(load_arc, la[0]), la[-1])
        i = np.minimum(np.maximum(np.searchsorted(sa, s) - 1, 0), sa.size - 2)
        j = np.minimum(np.maximum(np.searchsorted(la, c) - 1, 0), la.size - 2)
        s0, s1 = sa[i], sa[i + 1]
        c0, c1 = la[j], la[j + 1]
        ts = (s - s0) / (s1 - s0)
        tc = (c - c0) / (c1 - c0)
        omts = 1 - ts
        omtc = 1 - tc
        nl = la.size
        cell = i * nl + j
        v = pert.table_values
        out = []
        for base in (lv.delay_base, lv.slew_base):
            k = cell + (base if arc_rows is None else base[arc_rows])
            out.append(
                v[k] * omts * omtc
                + v[k + nl] * ts * omtc
                + v[k + 1] * omts * tc
                + v[k + nl + 1] * ts * tc
            )
        return out[0], out[1]
    if arc_rows is None:
        group_iter = lv.arc_groups
    else:
        # Group the selected rows by timing arc without touching any
        # level-sized scratch array (an incremental pass selects few).
        gids = lv.arc_group_id[arc_rows]
        group_iter = []
        if gids.size:
            order = np.argsort(gids, kind="stable")
            sg = gids[order]
            bnd = np.flatnonzero(sg[1:] != sg[:-1]) + 1
            g_starts = np.concatenate((np.zeros(1, dtype=np.int64), bnd))
            g_ends = np.append(bnd, sg.size)
            group_iter = [
                (lv.arc_groups[int(sg[s])][0], order[s:e])
                for s, e in zip(g_starts, g_ends)
            ]
    delays = np.empty(s_in.shape, dtype=np.float64)
    oslews = np.empty(s_in.shape, dtype=np.float64)
    for arc, pos in group_iter:
        s_p, l_p = s_in[..., pos], load_arc[..., pos]
        delays[..., pos] = arc.delay.lookup_many(s_p, l_p)
        oslews[..., pos] = arc.output_slew.lookup_many(s_p, l_p)
    return delays, oslews


def _eval_cell_arcs_batched(
    pert: LevelizedPins,
    lv: PertLevel,
    arrival: np.ndarray,
    slew: np.ndarray,
    net_load: np.ndarray,
    dest_net: np.ndarray,
    start: np.ndarray,
    counts: np.ndarray,
    arc_rows: Optional[np.ndarray],
    cell_derate: Optional[np.ndarray],
    early: bool,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched max/min-arrival and winner slew per destination.

    ``early`` selects the hold-style earliest-arrival reduction.
    Returns ``(best, winner_slew, valid)`` each ``(S, n_dests)``.
    """
    cell_in = lv.cell_in if arc_rows is None else lv.cell_in[arc_rows]
    n_arc = cell_in.size
    S = arrival.shape[0]
    a_in = arrival[:, cell_in]
    s_in = slew[:, cell_in]
    safe_net = np.maximum(dest_net, 0)
    load_dest = np.where(dest_net >= 0, net_load[:, safe_net], 0.0)
    load_arc = np.repeat(load_dest, counts, axis=1)
    delays, oslews = _arc_tables(pert, lv, arc_rows, s_in, load_arc)
    # PVT derate on cell timing; 1.0 rows are bitwise no-ops, so an
    # all-neutral block passes None and skips the multiply.
    if cell_derate is not None:
        delays *= cell_derate
        oslews *= cell_derate
    sentinel = np.inf if early else -np.inf
    cand = np.where(np.isnan(a_in), sentinel, a_in + delays)
    seg_starts = start[:-1]
    reduce = np.minimum if early else np.maximum
    best = reduce.reduceat(cand, seg_starts, axis=1)
    # First arc achieving the best wins ties, found as a flat index into
    # the (S, n_arc) block so the winner slew is a single 1-D gather.
    n_flat = S * n_arc
    flat_ids = np.arange(n_flat, dtype=np.int64).reshape(S, n_arc)
    masked = np.where(cand == np.repeat(best, counts, axis=1), flat_ids, n_flat)
    first = np.minimum.reduceat(masked, seg_starts, axis=1)
    valid = best < np.inf if early else best > -np.inf
    gather = oslews.ravel()[np.minimum(first, max(n_flat - 1, 0))]
    winner_slew = np.where(valid, gather, DEFAULT_INPUT_SLEW)
    return best, winner_slew, valid


def propagate_levels_batched(
    pert: LevelizedPins,
    arrival: np.ndarray,
    slew: np.ndarray,
    wire_delay: np.ndarray,
    wire_slew_deg: np.ndarray,
    net_load: np.ndarray,
    net_has_tree: np.ndarray,
    cell_derate: Optional[np.ndarray],
    early: bool = False,
) -> None:
    """One full batched PERT pass over all levels (in place).

    All per-pin/per-net inputs carry a leading scenario axis except the
    shared ``net_has_tree`` topology mask.
    """
    for lv in pert.levels:
        if lv.net_dst.size:
            src, dst = lv.net_src, lv.net_dst
            a_drv = arrival[:, src]
            ok = ~np.isnan(a_drv)
            arrival[:, dst] = np.where(ok, a_drv + wire_delay[:, dst], arrival[:, dst])
            s_drv = slew[:, src]
            has_t = net_has_tree[lv.net_net]
            peri = np.sqrt(s_drv * s_drv + wire_slew_deg[:, dst])
            slew[:, dst] = np.where(
                ok, np.where(has_t, peri, s_drv), slew[:, dst]
            )
        if lv.cell_dest.size:
            best, winner_slew, valid = _eval_cell_arcs_batched(
                pert, lv, arrival, slew, net_load,
                lv.cell_dest_net, lv.cell_start, lv.cell_counts, None,
                cell_derate, early,
            )
            dsts = lv.cell_dest
            arrival[:, dsts] = np.where(valid, best, arrival[:, dsts])
            slew[:, dsts] = np.where(valid, winner_slew, slew[:, dsts])


def propagate_from_batched(
    pert: LevelizedPins,
    arrival: np.ndarray,
    slew: np.ndarray,
    wire_delay: np.ndarray,
    wire_slew_deg: np.ndarray,
    net_load: np.ndarray,
    net_has_tree: np.ndarray,
    cell_derate: Optional[np.ndarray],
    recompute: np.ndarray,
    early: bool = False,
) -> int:
    """Batched levelized cone propagation from a seeded frontier.

    ``recompute`` is a shared ``(n_pins,)`` seed mask — the union over
    scenarios of pins whose wire timing or driver load changed.  The
    frontier mask is likewise shared (a pin re-evaluates everywhere if
    it changed in *any* scenario); rows whose inputs did not change
    recompute to bitwise-equal values, so the result matches a full
    batched pass exactly.  Returns the number of levels touched.
    """
    changed = np.zeros(pert.n_pins, dtype=bool)
    levels_touched = 0
    for lv in pert.levels:
        level_touched = False
        if lv.net_dst.size:
            m = recompute[lv.net_dst] | changed[lv.net_src]
            if m.any():
                level_touched = True
                src = lv.net_src[m]
                dst = lv.net_dst[m]
                a_drv = arrival[:, src]
                ok = ~np.isnan(a_drv)
                new_a = np.where(ok, a_drv + wire_delay[:, dst], np.nan)
                s_drv = slew[:, src]
                ht = net_has_tree[lv.net_net[m]]
                peri = np.sqrt(s_drv * s_drv + wire_slew_deg[:, dst])
                new_s = np.where(
                    ok, np.where(ht, peri, s_drv), DEFAULT_INPUT_SLEW
                )
                old_a = arrival[:, dst]
                ch = ~((new_a == old_a) | (np.isnan(new_a) & np.isnan(old_a)))
                ch |= new_s != slew[:, dst]
                arrival[:, dst] = new_a
                slew[:, dst] = new_s
                changed[dst] |= ch.any(axis=0)
        if lv.cell_dest.size:
            dsel = recompute[lv.cell_dest]
            if lv.cell_in.size:
                dsel = dsel | np.logical_or.reduceat(
                    changed[lv.cell_in], lv.cell_start[:-1]
                )
            idx = np.flatnonzero(dsel)
            if idx.size == 0:
                if level_touched:
                    levels_touched += 1
                continue
            level_touched = True
            starts = lv.cell_start[:-1][idx]
            ends = lv.cell_start[1:][idx]
            arc_rows = flatmod._expand_ranges(starts, ends)
            counts = ends - starts
            sub_start = np.zeros(idx.size + 1, dtype=np.int64)
            np.cumsum(counts, out=sub_start[1:])
            best, wslew, valid = _eval_cell_arcs_batched(
                pert, lv, arrival, slew, net_load,
                lv.cell_dest_net[idx], sub_start, counts, arc_rows,
                cell_derate, early,
            )
            dsts = lv.cell_dest[idx]
            new_a = np.where(valid, best, np.nan)
            old_a = arrival[:, dsts]
            ch = ~((new_a == old_a) | (np.isnan(new_a) & np.isnan(old_a)))
            ch |= wslew != slew[:, dsts]
            arrival[:, dsts] = new_a
            slew[:, dsts] = wslew
            changed[dsts] |= ch.any(axis=0)
        if level_touched:
            levels_touched += 1
    return levels_touched


class STAEngine:
    """Reusable engine bound to a netlist; run per Steiner solution."""

    def __init__(self, netlist: Netlist) -> None:
        self.netlist = netlist
        self.technology = netlist.technology
        self.library = netlist.library
        self.clock = netlist.clock
        self._topo = netlist.topological_pin_order()
        self._startpoints = set(netlist.startpoints())
        self._endpoints = netlist.endpoints()
        # Pre-index: output pin -> (cell, arcs grouped by input pin).
        self._cell_arcs: Dict[int, List[Tuple[int, object]]] = {}
        for cell in netlist.cells:
            ct = cell.cell_type
            for out_name in ct.output_pins:
                out_pin = cell.pin_indices[out_name]
                arcs = []
                for arc in ct.arcs_to(out_name):
                    in_pin = cell.pin_indices[arc.from_pin]
                    arcs.append((in_pin, arc))
                self._cell_arcs[out_pin] = arcs
        # Clock pins (ideal network).
        self._clock_pins = set()
        for cell in netlist.registers():
            self._clock_pins.add(cell.pin_indices[cell.cell_type.clock_pin])
        # Sink pin -> driving net.
        self._driver_of: Dict[int, int] = {}
        for net in netlist.nets:
            for s in net.sinks:
                self._driver_of[s] = net.index
        # Endpoint required times.
        self._required: Dict[int, float] = {}
        for cell in netlist.registers():
            ct = cell.cell_type
            for in_name in ct.input_pins:
                if in_name != ct.clock_pin:
                    self._required[cell.pin_indices[in_name]] = self.clock.required_at_register(
                        ct.setup_time
                    )
        for port in netlist.primary_outputs():
            self._required[port.index] = self.clock.required_at_output()
        self._pert_struct: Optional[LevelizedPins] = None

    # ------------------------------------------------------------------
    #: coupling-capacitance coefficient: c_eff = c * (1 + K * utilization)
    COUPLING_K = 0.8

    def pert(self) -> LevelizedPins:
        """Levelized arc structure (built lazily, once per netlist)."""
        if self._pert_struct is None:
            self._pert_struct = LevelizedPins(self)
        return self._pert_struct

    def run(
        self,
        forest: SteinerForest,
        route_result: Optional[GlobalRouteResult] = None,
        utilization: Optional[np.ndarray] = None,
    ) -> TimingReport:
        """Time the design under the given Steiner forest / routes.

        ``utilization`` is the post-route GCell congestion field; when
        provided, wire capacitance picks up a coupling term that grows
        with local density (``c_eff = c * (1 + COUPLING_K * u)``, see
        ``repro.sta.flat.routed_edge_rc``).
        """
        pert = self.pert()
        flat = flatmod.flat_forest_of(forest, pert.pin_caps)
        xy = flatmod.node_positions(flat, forest.get_steiner_coords())
        if route_result is not None:
            edge_r, edge_c = flatmod.routed_edge_rc(
                flat, self.technology, xy, route_result,
                utilization, self.COUPLING_K,
            )
        else:
            edge_r, edge_c = flatmod.preroute_edge_rc(flat, self.technology, xy)
        elmore = flatmod.elmore_forest(flat, edge_r, edge_c)

        n_pins = pert.n_pins
        wire_delay = np.zeros(n_pins)
        wire_deg = np.zeros(n_pins)
        wire_delay[flat.sink_pin] = elmore.sink_delay
        wire_deg[flat.sink_pin] = elmore.sink_slew_deg
        net_load = pert.lumped_net_cap.copy()
        net_load[flat.net_of_tree] = elmore.total_cap
        net_has_tree = np.zeros(pert.n_nets, dtype=bool)
        net_has_tree[flat.net_of_tree] = True

        # One full batched pass at S=1.
        arrival, slew = launch_arrays_batched(self, [self.clock])
        propagate_levels_batched(
            pert, arrival, slew, wire_delay[None], wire_deg[None],
            net_load[None], net_has_tree, None,
        )
        return self.finalize_report(arrival[0], slew[0], net_load)

    def finalize_report(
        self,
        arrival: np.ndarray,
        slew: np.ndarray,
        net_load: np.ndarray,
        copy_arrays: bool = False,
    ) -> TimingReport:
        """Endpoint slacks / WNS / TNS from propagated arrays."""
        pert = self.pert()
        launch = self.clock.launch_time()
        arr_ep = arrival[pert.endpoints_arr]
        nan_ep = np.isnan(arr_ep)
        svals = np.where(nan_ep, pert.required_arr - launch, pert.required_arr - arr_ep)
        slack = {
            int(ep): float(s) for ep, s in zip(pert.endpoints_arr, svals)
        }
        wns = float(svals.min()) if svals.size else 0.0
        neg = np.minimum(svals, 0.0)
        tns = float(neg.sum()) if svals.size else 0.0
        num_vios = int(np.count_nonzero(svals < 0.0))
        return TimingReport(
            arrival=arrival.copy() if copy_arrays else arrival,
            slew=slew.copy() if copy_arrays else slew,
            required=dict(self._required),
            slack=slack,
            wns=wns,
            tns=tns,
            num_violations=num_vios,
            net_load={i: float(v) for i, v in enumerate(net_load)},
        )


def launch_arrays_batched(
    engine: STAEngine, clocks: Sequence[ClockSpec]
) -> Tuple[np.ndarray, np.ndarray]:
    """Fresh ``(S, n_pins)`` arrival/slew arrays with per-scenario launch."""
    n_pins = engine.netlist.num_pins
    S = len(clocks)
    arrival = np.full((S, n_pins), np.nan)
    slew = np.full((S, n_pins), DEFAULT_INPUT_SLEW)
    pi = np.array(
        [port.index for port in engine.netlist.primary_inputs()], dtype=np.int64
    )
    ck = np.array(sorted(engine._clock_pins), dtype=np.int64)
    for s, clock in enumerate(clocks):
        launch = clock.launch_time()
        if pi.size:
            arrival[s, pi] = launch + clock.input_delay
        if ck.size:
            arrival[s, ck] = launch
    return arrival, slew
