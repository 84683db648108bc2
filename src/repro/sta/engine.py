"""PERT-traversal timing kernels and the netlist-bound sign-off timer.

One pass over the pins in level order computes lumped
(worst-of-rise/fall) arrival times and slews:

* startpoints (PIs, register CK pins) get launch values from the clock
  spec;
* a cell output's arrival is the max over input arcs of
  ``arrival(in) + NLDM_delay(slew(in), load)``;
* a net sink's arrival is ``arrival(driver) + elmore(sink)`` with PERI
  slew degradation.

Endpoint slacks, WNS, TNS and the violation count follow Eq. (1).

This module holds the netlist-static half of timing:
:class:`LevelizedPins` (launch points, levelized arc arrays and the one
endpoint requirement table) and the batched PERT kernels.  The kernels
carry a leading scenario axis: every per-pin array is ``(S, n_pins)``,
one row per scenario, over the *shared* levelized topology.
Per-scenario physics enters through three inputs only:

* ``wire_delay`` / ``wire_deg`` / ``net_load`` rows carry each
  scenario's derated Elmore results (wire R/C derates);
* ``cell_derate`` (``(S, 1)``, or ``None`` when every row is 1.0)
  scales NLDM delays and output slews;
* ``early=True`` flips the arc reduction from latest (setup) to
  earliest (hold) arrival.

Every operation is elementwise or an ``axis=1`` segmented reduction, so
each row of a batch is bitwise-identical to running that scenario alone
(tests/test_mcmm.py).  A timing pass is put together and finalized in
one place, :class:`repro.mcmm.sta.ScenarioSTA`; :meth:`STAEngine.run`
is a full query of the neutral scenario set (S=1) there.
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
    """Static per-netlist PERT structure shared by every timing pass:
    launch points, arc arrays grouped by destination level, and the
    endpoint requirement table."""

    def __init__(self, netlist: Netlist) -> None:
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

        # Launch points: primary inputs and register clock pins (ideal
        # clock network).  Their arrivals come from the clock spec.
        self.input_pins = np.array(
            [p.index for p in netlist.primary_inputs()], dtype=np.int64
        )
        self.clock_pins = np.unique(
            np.array(
                [c.pin_indices[c.cell_type.clock_pin] for c in netlist.registers()],
                dtype=np.int64,
            )
        )
        skip = set(self.input_pins.tolist()) | set(self.clock_pins.tolist())

        net_arcs: List[Tuple[int, int, int]] = []
        for net in netlist.nets:
            for s in net.sinks:
                if s not in skip:
                    net_arcs.append((net.driver, s, net.index))
        # Cell arcs per output pin (input pins in library arc order), in
        # ascending output-pin order.
        pnm = netlist.pin_net_map()
        cell_dests: List[Tuple[int, list, int]] = []
        for cell in netlist.cells:
            ct = cell.cell_type
            for out_name in ct.output_pins:
                out_pin = cell.pin_indices[out_name]
                arcs = [
                    (cell.pin_indices[arc.from_pin], arc)
                    for arc in ct.arcs_to(out_name)
                ]
                if out_pin not in skip and arcs:
                    cell_dests.append((out_pin, arcs, int(pnm[out_pin])))
        cell_dests.sort(key=lambda d: d[0])

        # Longest-path level per pin: every arc crosses at least one
        # level boundary, so processing level-by-level is dependency-safe.
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

        # Net arcs by level: one stable sort keeps each level's arcs in
        # netlist order.
        net_src = np.array([a[0] for a in net_arcs], dtype=np.int64)
        net_dst = np.array([a[1] for a in net_arcs], dtype=np.int64)
        net_net = np.array([a[2] for a in net_arcs], dtype=np.int64)
        net_lvl = np.array([level[v] for v in net_dst.tolist()], dtype=np.int64)
        order = np.argsort(net_lvl, kind="stable")
        net_src, net_dst, net_net = net_src[order], net_dst[order], net_net[order]
        max_lvl = int(net_lvl.max()) if net_lvl.size else 0
        # Cell destinations by level, in ascending pin order.
        dests_at: Dict[int, List[Tuple[int, list, int]]] = {}
        for dest in cell_dests:
            L = level[dest[0]]
            dests_at.setdefault(L, []).append(dest)
            max_lvl = max(max_lvl, L)
        net_bound = np.searchsorted(net_lvl[order], np.arange(max_lvl + 2)).tolist()

        self.levels: List[PertLevel] = []
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
                (arc, np.array(pos, dtype=np.int64))
                for arc, pos in groups.values()
            ]
            group_id = np.zeros(len(c_in), dtype=np.int64)
            for g, (_arc, pos) in enumerate(arc_groups):
                group_id[pos] = g
            self.levels.append(
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

        # Endpoint requirement table from one register walk: endpoints
        # in ``Netlist.endpoints`` order (primary outputs, then register
        # data pins), the library setup time of each data pin (NaN at the
        # flagged outputs), and the data pins alone as hold endpoints.
        outputs = [p.index for p in netlist.primary_outputs()]
        data_pins: List[int] = []
        setup: List[float] = []
        for cell in netlist.registers():
            ct = cell.cell_type
            for in_name in ct.input_pins:
                if in_name != ct.clock_pin:
                    data_pins.append(cell.pin_indices[in_name])
                    setup.append(ct.setup_time)
        self.endpoints_arr = np.array(outputs + data_pins, dtype=np.int64)
        self.is_output = np.arange(self.endpoints_arr.size) < len(outputs)
        self.setup_time = np.array([np.nan] * len(outputs) + setup, dtype=np.float64)
        self.hold_endpoints = np.array(data_pins, dtype=np.int64)
        # NLDM tables generated from one grid share their axis arrays;
        # when every table in the design does, interpolation indices and
        # weights can be computed once per level instead of per table.
        self.shared_axes: Optional[Tuple[np.ndarray, np.ndarray]] = None
        axes = None
        shared = True
        seen_axes = set()
        for lv in self.levels:
            for arc, _pos in lv.arc_groups:
                for tbl in (arc.delay, arc.output_slew):
                    key = (tbl.slew_axis, tbl.load_axis)
                    ids = (id(key[0]), id(key[1]))
                    if ids in seen_axes:
                        continue
                    seen_axes.add(ids)
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

    def required(self, clock: ClockSpec, setup_margin: float) -> np.ndarray:
        """Setup required time per endpoint (``endpoints_arr`` order).

        Register rows go through ``ClockSpec.required_at_register``
        elementwise, so each equals the scalar call on that pin's
        ``setup_time + setup_margin`` bit for bit.
        """
        return np.where(
            self.is_output,
            clock.required_at_output(),
            clock.required_at_register(self.setup_time + setup_margin),
        )

    def launch(self, clocks: Sequence[ClockSpec]) -> Tuple[np.ndarray, np.ndarray]:
        """Fresh ``(S, n_pins)`` arrival/slew arrays with per-scenario launch."""
        S = len(clocks)
        arrival = np.full((S, self.n_pins), np.nan)
        slew = np.full((S, self.n_pins), DEFAULT_INPUT_SLEW)
        for s, clock in enumerate(clocks):
            arrival[s, self.input_pins] = clock.launch_time() + clock.input_delay
            arrival[s, self.clock_pins] = clock.launch_time()
        return arrival, slew


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
    """Sign-off timer bound to a netlist.

    Holds only netlist-static state (the netlist, its clock and
    technology, ``COUPLING_K`` and the lazily built :meth:`pert`); every
    :meth:`run` is a full query of a fresh neutral ScenarioSTA.
    """

    #: coupling-capacitance coefficient: c_eff = c * (1 + K * utilization)
    COUPLING_K = 0.8

    def __init__(self, netlist: Netlist) -> None:
        self.netlist = netlist
        self.technology = netlist.technology
        self.clock = netlist.clock
        self._pert_struct: Optional[LevelizedPins] = None

    def pert(self) -> LevelizedPins:
        """Levelized arc structure (built lazily, once per netlist)."""
        if self._pert_struct is None:
            self._pert_struct = LevelizedPins(self.netlist)
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
        # Imported here: repro.mcmm imports this module.
        from repro.mcmm.scenario import ScenarioSet
        from repro.mcmm.sta import ScenarioSTA

        sta = ScenarioSTA(self.netlist, forest, ScenarioSet.default(), engine=self)
        sta.update(route_result=route_result, utilization=utilization)
        return sta.timing_report()
