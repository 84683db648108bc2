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
endpoint requirement table) and the one batched PERT kernel,
:func:`propagate_from_batched`; a full pass is that kernel with every
pin seeded.  It carries a leading scenario axis: every per-pin array
is ``(S, n_pins)``, one row per scenario, over the *shared* levelized
topology.
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

import heapq
from dataclasses import dataclass, field, replace
from itertools import chain, repeat
from operator import attrgetter, is_, itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.steiner.flat_forest import expand_ranges
from repro.groute.router import GlobalRouteResult
from repro.netlist.netlist import Netlist, PinDirection
from repro.obs import get_telemetry
from repro.pdk.clocks import ClockSpec
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


#: What a cell-template entry reads: a destination (its ``aux`` is the
#: number of arcs into it), an arc input (``aux``: the arc's index in the
#: distinct-arc list), the register clock pin, or a register data pin.
_DEST, _ARC, _CLOCK, _DATA = range(4)


@dataclass
class _CellTemplate:
    """One cell type as the levelizer reads it.

    Each instance contributes one row of pin ids, read by ``getter``
    (the type's input pins, then its output pins).  ``entries`` are
    ``(what, column, aux)`` triples over that row: the outputs that
    library arcs drive, each followed by its arcs' inputs in library
    order, then the clock and data pins of a register.
    """

    getter: Callable[[Dict[str, int]], tuple]
    width: int  # pins per row
    entries: List[Tuple[int, int, int]]
    n_data: int  # register data pins
    setup_time: float
    #: Every ``Netlist.cell_edges`` edge of the type is a library arc.
    covers_cell_edges: bool

    @classmethod
    def of(cls, ct, arcs: List[object], arc_key: Dict[int, int]) -> "_CellTemplate":
        """Template of ``ct``; its arcs join ``arcs`` (keyed by id)."""
        names = list(ct.input_pins) + list(ct.output_pins)
        col = {name: k for k, name in enumerate(names)}
        entries: List[Tuple[int, int, int]] = []
        for out_name in ct.output_pins:
            out_arcs = ct.arcs_to(out_name)
            if out_arcs:
                entries.append((_DEST, col[out_name], len(out_arcs)))
            for arc in out_arcs:
                if id(arc) not in arc_key:
                    arc_key[id(arc)] = len(arcs)
                    arcs.append(arc)
                entries.append((_ARC, col[arc.from_pin], arc_key[id(arc)]))
        data = []
        if ct.is_sequential:
            entries.append((_CLOCK, col[ct.clock_pin], 0))
            data = [(_DATA, col[n], 0) for n in ct.input_pins if n != ct.clock_pin]
            edges = {(ct.clock_pin, out) for out in ct.output_pins}
        else:
            edges = {(i, out) for i in ct.input_pins for out in ct.output_pins}
        getter = itemgetter(*names)
        return cls(
            getter=getter if len(names) > 1 else lambda d: (getter(d),),
            width=len(names),
            entries=entries + data,
            n_data=len(data),
            setup_time=ct.setup_time,
            covers_cell_edges=edges <= {(a.from_pin, a.to_pin) for a in ct.arcs},
        )


def _longest_path_levels(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Longest-path level of every node of the graph ``src -> dst``.

    A level-by-level topological sort: each round releases at once every
    node whose last predecessor the previous round released, so a node's
    round is the length of the longest path into it.  Raises the
    ``ValueError`` of ``Netlist.topological_pin_order`` on a cycle.
    """
    level = np.zeros(n, dtype=np.int64)
    indeg = np.bincount(dst, minlength=n)
    frontier = indeg == 0
    released = int(np.count_nonzero(frontier))
    rnd = 0
    while True:
        hits = np.bincount(dst[frontier[src]], minlength=n)
        indeg -= hits
        frontier = (indeg == 0) & (hits > 0)
        count = int(np.count_nonzero(frontier))
        if not count:
            break
        rnd += 1
        level[frontier] = rnd
        released += count
    if released != n:
        raise ValueError("combinational loop detected in netlist")
    return level


@dataclass(frozen=True)
class _TableLayout:
    """NLDM tables stacked into one flat value array (shared axes only).

    ``offset`` maps ``id(table)`` to where its values start.
    """

    axes: Tuple[np.ndarray, np.ndarray]
    values: np.ndarray
    offset: Dict[int, int]

    def covers(self, arcs: Sequence[object]) -> bool:
        offset = self.offset
        return all(
            id(a.delay) in offset and id(a.output_slew) in offset for a in arcs
        )


def _stack_tables(
    arcs: Sequence[object], base: Optional[_TableLayout] = None
) -> Optional[_TableLayout]:
    """``base`` (if any) extended by the tables of ``arcs`` it lacks,
    in arc order, delay before output slew; None when the tables do
    not all share one pair of axes, or there are none."""
    axes = base.axes if base is not None else None
    offset = dict(base.offset) if base is not None else {}
    values = [base.values] if base is not None else []
    size = base.values.size if base is not None else 0
    seen_axes = set()
    for arc in arcs:
        for tbl in (arc.delay, arc.output_slew):
            if id(tbl) in offset:
                continue
            key = (tbl.slew_axis, tbl.load_axis)
            ids = (id(key[0]), id(key[1]))
            if ids not in seen_axes:
                seen_axes.add(ids)
                if axes is None:
                    axes = key
                elif not (
                    np.array_equal(axes[0], key[0]) and np.array_equal(axes[1], key[1])
                ):
                    return None
            offset[id(tbl)] = size
            values.append(tbl.values.ravel())
            size += tbl.values.size
    if axes is None:
        return None
    stacked = np.concatenate(values)
    stacked.flags.writeable = False
    return _TableLayout(axes, stacked, offset)


#: Table layout per library: ``id(library) -> (library, cell count,
#: whether it has tables, layout)``, the oldest dropped past a few.
_LIBRARY_LAYOUTS: Dict[int, tuple] = {}
_LIBRARY_LAYOUTS_CAP = 16


def _table_layout(library, arcs: Sequence[object]) -> Optional[_TableLayout]:
    """Table layout of a design over ``library`` that uses ``arcs``.

    Every table of the library comes first, in library order (cell,
    arc, delay before output slew), built once per library; the tables
    of any arc from outside it follow in ``arcs`` order.  None when the
    tables do not share axes.
    """
    hit = _LIBRARY_LAYOUTS.pop(id(library), None)
    if hit is None or hit[0] is not library or hit[1] != len(library.cells):
        lib_arcs = [a for ct in library.cells.values() for a in ct.arcs]
        hit = (library, len(library.cells), bool(lib_arcs), _stack_tables(lib_arcs))
    _LIBRARY_LAYOUTS[id(library)] = hit
    while len(_LIBRARY_LAYOUTS) > _LIBRARY_LAYOUTS_CAP:
        del _LIBRARY_LAYOUTS[next(iter(_LIBRARY_LAYOUTS))]
    _, _, has_tables, layout = hit
    if has_tables and layout is None:
        return None  # the library's own tables do not share axes
    if layout is not None and layout.covers(arcs):
        return layout
    return _stack_tables(arcs, layout)


def _cell_fields(
    dest_rows: np.ndarray,
    cell_in: np.ndarray,
    row_key: np.ndarray,
    arc_list: List[object],
    layout: Optional[_TableLayout],
) -> Dict[str, object]:
    """The cell-arc fields of a :class:`PertLevel` as the whole-design
    build lays them out, from ``dest_rows`` (output pin, arc count,
    driven net) in pin order and, per arc row, its input pin and its
    arc ``arc_list[row_key]``.  Arc groups are numbered by first row."""
    if row_key.size:
        keys, first, inverse = np.unique(row_key, return_index=True, return_inverse=True)
        by_first = np.argsort(first)
        rank = np.empty(by_first.size, dtype=np.int64)
        rank[by_first] = np.arange(by_first.size, dtype=np.int64)
        group_id = rank[inverse]
        members = np.argsort(group_id, kind="stable")
        ends = np.cumsum(np.bincount(group_id, minlength=by_first.size)).tolist()
        group_arcs = [arc_list[k] for k in keys[by_first].tolist()]
        arc_groups = [
            (arc, members[s:e])
            for arc, s, e in zip(group_arcs, [0] + ends[:-1], ends)
        ]
    else:
        group_id = np.zeros(0, dtype=np.int64)
        group_arcs, arc_groups = [], []
    counts = dest_rows[1]
    start = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=start[1:])
    bases = [None, None]
    if layout is not None:
        bases = [
            np.array(
                [layout.offset[id(getattr(a, side))] for a in group_arcs], dtype=np.int64
            ).reshape(-1)[group_id]
            for side in ("delay", "output_slew")
        ]
    return dict(
        cell_in=cell_in,
        cell_dest=dest_rows[0],
        cell_start=start,
        cell_counts=counts,
        cell_dest_net=dest_rows[2],
        arc_groups=arc_groups,
        arc_group_id=group_id,
        delay_base=bases[0],
        slew_base=bases[1],
    )


def _empty_level(layout: Optional[_TableLayout]) -> PertLevel:
    """A level with no arcs (one the whole-design build leaves empty)."""
    e = np.zeros(0, dtype=np.int64)
    return PertLevel(
        e, e, e, e, e, np.zeros(1, dtype=np.int64), e, e, [], e,
        None if layout is None else e, None if layout is None else e,
    )


def _bincount_sums(netlist: Netlist, cap: np.ndarray, nets: Sequence[int]) -> np.ndarray:
    """Sum of sink caps per net of ``nets``, each in sink order, as the
    whole-design weighted bincount adds them."""
    sink_lists = [netlist.nets[n].sinks for n in nets]
    fanout = np.fromiter(map(len, sink_lists), np.int64, len(nets))
    sinks = np.fromiter(chain.from_iterable(sink_lists), np.int64, int(fanout.sum()))
    return np.bincount(
        np.repeat(np.arange(len(nets), dtype=np.int64), fanout),
        weights=cap[sinks],
        minlength=len(nets),
    ).astype(np.float64, copy=False)


class LevelizedPins:
    """Static per-netlist PERT structure shared by every timing pass:
    launch points, arc arrays grouped by destination level, and the
    endpoint requirement table.

    Built in arrays: one pass reads the pins, the nets (as CSR) and the
    cells (one row of pin ids per instance, expanded by a per-type arc
    template); longest-path levels come from a level-by-level
    topological sort and stable sorts split the arcs into levels.
    Every field is bitwise equal to the loop form
    :func:`repro.testing.oracles.reference_levelized_pins`.  Pin and
    net ids are list positions, as the ``Netlist.add_*`` methods assign
    them.  After an ECO netlist edit, :meth:`resized` and
    :meth:`buffered` patch a new object from this one (bitwise the
    fresh build of the edited netlist) without writing this one.
    """

    def __init__(self, netlist: Netlist) -> None:
        pins, nets = netlist.pins, netlist.nets
        n_pins = self.n_pins = len(pins)
        n_nets = self.n_nets = len(nets)
        is_input = np.fromiter(
            map(is_, map(attrgetter("direction"), pins), repeat(PinDirection.INPUT)),
            bool,
            n_pins,
        )
        is_port = np.fromiter(map(attrgetter("is_port"), pins), bool, n_pins)
        cap = np.where(
            is_input, np.fromiter(map(attrgetter("cap"), pins), np.float64, n_pins), 0.0
        )
        #: (n_pins,) input pin caps, zeros at every other pin.
        self.pin_cap = cap
        drivers = np.fromiter(map(attrgetter("driver"), nets), np.int64, n_nets)
        sink_lists = list(map(attrgetter("sinks"), nets))
        fanout = np.fromiter(map(len, sink_lists), np.int64, n_nets)
        sinks = np.fromiter(
            chain.from_iterable(sink_lists), np.int64, int(fanout.sum())
        )
        sink_net = np.repeat(np.arange(n_nets, dtype=np.int64), fanout)
        # Treeless nets: lumped sum of sink pin caps (static).  A weighted
        # bincount adds in input order, so each net sums in sink order,
        # as the reference accumulation does.
        self.lumped_net_cap = np.bincount(
            sink_net, weights=cap[sinks], minlength=n_nets
        ).astype(np.float64, copy=False)  # (an empty bincount is integer)

        # Cells: each instance's pin ids as one row (its type's input,
        # then output pins), gathered in cell order into one flat array;
        # the per-type templates (arcs expanded once per type) address
        # those rows in whole-design gathers.
        cells = netlist.cells
        cell_types = list(map(attrgetter("cell_type"), cells))
        distinct = {id(ct): ct for ct in cell_types}
        arcs: List[object] = []  # distinct TimingArc objects
        arc_key: Dict[int, int] = {}
        templates = [_CellTemplate.of(ct, arcs, arc_key) for ct in distinct.values()]
        type_no = dict(zip(distinct, range(len(templates))))
        kinds = list(map(type_no.__getitem__, map(id, cell_types)))
        kind = np.array(kinds, dtype=np.int64)
        width = np.array([t.width for t in templates], dtype=np.int64)[kind]
        row = np.cumsum(width) - width  # each cell's row in ``cell_pins``
        getters = [t.getter for t in templates]
        cell_pins = np.fromiter(
            chain.from_iterable(
                getters[k](cell.pin_indices) for k, cell in zip(kinds, cells)
            ),
            np.int64,
            int(width.sum()),
        )
        # Every cell's template entries, in cell order: pad the entry
        # lists into one table, read one table row per cell through the
        # padding mask, and split the entries by what they read.
        longest = max((len(t.entries) for t in templates), default=0)
        pad = [(-1, 0, 0)] * longest
        table = np.array(
            [t.entries + pad[len(t.entries) :] for t in templates], dtype=np.int64
        ).reshape(len(templates), longest, 3)[kind]
        table[:, :, 1] += row[:, None]
        what, at, aux = table[table[:, :, 0] >= 0].T
        pin = cell_pins[at]
        is_dest, is_arc = what == _DEST, what == _ARC
        dest_out, dest_cnt = pin[is_dest], aux[is_dest]
        arc_in, arc_of = pin[is_arc], aux[is_arc]
        clock = pin[what == _CLOCK]
        data_pins = pin[what == _DATA]
        setup = np.repeat(
            np.array([t.setup_time for t in templates], dtype=np.float64)[kind],
            np.array([t.n_data for t in templates], dtype=np.int64)[kind],
        )

        # Launch points: primary inputs and register clock pins (ideal
        # clock network).  Their arrivals come from the clock spec.
        self.input_pins = np.flatnonzero(is_port & ~is_input)
        self.clock_pins = np.unique(clock)
        skip = np.zeros(n_pins, dtype=bool)
        skip[self.input_pins] = True
        skip[self.clock_pins] = True

        live = ~skip[sinks]
        net_src = np.repeat(drivers, fanout)[live]
        net_dst = sinks[live]
        net_net = sink_net[live]
        # Cell arcs per destination (output) pin, in library arc order;
        # ``dest_first`` indexes each destination's first arc.
        dest_first = np.cumsum(dest_cnt) - dest_cnt
        level = _longest_path_levels(
            n_pins,
            np.concatenate([net_src, arc_in]),
            np.concatenate([net_dst, np.repeat(dest_out, dest_cnt)]),
        )
        #: (n_pins,) longest-path level of every pin (0 at launch points
        #: and unconnected pins); pin ``p`` is timed in ``levels[L - 1]``.
        self.pin_level = level
        if not (live.all() and all(t.covers_cell_edges for t in templates)):
            # A netlist edge outside the arc graph (a net into a clock
            # pin, a cell edge with no library arc) could close a loop
            # the level sort cannot see.
            netlist.topological_pin_order()

        # Net arcs by level: one stable sort keeps each level's arcs in
        # netlist order.  Rows: driver, sink, net.
        net_lvl = level[net_dst]
        order = np.argsort(net_lvl, kind="stable")
        net_rows = np.stack([net_src, net_dst, net_net])[:, order]
        net_lvl = net_lvl[order]
        # Cell destinations by level, ascending pin order within one.
        # Rows: output pin, arc count, driven net (-1 if none).
        dest_lvl = level[dest_out]
        order = np.lexsort((dest_out, dest_lvl))
        dest_lvl, dest_first = dest_lvl[order], dest_first[order]
        drv_net = np.full(n_pins, -1, dtype=np.int64)
        drv_net[drivers] = np.arange(n_nets, dtype=np.int64)
        dest_rows = np.stack([dest_out, dest_cnt, drv_net[dest_out]])[:, order]
        dest_cnt = dest_rows[1]
        dest_start = np.zeros(dest_cnt.size + 1, dtype=np.int64)
        np.cumsum(dest_cnt, out=dest_start[1:])
        # Arc rows, destination-contiguous in destination order.
        rows = expand_ranges(dest_first, dest_first + dest_cnt)
        row_arc = arc_of[rows]
        row_lvl = np.repeat(dest_lvl, dest_cnt)
        max_lvl = max(
            int(net_lvl[-1]) if net_lvl.size else 0,
            int(dest_lvl[-1]) if dest_lvl.size else 0,
        )
        bounds = np.arange(max_lvl + 2)
        row_bound = np.searchsorted(row_lvl, bounds)
        # Arc groups: one per (level, TimingArc), numbered by first row,
        # so a level's groups are contiguous and in first-occurrence
        # order; ``members`` lists each group's rows, group by group.
        _, first, inverse = np.unique(
            row_lvl * max(len(arcs), 1) + row_arc, return_index=True, return_inverse=True
        )
        by_first = np.argsort(first)
        group_of = np.empty(by_first.size, dtype=np.int64)
        group_of[by_first] = np.arange(by_first.size, dtype=np.int64)
        row_group = group_of[inverse]
        group_arc = row_arc[first[by_first]].tolist()
        group_bound = np.searchsorted(row_lvl[first[by_first]], bounds)
        group_end = np.cumsum(np.bincount(row_group, minlength=by_first.size)).tolist()
        group_start = [0] + group_end[:-1]
        members = np.argsort(row_group, kind="stable")
        # Rows: input pin, group-member row, group id (both level-local).
        row_rows = [
            arc_in[rows],
            members - row_bound[row_lvl[members]],
            row_group - group_bound[row_lvl],
        ]

        # NLDM tables generated from one grid share their axis arrays;
        # when every table does, all of them stack into one flat value
        # array and each arc row records where its two tables start: the
        # kernels interpolate a whole level in one gather instead of one
        # pass per timing arc.  The stack is the library's, in library
        # order (:func:`_table_layout`), so it does not depend on which
        # cells the design uses: an ECO resize to a variant no cell used
        # yet moves no offset.  Rows (appended): delay and output-slew
        # table offsets.
        used = [arcs[a] for a in dict.fromkeys(group_arc)]  # first-use order
        layout = self._layout = _table_layout(netlist.library, used)
        self.shared_axes: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self.table_values: Optional[np.ndarray] = None
        if layout is not None:
            self.shared_axes, self.table_values = layout.axes, layout.values
            base = np.array(
                [
                    [layout.offset[id(a.delay)] for a in arcs],
                    [layout.offset[id(a.output_slew)] for a in arcs],
                ],
                dtype=np.int64,
            ).reshape(2, len(arcs))
            row_rows += list(base[:, row_arc])
        row_rows = np.stack(row_rows)

        # Each level owns one copy of its rows of each block, as the loop
        # form's per-level arrays did: views would keep whole-design
        # arrays alive, and those mid-sized blocks fragment the heap (+5 %
        # peak RSS on a picorv32a flow).  A level's groups tile its
        # group-member row.
        net_bound = np.searchsorted(net_lvl, bounds).tolist()
        dest_bound = np.searchsorted(dest_lvl, bounds).tolist()
        row_bound = row_bound.tolist()
        group_bound = group_bound.tolist()
        self.levels: List[PertLevel] = []
        for L in range(1, max_lvl + 1):
            n0, n1 = net_bound[L], net_bound[L + 1]
            d0, d1 = dest_bound[L], dest_bound[L + 1]
            r0, r1 = row_bound[L], row_bound[L + 1]
            nets = net_rows[:, n0:n1].copy()
            dests = dest_rows[:, d0:d1].copy()
            arc_rows = row_rows[:, r0:r1].copy()
            self.levels.append(
                PertLevel(
                    net_src=nets[0],
                    net_dst=nets[1],
                    net_net=nets[2],
                    cell_in=arc_rows[0],
                    cell_dest=dests[0],
                    cell_start=dest_start[d0 : d1 + 1] - dest_start[d0],
                    cell_counts=dests[1],
                    cell_dest_net=dests[2],
                    arc_groups=[
                        (
                            arcs[group_arc[g]],
                            arc_rows[1, group_start[g] - r0 : group_end[g] - r0],
                        )
                        for g in range(group_bound[L], group_bound[L + 1])
                    ],
                    arc_group_id=arc_rows[2],
                    delay_base=arc_rows[3] if self.table_values is not None else None,
                    slew_base=arc_rows[4] if self.table_values is not None else None,
                )
            )

        # Endpoint requirement table: endpoints in ``Netlist.endpoints``
        # order (primary outputs, then register data pins in cell
        # order), the library setup time of each data pin (NaN at the
        # flagged outputs), and the data pins alone as hold endpoints.
        outputs = np.flatnonzero(is_port & is_input)
        self.endpoints_arr = np.concatenate([outputs, data_pins])
        self.is_output = np.arange(self.endpoints_arr.size) < outputs.size
        self.setup_time = np.concatenate([np.full(outputs.size, np.nan), setup])
        self.hold_endpoints = data_pins
        # Driver of every net (the incremental engine seeds recomputation
        # from it when a net's wire timing changes).
        self.net_driver = drivers

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

    # ------------------------------------------------------------------
    # Patches: the levelization after one ECO netlist edit, sharing
    # every untouched ``PertLevel`` (and array) with ``self``, which is
    # never written.  Each returns None when the edit is not the one the
    # patch handles (the caller then levelizes afresh).
    # ------------------------------------------------------------------
    def _with(self, **fields) -> "LevelizedPins":
        out = LevelizedPins.__new__(LevelizedPins)
        out.__dict__.update(self.__dict__)
        out.__dict__.update(fields)
        return out

    def _dest_rows(self, pin: int) -> Tuple[PertLevel, int, int, int]:
        """``(level, destination index, first arc row, end row)`` of a
        cell output pin that has arcs."""
        lv = self.levels[int(self.pin_level[pin]) - 1]
        d = int(np.searchsorted(lv.cell_dest, pin))
        return lv, d, int(lv.cell_start[d]), int(lv.cell_start[d + 1])

    def resized(self, netlist: Netlist, cell_index: int) -> Optional["LevelizedPins"]:
        """After ``netlist.cells[cell_index]`` took a drive-strength
        variant (:class:`repro.eco.ops.ResizeOp`): its input pin caps,
        the lumped caps of the nets they sink, and its outputs' rows of
        the levels holding them (arc groups, table offsets).  Handles
        combinational cells whose outputs keep their levels."""
        cell = netlist.cells[cell_index]
        ct, pid = cell.cell_type, cell.pin_indices
        layout = None if self.table_values is None else self._layout
        if ct.is_sequential or (layout is not None and not layout.covers(ct.arcs)):
            return None
        gone = np.zeros(self.n_pins, dtype=bool)
        dests_in: Dict[int, List[Tuple[int, np.ndarray, List[object], int]]] = {}
        for name in ct.output_pins:
            arcs, out = ct.arcs_to(name), pid[name]
            ins = [pid[a.from_pin] for a in arcs]
            L = int(self.pin_level[out])
            # An output's level is one past its arcs' inputs (0 without).
            if L != (1 + max(int(self.pin_level[p]) for p in ins) if ins else 0):
                return None
            if arcs:
                lv, d, _, _ = self._dest_rows(out)
                gone[out] = True
                dests_in.setdefault(L, []).append(
                    (out, np.array(ins, dtype=np.int64), arcs, int(lv.cell_dest_net[d]))
                )
        cap = self.pin_cap.copy()
        ins = [pid[name] for name in ct.input_pins]
        cap[ins] = [netlist.pins[p].cap for p in ins]
        pin_net = netlist.pin_net_map()
        nets = sorted({int(n) for n in pin_net[ins] if n >= 0})
        lumped = self.lumped_net_cap.copy()
        lumped[nets] = _bincount_sums(netlist, cap, nets)
        levels = list(self.levels)
        for L, dests in dests_in.items():
            levels[L - 1] = self._relevel(
                levels[L - 1], gone, (), dests, netlist.nets, layout
            )
        return self._with(pin_cap=cap, lumped_net_cap=lumped, levels=levels)

    def buffered(
        self, netlist: Netlist, net_index: int, new_net: int
    ) -> Optional["LevelizedPins"]:
        """After a buffer insertion (:class:`repro.eco.ops.BufferInsertOp`):
        a combinational cell appended with its pins, one sink of net
        ``net_index`` re-pointed to the cell's input, and net ``new_net``
        appended from the cell's output to that sink.

        Only the sink's fan-out cone can move, and only up: longest-path
        levels are relaxed over it in old-level order, and only the
        levels whose pin set changed are rebuilt."""
        nets, pins = netlist.nets, netlist.pins
        n0, n1 = self.n_pins, len(pins)
        if new_net != self.n_nets or len(nets) != new_net + 1:
            return None
        net, added = nets[net_index], nets[new_net]
        bo = added.driver
        cell = netlist.cells[pins[bo].cell_index]
        ct, pid = cell.cell_type, cell.pin_indices
        fresh = [p for p in net.sinks if p >= n0]
        if (
            ct.is_sequential
            or len(added.sinks) != 1
            or len(fresh) != 1
            or sorted(pid.values()) != list(range(n0, n1))
            or (self.table_values is not None and not self._layout.covers(ct.arcs))
        ):
            return None
        (bi,), (sink,) = fresh, added.sinks
        name_of = {p: name for name, p in pid.items()}
        if name_of[bi] not in {a.from_pin for a in ct.arcs_to(name_of[bo])}:
            return None  # without a bi -> bo arc levels could fall
        drv = net.driver
        skip = np.zeros(n1, dtype=bool)
        skip[self.input_pins] = True
        skip[self.clock_pins] = True

        level = np.zeros(n1, dtype=np.int64)
        level[:n0] = self.pin_level
        level[bi] = level[drv] + 1
        new_dests = []  # (pin, arcs), pin order
        for name in ct.output_pins:
            arcs = ct.arcs_to(name)
            if arcs:
                level[pid[name]] = 1 + max(int(level[pid[a.from_pin]]) for a in arcs)
                new_dests.append((pid[name], arcs))
        # The sink's fan-out cone, in old-level order: a pin's preds are
        # final when it is popped, because each lies on a lower level.
        moved: Dict[int, int] = {}
        if not skip[sink]:
            moved[sink] = int(level[bo]) + 1
            heap = [(int(level[sink]), sink)]
            while heap:
                _, w = heapq.heappop(heap)
                up = moved[w] + 1
                for x in self._successors(netlist, w, skip):
                    if up > moved.get(x, int(level[x])):
                        if x not in moved:
                            heapq.heappush(heap, (int(level[x]), x))
                        moved[x] = up

        # The levels moved pins leave, and what enters each level.
        left = set()
        arcs_in: Dict[int, List[Tuple[int, int, int, int]]] = {}
        dests_in: Dict[int, List[Tuple[int, np.ndarray, List[object], int]]] = {}
        sink_pos = lambda n, p: nets[n].sinks.index(p)  # noqa: E731
        for p, L in moved.items():
            old = int(level[p])
            left.add(old)
            lv = self.levels[old - 1]
            if p == sink:
                arcs_in.setdefault(L, []).append((bo, sink, new_net, 0))
            elif pins[p].direction is PinDirection.INPUT:
                j = int(np.flatnonzero(lv.net_dst == p)[0])
                n = int(lv.net_net[j])
                arcs_in.setdefault(L, []).append((int(lv.net_src[j]), p, n, sink_pos(n, p)))
            else:
                lv, d, r0, r1 = self._dest_rows(p)
                dests_in.setdefault(L, []).append((
                    p, lv.cell_in[r0:r1],
                    [lv.arc_groups[g][0] for g in lv.arc_group_id[r0:r1].tolist()],
                    int(lv.cell_dest_net[d]),
                ))
            level[p] = L
        arcs_in.setdefault(int(level[bi]), []).append(
            (drv, bi, net_index, sink_pos(net_index, bi))
        )
        for out, arcs in new_dests:
            dests_in.setdefault(int(level[out]), []).append((
                out, np.array([pid[a.from_pin] for a in arcs], dtype=np.int64),
                arcs, new_net if out == bo else -1,
            ))

        layout = None if self.table_values is None else self._layout
        top = max(chain(arcs_in, dests_in, [len(self.levels)]))
        levels = list(self.levels)
        levels += [_empty_level(layout) for _ in range(top - len(levels))]
        gone = np.zeros(n1, dtype=bool)
        gone[list(moved)] = True
        for L in left | set(arcs_in) | set(dests_in):
            levels[L - 1] = self._relevel(
                levels[L - 1], gone, arcs_in.get(L, ()), dests_in.get(L, ()),
                nets, layout,
            )

        cap = np.zeros(n1, dtype=np.float64)
        cap[:n0] = self.pin_cap
        for p in range(n0, n1):
            if pins[p].direction is PinDirection.INPUT:
                cap[p] = pins[p].cap
        lumped = np.append(self.lumped_net_cap, 0.0)
        lumped[[net_index, new_net]] = _bincount_sums(netlist, cap, [net_index, new_net])
        return self._with(
            n_pins=n1,
            n_nets=new_net + 1,
            pin_cap=cap,
            lumped_net_cap=lumped,
            pin_level=level,
            levels=levels,
            net_driver=np.append(self.net_driver, np.int64(bo)),
        )

    def _successors(self, netlist: Netlist, pin: int, skip: np.ndarray) -> List[int]:
        """Timing-arc successors of an existing ``pin`` in ``netlist``:
        a cell input's arc outputs, or a cell output's live net sinks."""
        p = netlist.pins[pin]
        if p.cell_index < 0 and p.direction is PinDirection.INPUT:
            return []  # a primary output
        if p.direction is PinDirection.INPUT:
            cell = netlist.cells[p.cell_index]
            ct = cell.cell_type
            if ct.is_sequential:
                return []
            name = next(n for n, q in cell.pin_indices.items() if q == pin)
            return list(dict.fromkeys(
                cell.pin_indices[a.to_pin] for a in ct.arcs if a.from_pin == name
            ))
        lv, d, _, _ = self._dest_rows(pin)
        n = int(lv.cell_dest_net[d])
        return [] if n < 0 else [s for s in netlist.nets[n].sinks if not skip[s]]

    @staticmethod
    def _relevel(
        lv: PertLevel,
        gone: np.ndarray,
        arcs_in: Sequence[Tuple[int, int, int, int]],
        dests_in: Sequence[Tuple[int, np.ndarray, List[object], int]],
        nets: list,
        layout: Optional[_TableLayout],
    ) -> PertLevel:
        """Level ``lv`` without the pins marked in ``gone`` and with the
        net arcs ``(driver, sink, net, sink position)`` and destinations
        ``(pin, arc inputs, arcs, driven net)`` merged in where the
        whole-design build puts them.  A side (net arcs, cell arcs) that
        nothing enters or leaves keeps its arrays."""
        fields: Dict[str, object] = {}
        keep = ~gone[lv.net_dst]
        if arcs_in or not keep.all():
            # Netlist order: net-major, sinks in net order.
            net_rows = np.stack([lv.net_src, lv.net_dst, lv.net_net])[:, keep]
            if arcs_in:
                add = sorted(arcs_in, key=lambda a: (a[2], a[3]))
                at = []
                for _, _, n, pos in add:
                    lo = int(np.searchsorted(net_rows[2], n, "left"))
                    hi = int(np.searchsorted(net_rows[2], n, "right"))
                    if hi > lo:
                        sinks = nets[n].sinks
                        lo += sum(sinks.index(q) < pos for q in net_rows[1, lo:hi].tolist())
                    at.append(lo)
                cols = np.array([a[:3] for a in add], dtype=np.int64).T
                net_rows = np.insert(net_rows, at, cols, axis=1)
            fields.update(net_src=net_rows[0], net_dst=net_rows[1], net_net=net_rows[2])
        keep = ~gone[lv.cell_dest]
        if dests_in or not keep.all():
            # Destinations in pin order, each with its arc rows.
            dest_rows = np.stack([lv.cell_dest, lv.cell_counts, lv.cell_dest_net])[:, keep]
            row_keep = np.repeat(keep, lv.cell_counts)
            cell_in = lv.cell_in[row_keep]
            row_key = lv.arc_group_id[row_keep]
            arc_list = [arc for arc, _ in lv.arc_groups]
            if dests_in:
                key_of = {id(a): k for k, a in enumerate(arc_list)}
                add = sorted(dests_in, key=lambda d: d[0])
                at = np.searchsorted(dest_rows[0], [d[0] for d in add])
                starts = np.zeros(dest_rows.shape[1] + 1, dtype=np.int64)
                np.cumsum(dest_rows[1], out=starts[1:])
                keys = []
                for _, _, arcs, _ in add:
                    for arc in arcs:
                        if id(arc) not in key_of:
                            key_of[id(arc)] = len(arc_list)
                            arc_list.append(arc)
                        keys.append(key_of[id(arc)])
                row_at = np.repeat(starts[at], [len(d[2]) for d in add])
                cell_in = np.insert(cell_in, row_at, np.concatenate([d[1] for d in add]))
                row_key = np.insert(row_key, row_at, np.array(keys, dtype=np.int64))
                cols = np.array([[d[0], len(d[2]), d[3]] for d in add], dtype=np.int64).T
                dest_rows = np.insert(dest_rows, at, cols, axis=1)
            fields.update(_cell_fields(dest_rows, cell_in, row_key, arc_list, layout))
        return replace(lv, **fields)

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
    """Batched levelized cone propagation from a seeded frontier (in
    place); the one PERT kernel.

    ``recompute`` is a shared ``(n_pins,)`` seed mask — the union over
    scenarios of pins whose wire timing or driver load changed.  The
    frontier mask is likewise shared (a pin re-evaluates everywhere if
    it changed in *any* scenario); rows whose inputs did not change
    recompute to bitwise-equal values, so the result matches a full
    pass exactly.  A full pass is this sweep over launch values
    (:meth:`LevelizedPins.launch`) with every pin seeded.  All
    per-pin/per-net inputs carry a leading scenario axis except the
    shared ``net_has_tree`` topology mask.  Returns the number of
    levels touched.
    """
    # With every pin seeded (a full pass) whole levels re-time: no
    # frontier selection and no change tracking.
    everything = bool(recompute.all())
    changed = np.zeros(pert.n_pins, dtype=bool)
    levels_touched = 0
    for lv in pert.levels:
        level_touched = False
        if lv.net_dst.size:
            m = slice(None) if everything else recompute[lv.net_dst] | changed[lv.net_src]
            if everything or m.any():
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
                if not everything:
                    old_a = arrival[:, dst]
                    ch = ~((new_a == old_a) | (np.isnan(new_a) & np.isnan(old_a)))
                    ch |= new_s != slew[:, dst]
                    changed[dst] |= ch.any(axis=0)
                arrival[:, dst] = new_a
                slew[:, dst] = new_s
        if lv.cell_dest.size:
            if everything:
                idx, arc_rows = slice(None), None
                counts, sub_start = lv.cell_counts, lv.cell_start
            else:
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
                starts = lv.cell_start[:-1][idx]
                ends = lv.cell_start[1:][idx]
                arc_rows = expand_ranges(starts, ends)
                counts = ends - starts
                sub_start = np.zeros(idx.size + 1, dtype=np.int64)
                np.cumsum(counts, out=sub_start[1:])
            level_touched = True
            best, wslew, valid = _eval_cell_arcs_batched(
                pert, lv, arrival, slew, net_load,
                lv.cell_dest_net[idx], sub_start, counts, arc_rows,
                cell_derate, early,
            )
            dsts = lv.cell_dest[idx]
            new_a = np.where(valid, best, np.nan)
            if not everything:
                old_a = arrival[:, dsts]
                ch = ~((new_a == old_a) | (np.isnan(new_a) & np.isnan(old_a)))
                ch |= wslew != slew[:, dsts]
                changed[dsts] |= ch.any(axis=0)
            arrival[:, dsts] = new_a
            slew[:, dsts] = wslew
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
            with get_telemetry().span("sta.levelize", pins=self.netlist.num_pins):
                self._pert_struct = LevelizedPins(self.netlist)
        return self._pert_struct

    # ------------------------------------------------------------------
    # ECO netlist edits: a new engine over the edited netlist, its
    # levelization patched from this one's (which stays as it was, so an
    # undo can put this engine back), plus the seed pins — those whose
    # fan-in arcs the edit changed — that ``ScenarioSTA.adopt`` re-times
    # from.  Call after the edit.
    # ------------------------------------------------------------------
    def resized(self, cell_index: int) -> Tuple["STAEngine", np.ndarray]:
        """After ``ResizeOp`` on cell ``cell_index``; seeds: its outputs."""
        cell = self.netlist.cells[cell_index]
        seeds = [cell.pin_indices[n] for n in cell.cell_type.output_pins]
        engine = self._patch(
            "resize", lambda pert: pert.resized(self.netlist, cell_index)
        )
        return engine, np.array(seeds, dtype=np.int64)

    def buffered(self, net_index: int, new_net: int) -> Tuple["STAEngine", np.ndarray]:
        """After ``BufferInsertOp`` on net ``net_index`` appended net
        ``new_net``; seeds: the re-driven sink."""
        seeds = self.netlist.nets[new_net].sinks
        engine = self._patch(
            "buffer", lambda pert: pert.buffered(self.netlist, net_index, new_net)
        )
        return engine, np.array(seeds, dtype=np.int64)

    def _patch(self, op: str, patch: Callable[[LevelizedPins], Optional[LevelizedPins]]) -> "STAEngine":
        engine = STAEngine(self.netlist)
        old = self._pert_struct
        if old is None:
            return engine  # never levelized: the new engine levelizes lazily
        tel = get_telemetry()
        with tel.span("sta.patch", op=op) as span:
            pert = patch(old)
            if tel.enabled and pert is not None:
                span.annotate(
                    levels=sum(
                        1 for k, lv in enumerate(pert.levels)
                        if k >= len(old.levels) or lv is not old.levels[k]
                    ),
                    pins=pert.n_pins,
                )
        engine._pert_struct = pert
        return engine

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
