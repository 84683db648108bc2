"""`ScenarioSTA`: incremental multi-corner/multi-mode sign-off STA.

One facade answers the MCMM sign-off query: *given the forest's current
Steiner coordinates, what are WNS/TNS/violations in every scenario, and
what is the merged verdict?*  It owns:

* **wire groups** — scenarios sharing a ``(wire R, wire C)`` derate pair
  share one Elmore pass (``Corner.wire_key``), so the expensive RC part
  scales with distinct wire corners, not scenarios;
* **check blocks** — setup scenarios batch into one ``(S_setup, n_pins)``
  latest-arrival propagation, hold scenarios into one earliest-arrival
  propagation (the batched kernels of repro.sta.engine);
* **incremental state** — one re-time path (:meth:`ScenarioSTA._retime`):
  the trees an edit re-gathered into the flattening or whose sink caps
  a new levelization changed, plus those found dirty by exact
  coordinate (pre-route) or per-edge RC (routed) comparison, are
  re-gathered and re-Elmored alone, and a levelized frontier re-times
  only the pins whose inputs changed bitwise.  Every answer comes from
  the one PERT kernel (:func:`~repro.sta.engine.propagate_from_batched`)
  and is bitwise-identical to a full pass; no caller ever resets the
  state.

This is the one place a timing pass is put together and finalized.
A single-corner query is simply S=1 over the neutral set
(``typ@func``): :meth:`repro.sta.engine.STAEngine.run` is a full query
of a fresh neutral ``ScenarioSTA``, and
:class:`repro.sta.incremental.IncrementalSTA` is a format adapter over
a kept one.  The flow's routed sign-off is one full pass over
``typ@func``, the MCMM set and
:data:`~repro.mcmm.scenario.NEUTRAL_HOLD`: its timing report, its
scenario report and its hold verdict are rows of that one pass.  Setup
slacks have one finalizer (:meth:`ScenarioSTA._setup_metrics`), which
builds both the setup rows of a :class:`ScenarioReport` and the
single-scenario :class:`~repro.sta.engine.TimingReport`
(:meth:`ScenarioSTA.timing_report`); required times come from the one
endpoint requirement table of :class:`~repro.sta.engine.LevelizedPins`.
Hold slacks have one finalizer too (:meth:`ScenarioSTA._hold_metrics`).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.groute.router import GlobalRouteResult
from repro.netlist.netlist import Netlist
from repro.obs import get_telemetry
from repro.sta import flat as flatmod
from repro.pdk.corners import DEFAULT_HOLD_TIME
from repro.sta.engine import (
    DEFAULT_INPUT_SLEW,
    LevelizedPins,
    STAEngine,
    TimingReport,
    propagate_from_batched,
)
from repro.sta.metrics import timing_metrics
from repro.steiner.flat_forest import Carry, FlatForest, flat_forest_of, spliced_slots
from repro.steiner.forest import SteinerForest
from repro.mcmm.scenario import Scenario, ScenarioSet


@dataclass
class ScenarioMetrics:
    """Sign-off result of one scenario (setup slacks or hold slacks)."""

    name: str
    check: str  # "setup" or "hold"
    wns: float
    tns: float
    num_violations: int
    slack: Dict[int, float]
    arrival: np.ndarray  # (n_pins,) propagated arrivals for this scenario


@dataclass
class ScenarioReport:
    """Per-scenario metrics plus the merged MCMM verdict."""

    scenarios: List[ScenarioMetrics]
    merged_wns: float  # worst WNS over all scenarios
    merged_tns: float  # summed TNS over all scenarios
    merged_violations: int

    def by_name(self, name: str) -> ScenarioMetrics:
        for m in self.scenarios:
            if m.name == name:
                return m
        raise KeyError(name)

    def wns_vector(self) -> np.ndarray:
        return np.array([m.wns for m in self.scenarios], dtype=np.float64)

    @staticmethod
    def merge(metrics: List[ScenarioMetrics]) -> "ScenarioReport":
        return ScenarioReport(
            scenarios=metrics,
            merged_wns=min(m.wns for m in metrics),
            merged_tns=sum(m.tns for m in metrics),
            merged_violations=sum(m.num_violations for m in metrics),
        )


@dataclass
class BatchState:
    """Everything cached between batched queries: geometry, nominal RC
    and timing only (Elmore passes run into scratch arrays)."""

    flat: FlatForest
    pert: LevelizedPins  # the levelization it was timed on
    caps: flatmod.FlatCaps  # the engine's pin caps on ``flat``
    xy: np.ndarray  # (N, 2) committed node positions
    routed: bool
    base_r: np.ndarray  # (E,) nominal edge resistance (dirty-diff basis)
    base_c: np.ndarray
    wire_delay_G: np.ndarray  # (G, n_pins)
    wire_deg_G: np.ndarray  # (G, n_pins)
    net_load_G: np.ndarray  # (G, n_nets)
    net_has_tree: np.ndarray  # (n_nets,) bool, shared topology
    # Per check block: (S_block, n_pins) propagated state.
    arr_setup: Optional[np.ndarray]
    slew_setup: Optional[np.ndarray]
    arr_hold: Optional[np.ndarray]
    slew_hold: Optional[np.ndarray]


def _grown(rows: np.ndarray, n: int, fill: float) -> np.ndarray:
    """A copy of ``(k, n0)`` per-pin or per-net ``rows`` widened to ``n``
    columns, the new ones ``fill``."""
    out = np.empty((rows.shape[0], n))
    out[:, : rows.shape[1]] = rows
    out[:, rows.shape[1] :] = fill
    return out


class ScenarioSTA:
    """MCMM STA query object bound to one (netlist, forest) pair.

    Callers move Steiner points on ``forest``, re-route, edit trees or
    the netlist, and re-query; the object keeps itself in sync.  Every
    query re-times only the trees that changed (:meth:`_retime`):
    moved or re-routed trees, the trees a topology edit (a new
    flattening) re-gathered, and those a netlist edit (an engine taken
    over by :meth:`adopt`) changed sink caps of, pre-route or routed
    alike.  Only the first query, or one after a netlist edit that
    removed pins or nets, makes a full pass
    (``num_full``).  Any exception mid-update (including a budget
    timeout) drops the cache before propagating, so an interrupted
    query never leaves a stale dirty set behind (docs/RESILIENCE.md).
    """

    def __init__(
        self,
        netlist: Netlist,
        forest: SteinerForest,
        scenarios: Optional[ScenarioSet] = None,
        engine: Optional[STAEngine] = None,
    ) -> None:
        self.netlist = netlist
        self.forest = forest
        self.scenarios = scenarios if scenarios is not None else ScenarioSet.default()
        self._state: Optional[BatchState] = None
        #: Pins whose fan-in arcs changed since ``_state`` was timed.
        self._seeds = np.zeros(0, dtype=np.int64)
        self.num_queries = 0
        self.num_full = 0
        #: Trees the last query re-timed.
        self.last_dirty_trees = 0
        #: Per-probe dirty-tree counts of the last :meth:`probe_batch`.
        self.last_probe_dirty: List[int] = []
        #: Elmore scratch of subset re-times (:meth:`_scratch_for`), in a
        #: holder the objects :meth:`adopt` derives share.
        self._scratch: List[tuple] = []

        # Wire groups: scenarios sharing (r_derate, c_derate) share one
        # Elmore pass.  First-occurrence order keeps the neutral group
        # (if any) deterministic.
        keys: List[Tuple[float, float]] = []
        self._group_of: List[int] = []
        for sc in self.scenarios:
            k = sc.corner.wire_key
            if k not in keys:
                keys.append(k)
            self._group_of.append(keys.index(k))
        self._wire_keys = keys

        # Check blocks: (scenario indices, early, wire-group rows, cell
        # derates) for each non-empty check.  Group rows that form a
        # contiguous range are a slice, so the block reads views of the
        # group arrays instead of copies; an all-1.0 derate is None
        # because ``x * 1.0`` is a bitwise no-op the kernel can skip.
        self._setup_idx = list(self.scenarios.setup_indices())
        self._hold_idx = list(self.scenarios.hold_indices())
        self._clocks = [sc.clock(netlist.clock) for sc in self.scenarios]
        self._blocks = []
        for idx, early in ((self._setup_idx, False), (self._hold_idx, True)):
            if not idx:
                continue
            g = [self._group_of[s] for s in idx]
            rows = (
                slice(g[0], g[-1] + 1)
                if g == list(range(g[0], g[-1] + 1))
                else np.array(g, dtype=np.int64)
            )
            derate = np.array([[self.scenarios[s].corner.cell_derate] for s in idx])
            self._blocks.append(
                (idx, early, rows, None if np.all(derate == 1.0) else derate)
            )

        self._bind(engine if engine is not None else STAEngine(netlist))

    def _bind(self, engine: STAEngine) -> None:
        """Time with ``engine``: per-scenario finalize data, derived
        from its one endpoint requirement table."""
        self.engine = engine
        pert = engine.pert()
        self._setup_req = [
            pert.required(self._clocks[s], self.scenarios[s].corner.setup_margin)
            for s in self._setup_idx
        ]
        self._setup_enabled = [
            self._enabled_mask(self.scenarios[s], pert.endpoints_arr)
            for s in self._setup_idx
        ]
        self._hold_enabled = [
            self._enabled_mask(self.scenarios[s], pert.hold_endpoints)
            for s in self._hold_idx
        ]

    @staticmethod
    def _enabled_mask(sc: Scenario, endpoints: np.ndarray) -> Optional[np.ndarray]:
        if not sc.mode.disabled_endpoints:
            return None
        disabled = np.array(sc.mode.disabled_endpoints, dtype=np.int64)
        return ~np.isin(endpoints, disabled)

    def adopt(self, engine: STAEngine, seeds: np.ndarray) -> "ScenarioSTA":
        """This query object over ``engine``, an engine patched from its
        own after a netlist edit (``STAEngine.resized``/``buffered``),
        with ``seeds`` the pins whose fan-in arcs the edit changed.

        Returns a new object; this one is not changed, so an undo can
        put it back.  Their states are separate too: the new object's
        next query re-times from this one's state into a new
        ``BatchState`` (:meth:`_carry`), without a full pass.
        """
        out = copy.copy(self)
        out._bind(engine)
        out._seeds = np.union1d(self._seeds, seeds).astype(np.int64)
        return out

    # ------------------------------------------------------------------
    def invalidate(self) -> None:
        """Drop all cached state; the next query runs a full pass.

        Never needed for correctness: every query diffs the forest
        against the state exactly.  Benchmarks call it to time a full
        pass on a kept object.
        """
        self._state = None

    # ------------------------------------------------------------------
    def run(
        self,
        route_result: Optional[GlobalRouteResult] = None,
        utilization: Optional[np.ndarray] = None,
    ) -> ScenarioReport:
        """Scenario-merged timing under the current Steiner coordinates."""
        st = self.update(route_result=route_result, utilization=utilization)
        return self._finalize_blocks(st.arr_setup, st.arr_hold)

    def update(
        self,
        route_result: Optional[GlobalRouteResult] = None,
        utilization: Optional[np.ndarray] = None,
    ) -> BatchState:
        """Bring the propagated state up to the forest's current
        coordinates and return it (:meth:`_retime`).

        The returned state is live and owned by this object: read its
        ``(S_block, n_pins)`` arrays before the next query.
        """
        self.num_queries += 1
        tel = get_telemetry()
        if tel.enabled:
            tel.count("mcmm.sta_queries")
        flat = flat_forest_of(self.forest)
        try:
            self._state = self._retime(
                self._state, flat, self.forest.coords, route_result, utilization
            )
        except Exception:
            self._state = None
            raise
        return self._state

    # ------------------------------------------------------------------
    def _retime(
        self,
        st: Optional[BatchState],
        flat: FlatForest,
        coords: np.ndarray,
        route_result: Optional[GlobalRouteResult],
        utilization: Optional[np.ndarray],
    ) -> BatchState:
        """The one re-time path: re-time the trees that changed since
        ``st`` was timed, and the cones they feed.

        Three starting points, one procedure:

        * no usable prior state (none, or the levelization lost pins or
          nets): a blank state on ``flat`` where every tree changed and
          every pin is seeded from launch, a full pass;
        * ``st`` on this flattening and levelization: ``st`` itself,
          re-timed in place;
        * otherwise a new state carried over from ``st`` (not written;
          an undo may put it back, :meth:`_carry`), whose *edited* trees
          are those the flattening re-gathered since ``st``'s
          (:func:`~repro.steiner.flat_forest.spliced_slots`) and those
          with a sink whose pin cap the new levelization changed.

        The trees to re-time are the edited ones plus, pre-route, the
        trees with a Steiner point that differs from the committed one,
        or, routed (or leaving routed mode), the trees with an edge whose
        RC differs bitwise.  Only their rows are re-gathered and
        re-Elmored, and the frontier is seeded with the sinks and
        drivers whose wire delay, slew term or load changed bitwise
        (plus :meth:`_carry`'s seeds); one
        :func:`propagate_from_batched` sweep per block re-times their
        cones.  A pin outside those cones keeps its committed value,
        which is what a full pass computes for it, so the result is
        bitwise a full pass (the whole-forest rebuild
        ``repro.testing.oracles.rebuilt_state`` is the oracle).  Books
        one ``sta.retime`` span (``trees`` re-timed, ``full``) and one
        ``mcmm.dirty_trees`` sample.
        """
        tel = get_telemetry()
        pert = self.engine.pert()
        routed = route_result is not None
        full = st is None or pert.n_pins < st.pert.n_pins or pert.n_nets < st.pert.n_nets
        with tel.span("sta.retime", full=full) as span:
            if full:
                self.num_full += 1
                if tel.enabled:
                    tel.count("mcmm.full_rebuilds")
                new = self._blank(flat, pert, coords, route_result, utilization)
                dirty = np.arange(flat.n_trees, dtype=np.int64)
                recompute = np.ones(pert.n_pins, dtype=bool)
            else:
                if st.flat is flat and st.pert is pert:
                    new, edited = st, np.zeros(0, dtype=np.int64)
                    recompute = np.zeros(pert.n_pins, dtype=bool)
                else:
                    if tel.enabled:
                        tel.count("mcmm.patched_states")
                    new, edited, recompute = self._carry(st, flat, pert)
                    if edited.size:
                        flatmod.update_caps(flat, pert.pin_cap, new.caps, edited)
                dirty = self._regeometry(new, edited, coords, route_result, utilization)
            self.last_dirty_trees = int(dirty.size)
            if tel.enabled:
                tel.hist("mcmm.dirty_trees", int(dirty.size))
                span.annotate(trees=int(dirty.size))
            if dirty.size:
                self._seed(
                    flat, dirty,
                    self._wire_timing(flat, new.caps, new.base_r, new.base_c, dirty),
                    [
                        (g, new.wire_delay_G[g], new.wire_deg_G[g], new.net_load_G[g])
                        for g in range(len(self._wire_keys))
                    ],
                    recompute,
                )
            if recompute.any():
                for idx, early, rows, derate in self._blocks:
                    levels = propagate_from_batched(
                        pert,
                        new.arr_hold if early else new.arr_setup,
                        new.slew_hold if early else new.slew_setup,
                        new.wire_delay_G[rows], new.wire_deg_G[rows], new.net_load_G[rows],
                        new.net_has_tree, derate, recompute, early=early,
                    )
                    if tel.enabled and not full:
                        tel.hist("mcmm.frontier_levels", levels)
        self._seeds = self._seeds[:0]
        return new

    def _blank(
        self,
        flat: FlatForest,
        pert: LevelizedPins,
        coords: np.ndarray,
        route_result: Optional[GlobalRouteResult],
        utilization: Optional[np.ndarray],
    ) -> BatchState:
        """A state on ``flat`` with the whole forest's geometry, caps and
        edge RC, launch arrivals, and wire timing not yet written (zero
        at every pin, lumped loads at every net)."""
        engine = self.engine
        xy = flat.node_positions(coords)
        if route_result is not None:
            base_r, base_c = flatmod.routed_edge_rc(
                flat, engine.technology, xy, route_result, utilization, engine.COUPLING_K,
            )
        else:
            base_r, base_c = flatmod.preroute_edge_rc(flat, engine.technology, xy)
        G = len(self._wire_keys)
        net_has_tree = np.zeros(pert.n_nets, dtype=bool)
        net_has_tree[flat.net_of_tree] = True
        new = BatchState(
            flat=flat, pert=pert, caps=flatmod.flat_caps(flat, pert.pin_cap), xy=xy,
            routed=route_result is not None, base_r=base_r, base_c=base_c,
            wire_delay_G=np.zeros((G, pert.n_pins)),
            wire_deg_G=np.zeros((G, pert.n_pins)),
            net_load_G=np.tile(pert.lumped_net_cap, (G, 1)),
            net_has_tree=net_has_tree,
            arr_setup=None, slew_setup=None, arr_hold=None, slew_hold=None,
        )
        for idx, early, _, _ in self._blocks:
            self._set_block(new, early, *pert.launch([self._clocks[s] for s in idx]))
        return new

    def _carry(
        self, st: BatchState, flat: FlatForest, pert: LevelizedPins
    ) -> Tuple[BatchState, np.ndarray, np.ndarray]:
        """``(state, edited trees, seed mask)``: ``st`` carried onto
        ``flat`` and ``pert`` in new arrays.

        Kept trees keep their rows (geometry, caps, edge RC); per-pin
        and per-net rows extend for appended pins (unreached) and nets.
        Pins that stop being a sink of a re-gathered tree get zero wire
        timing; those and the pins that start being one are seeded, as
        are the appended pins, the pins whose fan-in arcs changed
        (``adopt``'s seeds) and the drivers of treeless nets whose
        lumped load changed.  Only rows an edit can change are compared.  The edited trees' rows are left to
        :meth:`_retime`.
        """
        old = st.flat
        T0, T1 = old.n_trees, flat.n_trees
        slots = np.zeros(0, dtype=np.int64) if old is flat else spliced_slots(old, flat)
        if slots is None:
            slots = np.arange(T1, dtype=np.int64)
        if old is flat:
            rows = lambda kind, values: values.copy()  # noqa: E731
        else:
            rows = Carry(old, flat, slots).rows
        n0, m0 = st.pert.n_pins, st.pert.n_nets
        wire_delay_G = _grown(st.wire_delay_G, pert.n_pins, 0.0)
        wire_deg_G = _grown(st.wire_deg_G, pert.n_pins, 0.0)
        net_has_tree = np.zeros(pert.n_nets, dtype=bool)
        net_has_tree[flat.net_of_tree] = True
        new = BatchState(
            flat=flat, pert=pert,
            caps=flatmod.FlatCaps(
                node_base_cap=rows("node", st.caps.node_base_cap),
                lumped_cap=rows("tree", st.caps.lumped_cap),
            ),
            xy=rows("node", st.xy), routed=st.routed,
            base_r=rows("edge", st.base_r), base_c=rows("edge", st.base_c),
            wire_delay_G=wire_delay_G, wire_deg_G=wire_deg_G,
            # Appended nets get their load below or from their new tree.
            net_load_G=_grown(st.net_load_G, pert.n_nets, np.nan),
            net_has_tree=net_has_tree,
            arr_setup=None, slew_setup=None, arr_hold=None, slew_hold=None,
        )
        for idx, early, _, _ in self._blocks:
            self._set_block(
                new, early,
                _grown(st.arr_hold if early else st.arr_setup, pert.n_pins, np.nan),
                _grown(st.slew_hold if early else st.slew_setup, pert.n_pins, DEFAULT_INPUT_SLEW),
            )

        recompute = np.zeros(pert.n_pins, dtype=bool)
        recompute[n0:] = True
        recompute[self._seeds] = True
        # Sinks of the trees that left (replaced or cut from the tail)
        # against those of the trees that came in.
        gone = np.concatenate([slots[slots < T0], np.arange(T1, T0, dtype=np.int64)])
        was = set(old.sink_pin[old.sink_rows_of_trees(gone)].tolist())
        now = set(flat.sink_pin[flat.sink_rows_of_trees(slots)].tolist())
        stale = np.array(sorted(was - now), dtype=np.int64)
        wire_delay_G[:, stale] = 0.0
        wire_deg_G[:, stale] = 0.0
        recompute[np.array(sorted(was ^ now), dtype=np.int64)] = True
        # Treeless nets load their driver with their lumped sink caps:
        # the nets that lost their tree, are new, or whose lumped cap
        # the new levelization changed.
        lumped = [old.net_of_tree[gone], np.arange(m0, pert.n_nets, dtype=np.int64)]
        if pert is not st.pert:
            lumped.append(np.flatnonzero(pert.lumped_net_cap[:m0] != st.pert.lumped_net_cap))
        lumped = np.unique(np.concatenate(lumped))
        lumped = lumped[~net_has_tree[lumped]]
        new.net_load_G[:, lumped] = pert.lumped_net_cap[lumped]
        kept = lumped[lumped < m0]
        load_ch = np.any(new.net_load_G[:, kept] != st.net_load_G[:, kept], axis=0)
        recompute[pert.net_driver[kept[load_ch]]] = True

        edited = slots
        if pert is not st.pert:
            pins = np.concatenate([
                np.flatnonzero(pert.pin_cap[:n0] != st.pert.pin_cap),
                np.arange(n0, pert.n_pins, dtype=np.int64),
            ])
            if pins.size:
                hit = flat.sink_tree[np.isin(flat.sink_pin, pins)]
                edited = np.union1d(edited, hit).astype(np.int64)
        return new, edited, recompute

    def _regeometry(
        self,
        st: BatchState,
        edited: np.ndarray,
        coords: np.ndarray,
        route_result: Optional[GlobalRouteResult],
        utilization: Optional[np.ndarray],
    ) -> np.ndarray:
        """Bring ``st``'s geometry and edge RC up to ``coords`` (and the
        routes) and return the trees to re-time: ``edited`` plus the
        trees whose inputs differ from the committed ones."""
        flat = st.flat
        engine = self.engine
        routed = route_result is not None
        xy = st.xy
        if edited.size:
            nodes = flat.node_rows_of_trees(edited)
            xy[nodes] = flat.base_xy[nodes]
        if routed or st.routed:
            # Routed (or a mode switch): per-edge RC diffing is the exact
            # dirtiness criterion — it catches coordinate moves (fallback
            # edges), re-routes, layer changes and coupling.
            xy[flat.steiner_rows] = coords
            if routed:
                new_r, new_c = flatmod.routed_edge_rc(
                    flat, engine.technology, xy, route_result, utilization, engine.COUPLING_K,
                )
            else:
                new_r, new_c = flatmod.preroute_edge_rc(flat, engine.technology, xy)
            diff = (new_r != st.base_r) | (new_c != st.base_c)
            dirty = np.union1d(edited, flat.edge_tree[diff])
            st.base_r, st.base_c = new_r, new_c
        else:
            dirty = np.union1d(edited, self._moved(flat, xy[flat.steiner_rows], coords))
            self._place(flat, dirty, coords, xy, st.base_r, st.base_c)
        st.routed = routed
        return dirty.astype(np.int64, copy=False)

    @staticmethod
    def _set_block(st: BatchState, early: bool, arrival: np.ndarray, slew: np.ndarray) -> None:
        if early:
            st.arr_hold, st.slew_hold = arrival, slew
        else:
            st.arr_setup, st.slew_setup = arrival, slew

    # ------------------------------------------------------------------
    @staticmethod
    def _moved(flat: FlatForest, committed: np.ndarray, coords: np.ndarray) -> np.ndarray:
        """Trees with a Steiner point (a row of ``coords``) that differs
        from ``committed``, ascending: one compare of the two matrices
        (in-place coordinate writes are not reported, so it is the only
        exact test)."""
        ne = coords != committed
        moved = np.zeros(flat.n_trees, dtype=bool)
        moved[flat.steiner_tree[ne[:, 0] | ne[:, 1]]] = True
        return np.flatnonzero(moved)

    def _place(
        self,
        flat: FlatForest,
        trees: np.ndarray,
        coords: np.ndarray,
        xy: np.ndarray,
        r: np.ndarray,
        c: np.ndarray,
    ) -> None:
        """Write ``trees``' Steiner points (from ``coords``) into ``xy``
        and their pre-route edge RC into ``r`` / ``c``; other rows are
        untouched."""
        if trees.size == 0:
            return
        points = flat.steiner_rows_of_trees(trees)
        xy[flat.steiner_rows[points]] = coords[points]
        flatmod.preroute_edge_rc(
            flat, self.engine.technology, xy,
            edge_rows=flat.edge_rows_of_trees(trees), out_r=r, out_c=c,
        )

    def _wire_timing(
        self,
        flat: FlatForest,
        caps: flatmod.FlatCaps,
        r: np.ndarray,
        c: np.ndarray,
        trees: np.ndarray,
    ) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Per wire group, ``(sink delay, sink slew term, driver load)``
        of ``trees`` (ascending, unique), in ``sink_rows_of_trees`` /
        ``trees`` order, from nominal edge RC ``r`` / ``c``.

        Every tree is one batched pass per group; a subset is re-Elmored
        by ``elmore_update`` into a scratch kept on this object (it reads
        and writes only the subset's rows, so any large enough scratch
        serves), and its values are bitwise those of the full pass.
        """
        out = []
        if trees.size == flat.n_trees:
            for rd, cd in self._wire_keys:
                el = flatmod.elmore_forest(flat, caps, r * rd, c * cd)
                out.append((el.sink_delay, el.sink_slew_deg, el.total_cap))
            return out
        el, group_r, group_c = self._scratch_for(flat)
        e_rows = flat.edge_rows_of_trees(trees)
        sink_sel = flat.sink_rows_of_trees(trees)
        for rd, cd in self._wire_keys:
            group_r[e_rows] = r[e_rows] * rd
            group_c[e_rows] = c[e_rows] * cd
            flatmod.elmore_update(flat, caps, group_r, group_c, el, trees=trees)
            out.append(
                (el.sink_delay[sink_sel], el.sink_slew_deg[sink_sel], el.total_cap[trees])
            )
        return out

    def _scratch_for(
        self, flat: FlatForest
    ) -> Tuple[flatmod.ElmoreState, np.ndarray, np.ndarray]:
        """Elmore and edge-RC scratch at least as large as ``flat``'s
        (grown with headroom, so ECO appends rarely reallocate)."""
        if self._scratch:
            el, group_r, _ = scratch = self._scratch[0]
            if (
                el.node_cap.size >= flat.n_nodes
                and el.total_cap.size >= flat.n_trees
                and el.sink_delay.size >= flat.sink_rows.size
                and group_r.size >= flat.n_edges
            ):
                return scratch
        pad = lambda n: n + n // 16 + 64  # noqa: E731
        N, T, K, E = pad(flat.n_nodes), pad(flat.n_trees), pad(flat.sink_rows.size), pad(flat.n_edges)
        el = flatmod.ElmoreState(
            node_cap=np.zeros(N), subtree_cap=np.zeros(N), delay=np.zeros(N),
            total_cap=np.zeros(T), sink_delay=np.zeros(K), sink_slew_deg=np.zeros(K),
        )
        self._scratch[:] = [(el, np.zeros(E), np.zeros(E))]
        return self._scratch[0]

    def _seed(
        self,
        flat: FlatForest,
        trees: np.ndarray,
        timing: List[Tuple[np.ndarray, np.ndarray, np.ndarray]],
        targets: List[Tuple[int, np.ndarray, np.ndarray, np.ndarray]],
        recompute: np.ndarray,
    ) -> None:
        """Write ``timing`` of ``trees`` (from :meth:`_wire_timing`) into
        each ``(group, wire delay, slew term, net load)`` target row and
        mark in ``recompute`` the sinks and drivers whose values differ
        from the ones the row held."""
        pins = flat.sink_pin[flat.sink_rows_of_trees(trees)]
        nets = flat.net_of_tree[trees]
        net_driver = self.engine.pert().net_driver
        for g, wire_delay, wire_deg, net_load in targets:
            new_wd, new_deg, new_load = timing[g]
            w_ch = (wire_delay[pins] != new_wd) | (wire_deg[pins] != new_deg)
            recompute[pins[w_ch]] = True
            l_ch = net_load[nets] != new_load
            recompute[net_driver[nets[l_ch]]] = True
            wire_delay[pins] = new_wd
            wire_deg[pins] = new_deg
            net_load[nets] = new_load

    # ------------------------------------------------------------------
    def _setup_metrics(
        self, row: int, arrival: np.ndarray, light: bool
    ) -> ScenarioMetrics:
        """Setup slacks (Eq. 1) of setup row ``row`` given its arrivals.

        The one setup-slack finalizer: :meth:`_finalize_blocks` and
        :meth:`timing_report` both build on it.  An unreached endpoint
        counts from the launch edge.
        """
        s = self._setup_idx[row]
        req = self._setup_req[row]
        eps = self.engine.pert().endpoints_arr
        arr_ep = arrival[eps]
        launch = self._clocks[s].launch_time()
        svals = np.where(np.isnan(arr_ep), req - launch, req - arr_ep)
        enabled = self._setup_enabled[row]
        if enabled is not None:
            eps = eps[enabled]
            svals = svals[enabled]
        wns, tns, vios = timing_metrics(svals)
        return ScenarioMetrics(
            name=self.scenarios[s].name, check="setup", wns=wns, tns=tns,
            num_violations=vios,
            slack={} if light else dict(zip(eps.tolist(), svals.tolist())),
            arrival=arrival if light else arrival.copy(),
        )

    def _hold_metrics(
        self, row: int, arrival: np.ndarray, light: bool
    ) -> ScenarioMetrics:
        """Hold slacks of hold row ``row``: earliest arrival minus launch,
        hold time, corner margin and uncertainty; unreached endpoints
        carry no hold check."""
        s = self._hold_idx[row]
        sc = self.scenarios[s]
        clock = self._clocks[s]
        requirement = DEFAULT_HOLD_TIME + sc.corner.hold_margin + clock.uncertainty
        eps = self.engine.pert().hold_endpoints
        enabled = self._hold_enabled[row]
        if enabled is not None:
            eps = eps[enabled]
        arr_ep = arrival[eps]
        reached = ~np.isnan(arr_ep)
        eps = eps[reached]
        svals = arr_ep[reached] - clock.launch_time() - requirement
        whs, tns, vios = timing_metrics(svals)
        return ScenarioMetrics(
            name=sc.name, check="hold", wns=whs, tns=tns, num_violations=vios,
            slack={} if light else dict(zip(eps.tolist(), svals.tolist())),
            arrival=arrival if light else arrival.copy(),
        )

    def _finalize_blocks(
        self,
        arr_setup: Optional[np.ndarray],
        arr_hold: Optional[np.ndarray],
        light: bool = False,
    ) -> ScenarioReport:
        """Metrics from explicit ``(S_block, n_pins)`` arrival blocks.

        ``light=True`` skips the per-endpoint slack dict and the arrival
        copy — WNS/TNS/violation counts are unchanged bitwise; the
        what-if probe path uses it because a probe answer is consumed as
        a scalar delta, never as a slack map.
        """
        metrics: List[Optional[ScenarioMetrics]] = [None] * len(self.scenarios)
        for row, s in enumerate(self._setup_idx):
            metrics[s] = self._setup_metrics(row, arr_setup[row], light)
        for row, s in enumerate(self._hold_idx):
            metrics[s] = self._hold_metrics(row, arr_hold[row], light)
        return ScenarioReport.merge([m for m in metrics if m is not None])

    def timing_report(self) -> TimingReport:
        """The first setup scenario of the last query as a
        :class:`~repro.sta.engine.TimingReport` (arrays are copies).

        What ``STAEngine.run`` and ``IncrementalSTA.run`` return; call
        after :meth:`update`.
        """
        st = self._state
        m = self._setup_metrics(0, st.arr_setup[0], light=False)
        eps = self.engine.pert().endpoints_arr
        group = self._group_of[self._setup_idx[0]]
        return TimingReport(
            arrival=m.arrival,
            slew=st.slew_setup[0].copy(),
            required=dict(zip(eps.tolist(), self._setup_req[0].tolist())),
            slack=m.slack,
            wns=m.wns,
            tns=m.tns,
            num_violations=m.num_violations,
            net_load=dict(enumerate(st.net_load_G[group].tolist())),
        )

    # ------------------------------------------------------------------
    def probe_batch(
        self, coords_list: Sequence[np.ndarray]
    ) -> Tuple[ScenarioReport, List[ScenarioReport]]:
        """Time K candidate coordinate sets in one batched PERT pass.

        The query-fusion layer's kernel (docs/SERVING.md): each entry of
        ``coords_list`` is a full ``(S, 2)`` Steiner coordinate array —
        typically the committed coordinates with one point moved — and
        becomes its own row group of the ``(K * S_block, n_pins)`` check
        blocks.  Per probe the dirty trees are re-timed by the same
        moved-tree and wire-timing helpers as :meth:`_retime`, on
        scratch copies of the geometry, and one shared
        :func:`propagate_from_batched` sweep with the **union**
        recompute mask re-times every probe row at once.  Rows whose
        inputs did not change recompute to bitwise-equal values (see
        ``repro.sta.engine``), so every probe report is bitwise-identical
        to running that move alone — ``probe_batch([c])`` *is* the
        serial path, which is what makes fused and unfused serving
        byte-comparable.

        Nothing is committed: past the base re-synchronization the call
        only reads the cached state (and the forest), so no exception
        can leave it half-written.  Returns ``(base_report, probes)``
        where ``base_report`` re-synchronizes with the forest's current
        coordinates first.  Probe reports are "light": WNS/TNS and
        violation counts only (empty slack maps).  Probing is pre-route.
        """
        base = self.run()
        st = self._state
        pert = self.engine.pert()
        K = len(coords_list)
        self.last_probe_dirty = []
        tel = get_telemetry()
        if tel.enabled:
            tel.count("mcmm.probe_batches")
            tel.hist("mcmm.probe_width", K)
        if K == 0:
            return base, []

        # One (K * S_block, n_pins) workspace per check block, seeded
        # with the committed propagated state tiled K times.
        blocks = []
        for idx, early, rows, derate in self._blocks:
            blocks.append(
                {
                    "idx": idx,
                    "early": early,
                    "wd": np.tile(st.wire_delay_G[rows], (K, 1)),
                    "deg": np.tile(st.wire_deg_G[rows], (K, 1)),
                    "nl": np.tile(st.net_load_G[rows], (K, 1)),
                    "derate": None if derate is None else np.tile(derate, (K, 1)),
                    "arr": np.tile(st.arr_hold if early else st.arr_setup, (K, 1)),
                    "slew": np.tile(st.slew_hold if early else st.slew_setup, (K, 1)),
                }
            )

        # Scratch geometry: a probe writes every Steiner point and edge
        # RC row of its dirty trees and reads no other rows, so one copy
        # serves all K probes and the committed state is only read.
        flat = st.flat
        xy, r, c = st.xy.copy(), st.base_r.copy(), st.base_c.copy()
        committed = st.xy[flat.steiner_rows]
        recompute = np.zeros(pert.n_pins, dtype=bool)
        for k in range(K):
            coords = np.asarray(coords_list[k], dtype=np.float64)
            dirty = self._moved(flat, committed, coords)
            self._place(flat, dirty, coords, xy, r, c)
            self.last_probe_dirty.append(int(dirty.size))
            if dirty.size == 0:
                continue
            targets = [
                (self._group_of[s], b["wd"][row], b["deg"][row], b["nl"][row])
                for b in blocks
                for row, s in enumerate(b["idx"], start=k * len(b["idx"]))
            ]
            self._seed(
                flat, dirty, self._wire_timing(flat, st.caps, r, c, dirty),
                targets, recompute,
            )

        if recompute.any():
            for block in blocks:
                propagate_from_batched(
                    pert, block["arr"], block["slew"], block["wd"],
                    block["deg"], block["nl"], st.net_has_tree,
                    block["derate"], recompute, early=block["early"],
                )

        probes: List[ScenarioReport] = []
        for k in range(K):
            arr = {}
            for block in blocks:
                S = len(block["idx"])
                arr[block["early"]] = block["arr"][k * S:(k + 1) * S]
            probes.append(
                self._finalize_blocks(arr.get(False), arr.get(True), light=True)
            )
        return base, probes


__all__ = ["ScenarioMetrics", "ScenarioReport", "ScenarioSTA"]
