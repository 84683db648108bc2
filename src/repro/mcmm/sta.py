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
* **incremental state** — dirty trees are found by exact coordinate
  (pre-route) or per-edge RC (routed) comparison, re-Elmored alone,
  and a levelized frontier re-times only the pins whose inputs changed
  bitwise.  A new flattening or levelization re-gathers the whole
  forest and re-times from the prior state the same way.  Every
  answer comes from the one PERT kernel
  (:func:`~repro.sta.engine.propagate_from_batched`) and is
  bitwise-identical to a full pass; no caller ever resets the state.

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
from repro.steiner.flat_forest import FlatForest, flat_forest_of
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


class ScenarioSTA:
    """MCMM STA query object bound to one (netlist, forest) pair.

    Callers move Steiner points on ``forest``, re-route, edit trees or
    the netlist, and re-query; the object keeps itself in sync.  Moved
    or re-routed trees re-time incrementally (:meth:`_incremental`).
    A topology edit (a new flattening) or a netlist edit that appends
    (an engine taken over by :meth:`adopt`) re-gathers the whole
    forest and re-times from the previous state (:meth:`_rebuild`),
    pre-route or routed alike.  Only the first query, or one after a
    netlist edit that removed pins or nets, makes a full pass
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
        self.last_dirty_trees = 0
        #: Per-probe dirty-tree counts of the last :meth:`probe_batch`.
        self.last_probe_dirty: List[int] = []

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
        ``BatchState`` (:meth:`_rebuild`), without a full pass.
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
        coordinates and return it.

        Two paths: with no state, or after a new flattening or
        levelization, :meth:`_rebuild` gathers the whole forest afresh;
        otherwise :meth:`_incremental` re-times the trees that moved or
        re-routed.  Both re-time from the prior state when there is
        one.  The returned state is live and owned by this object: read
        its ``(S_block, n_pins)`` arrays before the next query.
        """
        self.num_queries += 1
        tel = get_telemetry()
        if tel.enabled:
            tel.count("mcmm.sta_queries")
        flat = flat_forest_of(self.forest)
        coords = self.forest.coords
        st = self._state
        try:
            if st is None or st.flat is not flat or st.pert is not self.engine.pert():
                return self._rebuild(st, flat, coords, route_result, utilization)
            self._incremental(st, coords, route_result, utilization)
        except Exception:
            self._state = None
            raise
        return st

    # ------------------------------------------------------------------
    def _rebuild(
        self,
        st: Optional[BatchState],
        flat: FlatForest,
        coords: np.ndarray,
        route_result: Optional[GlobalRouteResult],
        utilization: Optional[np.ndarray],
    ) -> BatchState:
        """A new state on ``flat``, re-timed from ``st`` (not written).

        Geometry, caps, pre-route or routed edge RC and every wire
        group's Elmore rows are gathered afresh over the whole forest.
        With no usable prior state (none, or the levelization lost
        pins or nets) every pin is seeded from launch: a full pass.
        Otherwise per-pin rows extend for appended pins (unreached) and
        nets, and the frontier is seeded with the appended pins, the
        pins whose fan-in arcs changed (``adopt``'s seeds), the sinks
        whose wire delay, slew term or tree membership differ bitwise
        from ``st``, and the drivers of nets whose load does.  One
        :func:`propagate_from_batched` sweep per block then re-times
        their cones.  A pin outside those cones keeps its committed
        value, which is what a full pass computes for it, so the result
        is bitwise a full pass over the edited design.
        """
        tel = get_telemetry()
        engine = self.engine
        pert = engine.pert()
        caps = flatmod.flat_caps(flat, pert.pin_cap)
        xy = flat.node_positions(coords)
        routed = route_result is not None
        if routed:
            base_r, base_c = flatmod.routed_edge_rc(
                flat, engine.technology, xy, route_result,
                utilization, engine.COUPLING_K,
            )
        else:
            base_r, base_c = flatmod.preroute_edge_rc(flat, engine.technology, xy)
        new = self._timed_state(flat, pert, caps, xy, routed, base_r, base_c)
        self.last_dirty_trees = flat.n_trees

        full = st is None or pert.n_pins < st.pert.n_pins or pert.n_nets < st.pert.n_nets
        if full:
            self.num_full += 1
            if tel.enabled:
                tel.count("mcmm.full_rebuilds")
            recompute = np.ones(pert.n_pins, dtype=bool)
        else:
            if tel.enabled:
                tel.count("mcmm.patched_states")
            recompute = self._changed_pins(st, new)

        for idx, early, rows, derate in self._blocks:
            if full:
                arrival, slew = pert.launch([self._clocks[s] for s in idx])
            else:
                old_arr = st.arr_hold if early else st.arr_setup
                n0 = old_arr.shape[1]
                arrival = np.full((len(idx), pert.n_pins), np.nan)
                slew = np.full((len(idx), pert.n_pins), DEFAULT_INPUT_SLEW)
                arrival[:, :n0] = old_arr
                slew[:, :n0] = st.slew_hold if early else st.slew_setup
            levels = propagate_from_batched(
                pert, arrival, slew, new.wire_delay_G[rows], new.wire_deg_G[rows],
                new.net_load_G[rows], new.net_has_tree, derate, recompute,
                early=early,
            )
            if tel.enabled and not full:
                tel.hist("mcmm.frontier_levels", levels)
            self._set_block(new, early, arrival, slew)
        self._seeds = self._seeds[:0]
        self._state = new
        return new

    def _changed_pins(self, st: BatchState, new: BatchState) -> np.ndarray:
        """Seed mask of a re-time from ``st`` to ``new`` (see
        :meth:`_rebuild`)."""
        pert = new.pert
        n0, m0 = st.pert.n_pins, st.pert.n_nets
        recompute = np.zeros(pert.n_pins, dtype=bool)
        recompute[n0:] = True
        recompute[self._seeds] = True
        recompute[:n0] |= np.any(
            (new.wire_delay_G[:, :n0] != st.wire_delay_G)
            | (new.wire_deg_G[:, :n0] != st.wire_deg_G),
            axis=0,
        )
        # A sink's slew is PERI-degraded only on a net with a tree.
        was_sink = np.zeros(pert.n_pins, dtype=bool)
        was_sink[st.flat.sink_pin] = True
        now_sink = np.zeros(pert.n_pins, dtype=bool)
        now_sink[new.flat.sink_pin] = True
        recompute |= was_sink != now_sink
        load_ch = np.ones(pert.n_nets, dtype=bool)
        load_ch[:m0] = np.any(new.net_load_G[:, :m0] != st.net_load_G, axis=0)
        recompute[pert.net_driver[load_ch]] = True
        return recompute

    def _timed_state(
        self,
        flat: FlatForest,
        pert: LevelizedPins,
        caps: flatmod.FlatCaps,
        xy: np.ndarray,
        routed: bool,
        base_r: np.ndarray,
        base_c: np.ndarray,
    ) -> BatchState:
        """A state with every wire group's Elmore rows over the whole
        forest, and no propagated blocks yet."""
        G = len(self._wire_keys)
        n_pins = pert.n_pins
        wire_delay_G = np.zeros((G, n_pins))
        wire_deg_G = np.zeros((G, n_pins))
        net_load_G = np.empty((G, pert.n_nets))
        timing = self._wire_timing(flat, caps, base_r, base_c)
        for g, (delay, deg, load) in enumerate(timing):
            wire_delay_G[g, flat.sink_pin] = delay
            wire_deg_G[g, flat.sink_pin] = deg
            net_load_G[g] = pert.lumped_net_cap
            net_load_G[g, flat.net_of_tree] = load
        net_has_tree = np.zeros(pert.n_nets, dtype=bool)
        net_has_tree[flat.net_of_tree] = True
        return BatchState(
            flat=flat,
            pert=pert,
            caps=caps,
            xy=xy,
            routed=routed,
            base_r=base_r,
            base_c=base_c,
            wire_delay_G=wire_delay_G,
            wire_deg_G=wire_deg_G,
            net_load_G=net_load_G,
            net_has_tree=net_has_tree,
            arr_setup=None,
            slew_setup=None,
            arr_hold=None,
            slew_hold=None,
        )

    @staticmethod
    def _set_block(st: BatchState, early: bool, arrival: np.ndarray, slew: np.ndarray) -> None:
        if early:
            st.arr_hold, st.slew_hold = arrival, slew
        else:
            st.arr_setup, st.slew_setup = arrival, slew

    # ------------------------------------------------------------------
    def _moved_trees(
        self,
        st: BatchState,
        committed: np.ndarray,
        coords: np.ndarray,
        xy: np.ndarray,
        r: np.ndarray,
        c: np.ndarray,
    ) -> np.ndarray:
        """Trees with a Steiner point that differs bitwise from
        ``committed`` (``st.xy``'s Steiner rows).  Writes all of their
        points into ``xy`` and their pre-route edge RC into ``r`` /
        ``c``; other rows are untouched."""
        flat = st.flat
        dirty_mask = np.zeros(flat.n_trees, dtype=bool)
        dirty_mask[flat.steiner_tree[np.any(coords != committed, axis=1)]] = True
        dirty = np.flatnonzero(dirty_mask)
        if dirty.size:
            m = dirty_mask[flat.steiner_tree]
            xy[flat.steiner_rows[m]] = coords[m]
            flatmod.preroute_edge_rc(
                flat, self.engine.technology, xy,
                edge_rows=flat.edge_rows_of_trees(dirty), out_r=r, out_c=c,
            )
        return dirty

    def _wire_timing(
        self,
        flat: FlatForest,
        caps: flatmod.FlatCaps,
        r: np.ndarray,
        c: np.ndarray,
        trees: Optional[np.ndarray] = None,
    ) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Per wire group, ``(sink delay, sink slew term, driver load)``
        of ``trees`` (every tree when None), in ``sink_rows_of_trees`` /
        ``trees`` order, from nominal edge RC ``r`` / ``c``.

        A subset is re-Elmored by ``elmore_update`` into scratch arrays:
        it reads only the subset's rows of ``r`` / ``c``, and its values
        are bitwise those of the full pass.
        """
        out = []
        if trees is None:
            for rd, cd in self._wire_keys:
                el = flatmod.elmore_forest(flat, caps, r * rd, c * cd)
                out.append((el.sink_delay, el.sink_slew_deg, el.total_cap))
            return out
        e_rows = flat.edge_rows_of_trees(trees)
        sink_sel = flat.sink_rows_of_trees(trees)
        el = flatmod.ElmoreState.zeros(flat)
        group_r, group_c = np.zeros_like(r), np.zeros_like(c)
        for rd, cd in self._wire_keys:
            group_r[e_rows] = r[e_rows] * rd
            group_c[e_rows] = c[e_rows] * cd
            flatmod.elmore_update(flat, caps, group_r, group_c, el, trees=trees)
            out.append(
                (el.sink_delay[sink_sel], el.sink_slew_deg[sink_sel], el.total_cap[trees])
            )
        return out

    def _seed(
        self,
        st: BatchState,
        trees: np.ndarray,
        timing: List[Tuple[np.ndarray, np.ndarray, np.ndarray]],
        targets: List[Tuple[int, np.ndarray, np.ndarray, np.ndarray]],
        recompute: np.ndarray,
    ) -> None:
        """Write ``timing`` of ``trees`` (from :meth:`_wire_timing`) into
        each ``(group, wire delay, slew term, net load)`` target row and
        mark in ``recompute`` the sinks and drivers whose values differ
        from the committed state ``st``."""
        flat = st.flat
        pins = flat.sink_pin[flat.sink_rows_of_trees(trees)]
        nets = flat.net_of_tree[trees]
        net_driver = self.engine.pert().net_driver
        for g, wire_delay, wire_deg, net_load in targets:
            new_wd, new_deg, new_load = timing[g]
            w_ch = (st.wire_delay_G[g, pins] != new_wd) | (
                st.wire_deg_G[g, pins] != new_deg
            )
            recompute[pins[w_ch]] = True
            l_ch = st.net_load_G[g, nets] != new_load
            recompute[net_driver[nets[l_ch]]] = True
            wire_delay[pins] = new_wd
            wire_deg[pins] = new_deg
            net_load[nets] = new_load

    def _incremental(
        self,
        st: BatchState,
        coords: np.ndarray,
        route_result: Optional[GlobalRouteResult],
        utilization: Optional[np.ndarray],
    ) -> None:
        engine = self.engine
        pert = engine.pert()
        flat = st.flat
        routed = route_result is not None

        if routed or st.routed:
            # Post-route (or a mode switch): per-edge RC diffing is the
            # exact dirtiness criterion — it catches coordinate moves
            # (fallback edges), re-routes, layer changes and coupling.
            xy = st.xy
            xy[flat.steiner_rows] = coords
            if routed:
                new_r, new_c = flatmod.routed_edge_rc(
                    flat, engine.technology, xy, route_result,
                    utilization, engine.COUPLING_K,
                )
            else:
                new_r, new_c = flatmod.preroute_edge_rc(flat, engine.technology, xy)
            diff = (new_r != st.base_r) | (new_c != st.base_c)
            dirty = np.unique(flat.edge_tree[diff])
            st.base_r, st.base_c = new_r, new_c
        else:
            # Pre-route: dirty = trees with any coordinate that changed
            # bitwise since the last query.
            dirty = self._moved_trees(
                st, st.xy[flat.steiner_rows], coords, st.xy, st.base_r, st.base_c
            )
        st.routed = routed

        self.last_dirty_trees = int(dirty.size)
        tel = get_telemetry()
        if tel.enabled:
            tel.hist("mcmm.dirty_trees", int(dirty.size))
        if dirty.size == 0:
            return
        recompute = np.zeros(pert.n_pins, dtype=bool)
        self._seed(
            st, dirty, self._wire_timing(flat, st.caps, st.base_r, st.base_c, dirty),
            [
                (g, st.wire_delay_G[g], st.wire_deg_G[g], st.net_load_G[g])
                for g in range(len(self._wire_keys))
            ],
            recompute,
        )
        if not recompute.any():
            return
        for idx, early, rows, derate in self._blocks:
            levels = propagate_from_batched(
                pert,
                st.arr_hold if early else st.arr_setup,
                st.slew_hold if early else st.slew_setup,
                st.wire_delay_G[rows], st.wire_deg_G[rows], st.net_load_G[rows],
                st.net_has_tree, derate, recompute, early=early,
            )
            if tel.enabled:
                tel.hist("mcmm.frontier_levels", levels)

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
        moved-tree and wire-timing helpers as :meth:`_incremental`, on
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
        xy, r, c = st.xy.copy(), st.base_r.copy(), st.base_c.copy()
        committed = st.xy[st.flat.steiner_rows]
        recompute = np.zeros(pert.n_pins, dtype=bool)
        for k in range(K):
            coords = np.asarray(coords_list[k], dtype=np.float64)
            dirty = self._moved_trees(st, committed, coords, xy, r, c)
            self.last_probe_dirty.append(int(dirty.size))
            if dirty.size == 0:
                continue
            targets = [
                (self._group_of[s], b["wd"][row], b["deg"][row], b["nl"][row])
                for b in blocks
                for row, s in enumerate(b["idx"], start=k * len(b["idx"]))
            ]
            self._seed(
                st, dirty, self._wire_timing(st.flat, st.caps, r, c, dirty),
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
