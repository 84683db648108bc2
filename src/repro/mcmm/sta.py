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
  bitwise.  Every incremental answer is bitwise-identical to a full
  batched rebuild.

This is the one place a timing pass is put together and finalized.
A single-corner query is simply S=1 over the neutral set
(``typ@func``): :meth:`repro.sta.engine.STAEngine.run` is a full query
of a fresh neutral ``ScenarioSTA``, and
:class:`repro.sta.incremental.IncrementalSTA` and
:func:`repro.sta.hold.run_hold_analysis` are format adapters over a
kept one.  Setup slacks have one finalizer
(:meth:`ScenarioSTA._setup_metrics`), which builds both the setup rows
of a :class:`ScenarioReport` and the single-scenario
:class:`~repro.sta.engine.TimingReport`
(:meth:`ScenarioSTA.timing_report`); required times come from the one
endpoint requirement table of :class:`~repro.sta.engine.LevelizedPins`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.groute.router import GlobalRouteResult
from repro.netlist.netlist import Netlist
from repro.obs import get_telemetry
from repro.sta import flat as flatmod
from repro.pdk.corners import DEFAULT_HOLD_TIME
from repro.sta.engine import (
    STAEngine,
    TimingReport,
    propagate_from_batched,
    propagate_levels_batched,
)
from repro.sta.hold import hold_slacks
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
    """Everything cached between batched queries."""

    flat: FlatForest
    caps: flatmod.FlatCaps  # the engine's pin caps on ``flat``
    coords: np.ndarray
    xy: np.ndarray
    routed: bool
    base_r: np.ndarray  # (E,) nominal edge resistance (dirty-diff basis)
    base_c: np.ndarray
    group_r: np.ndarray  # (G, E) derated edge R per wire group
    group_c: np.ndarray
    elmores: List[flatmod.ElmoreState]  # one per wire group
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

    Callers move Steiner points on ``forest`` and re-query; the forest's
    tree *topology* must stay fixed between queries — a topology edit
    changes the flat fingerprint and triggers a full rebuild.  Any
    exception mid-update (including a budget timeout) drops the cache
    before propagating, so an interrupted query never leaves a stale
    dirty set behind (docs/RESILIENCE.md).
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
        self.engine = engine if engine is not None else STAEngine(netlist)
        self._state: Optional[BatchState] = None
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

        # Per-scenario finalize data, derived from the engine's one
        # endpoint requirement table.
        pert = self.engine.pert()
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

    # ------------------------------------------------------------------
    def invalidate(self) -> None:
        """Drop all cached state; the next query runs a full pass.

        Call after any event that may desynchronize the cache from the
        forest — checkpoint resume, validated revert, topology edits.
        """
        self._state = None

    reset = invalidate

    def full_recompute(
        self,
        route_result: Optional[GlobalRouteResult] = None,
        utilization: Optional[np.ndarray] = None,
    ) -> ScenarioReport:
        self.invalidate()
        return self.run(route_result=route_result, utilization=utilization)

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
        coordinates (incrementally when possible) and return it.

        The returned state is live and owned by this object: read its
        ``(S_block, n_pins)`` arrays before the next query.
        """
        self.num_queries += 1
        tel = get_telemetry()
        if tel.enabled:
            tel.count("mcmm.sta_queries")
        flat = flat_forest_of(self.forest)
        coords = self.forest.get_steiner_coords()
        st = self._state
        if st is None or st.flat is not flat:
            return self._full(flat, coords, route_result, utilization)
        try:
            self._incremental(st, coords, route_result, utilization)
        except Exception:
            self._state = None
            raise
        return st

    # ------------------------------------------------------------------
    def _full(
        self,
        flat: FlatForest,
        coords: np.ndarray,
        route_result: Optional[GlobalRouteResult],
        utilization: Optional[np.ndarray],
    ) -> BatchState:
        self.num_full += 1
        self.last_dirty_trees = flat.n_trees
        tel = get_telemetry()
        if tel.enabled:
            tel.count("mcmm.full_rebuilds")
        engine = self.engine
        pert = engine.pert()
        caps = flatmod.flat_caps(flat, pert.pin_caps)
        xy = flat.node_positions(coords)
        routed = route_result is not None
        if routed:
            base_r, base_c = flatmod.routed_edge_rc(
                flat, engine.technology, xy, route_result,
                utilization, engine.COUPLING_K,
            )
        else:
            base_r, base_c = flatmod.preroute_edge_rc(flat, engine.technology, xy)

        G = len(self._wire_keys)
        n_pins = pert.n_pins
        group_r = np.empty((G, base_r.size))
        group_c = np.empty((G, base_c.size))
        elmores: List[flatmod.ElmoreState] = []
        wire_delay_G = np.zeros((G, n_pins))
        wire_deg_G = np.zeros((G, n_pins))
        net_load_G = np.empty((G, pert.n_nets))
        for g, (rd, cd) in enumerate(self._wire_keys):
            group_r[g] = base_r * rd
            group_c[g] = base_c * cd
            el = flatmod.elmore_forest(flat, caps, group_r[g], group_c[g])
            elmores.append(el)
            wire_delay_G[g, flat.sink_pin] = el.sink_delay
            wire_deg_G[g, flat.sink_pin] = el.sink_slew_deg
            net_load_G[g] = pert.lumped_net_cap
            net_load_G[g, flat.net_of_tree] = el.total_cap
        net_has_tree = np.zeros(pert.n_nets, dtype=bool)
        net_has_tree[flat.net_of_tree] = True

        st = BatchState(
            flat=flat,
            caps=caps,
            coords=np.array(coords, dtype=np.float64, copy=True),
            xy=xy,
            routed=routed,
            base_r=base_r,
            base_c=base_c,
            group_r=group_r,
            group_c=group_c,
            elmores=elmores,
            wire_delay_G=wire_delay_G,
            wire_deg_G=wire_deg_G,
            net_load_G=net_load_G,
            net_has_tree=net_has_tree,
            arr_setup=None,
            slew_setup=None,
            arr_hold=None,
            slew_hold=None,
        )
        for idx, early, rows, derate in self._blocks:
            arrival, slew = pert.launch([self._clocks[s] for s in idx])
            propagate_levels_batched(
                pert, arrival, slew, wire_delay_G[rows], wire_deg_G[rows],
                net_load_G[rows], net_has_tree, derate, early=early,
            )
            if early:
                st.arr_hold, st.slew_hold = arrival, slew
            else:
                st.arr_setup, st.slew_setup = arrival, slew
        self._state = st
        return st

    # ------------------------------------------------------------------
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

        dirty_mask = np.zeros(flat.n_trees, dtype=bool)
        if routed or st.routed:
            # Post-route (or a mode switch): per-edge RC diffing is the
            # exact dirtiness criterion — it catches coordinate moves
            # (fallback edges), re-routes, layer changes and coupling.
            xy = st.xy
            if flat.steiner_rows.size:
                xy[flat.steiner_rows] = coords[flat.steiner_flat]
            if routed:
                new_r, new_c = flatmod.routed_edge_rc(
                    flat, engine.technology, xy, route_result,
                    utilization, engine.COUPLING_K,
                )
            else:
                new_r, new_c = flatmod.preroute_edge_rc(flat, engine.technology, xy)
            diff = (new_r != st.base_r) | (new_c != st.base_c)
            dirty_mask[flat.edge_tree[diff]] = True
            st.base_r, st.base_c = new_r, new_c
            st.coords = np.array(coords, dtype=np.float64, copy=True)
        else:
            # Pre-route: dirty = trees with any coordinate that changed
            # bitwise since the last query.
            moved = np.any(coords != st.coords, axis=1)
            dirty_mask[flat.steiner_tree[moved]] = True
            coord_rows = dirty_mask[flat.steiner_tree]
            st.coords[coord_rows] = coords[coord_rows]
            xy = st.xy
            m = coord_rows[flat.steiner_flat]
            if m.any():
                xy[flat.steiner_rows[m]] = coords[flat.steiner_flat[m]]
            dirty = np.flatnonzero(dirty_mask)
            if dirty.size:
                e_rows = flat.edge_rows_of_trees(dirty)
                flatmod.preroute_edge_rc(
                    flat, engine.technology, xy,
                    edge_rows=e_rows, out_r=st.base_r, out_c=st.base_c,
                )
        st.routed = routed

        dirty = np.flatnonzero(dirty_mask)
        self.last_dirty_trees = int(dirty.size)
        tel = get_telemetry()
        if tel.enabled:
            tel.hist("mcmm.dirty_trees", int(dirty.size))
        if dirty.size == 0:
            return
        recompute = np.zeros(pert.n_pins, dtype=bool)
        e_rows = flat.edge_rows_of_trees(dirty)
        sink_sel = flat.sink_rows_of_trees(dirty)
        pins = flat.sink_pin[sink_sel]
        nets = flat.net_of_tree[dirty]
        for g, (rd, cd) in enumerate(self._wire_keys):
            # Refresh the derated rows of the dirty trees, then the
            # partial Elmore pass (bitwise-identical to full).
            st.group_r[g, e_rows] = st.base_r[e_rows] * rd
            st.group_c[g, e_rows] = st.base_c[e_rows] * cd
            el = st.elmores[g]
            flatmod.elmore_update(
                flat, st.caps, st.group_r[g], st.group_c[g], el, trees=dirty
            )
            # Seed sinks whose wire timing changed and drivers whose
            # output load changed.
            new_wd = el.sink_delay[sink_sel]
            new_deg = el.sink_slew_deg[sink_sel]
            w_ch = (st.wire_delay_G[g, pins] != new_wd) | (
                st.wire_deg_G[g, pins] != new_deg
            )
            st.wire_delay_G[g, pins] = new_wd
            st.wire_deg_G[g, pins] = new_deg
            recompute[pins[w_ch]] = True
            new_load = el.total_cap[dirty]
            l_ch = st.net_load_G[g, nets] != new_load
            st.net_load_G[g, nets] = new_load
            recompute[pert.net_driver[nets[l_ch]]] = True

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
        eps, svals = hold_slacks(arrival, eps, clock.launch_time(), requirement)
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
        blocks.  Per probe the dirty trees are re-Elmored exactly like
        :meth:`_incremental` (partial RC + ``elmore_update``), the
        mutated base-state slices are restored bit-for-bit, and one
        shared :func:`propagate_from_batched` sweep with the **union**
        recompute mask re-times every probe row at once.  Rows whose
        inputs did not change recompute to bitwise-equal values (see
        ``repro.sta.engine``), so every probe report is bitwise-identical
        to running that move alone — ``probe_batch([c])`` *is* the
        serial path, which is what makes fused and unfused serving
        byte-comparable.

        Nothing is committed: the cached state (and the forest) are
        exactly as before the call.  Returns ``(base_report, probes)``
        where ``base_report`` re-synchronizes with the forest's current
        coordinates first.  Probe reports are "light": WNS/TNS and
        violation counts only (empty slack maps).  Probing is pre-route.
        """
        base = self.run()
        st = self._state
        engine = self.engine
        pert = engine.pert()
        flat = st.flat
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

        groups_used = sorted(set(self._group_of))
        recompute = np.zeros(pert.n_pins, dtype=bool)
        try:
            for k in range(K):
                coords = np.asarray(coords_list[k], dtype=np.float64)
                moved = np.any(coords != st.coords, axis=1)
                dirty_mask = np.zeros(flat.n_trees, dtype=bool)
                dirty_mask[flat.steiner_tree[moved]] = True
                dirty = np.flatnonzero(dirty_mask)
                self.last_probe_dirty.append(int(dirty.size))
                if dirty.size == 0:
                    continue
                e_rows = flat.edge_rows_of_trees(dirty)
                node_rows = flat.node_rows_of_trees(dirty)
                sink_sel = flat.sink_rows_of_trees(dirty)
                pins = flat.sink_pin[sink_sel]
                nets = flat.net_of_tree[dirty]
                coord_rows = dirty_mask[flat.steiner_tree]
                m = coord_rows[flat.steiner_flat]
                xy_rows = flat.steiner_rows[m]

                # Save exactly the slices the probe mutates; restoring
                # them leaves the committed base state bit-identical.
                saved_xy = st.xy[xy_rows].copy()
                saved_r = st.base_r[e_rows].copy()
                saved_c = st.base_c[e_rows].copy()
                saved_groups = {}
                try:
                    st.xy[xy_rows] = coords[flat.steiner_flat[m]]
                    flatmod.preroute_edge_rc(
                        flat, engine.technology, st.xy,
                        edge_rows=e_rows, out_r=st.base_r, out_c=st.base_c,
                    )
                    for g in groups_used:
                        rd, cd = self._wire_keys[g]
                        el = st.elmores[g]
                        saved_groups[g] = (
                            st.group_r[g, e_rows].copy(),
                            st.group_c[g, e_rows].copy(),
                            el.node_cap[node_rows].copy(),
                            el.subtree_cap[node_rows].copy(),
                            el.delay[node_rows].copy(),
                            el.total_cap[dirty].copy(),
                            el.sink_delay[sink_sel].copy(),
                            el.sink_slew_deg[sink_sel].copy(),
                        )
                        st.group_r[g, e_rows] = st.base_r[e_rows] * rd
                        st.group_c[g, e_rows] = st.base_c[e_rows] * cd
                        flatmod.elmore_update(
                            flat, st.caps, st.group_r[g], st.group_c[g], el,
                            trees=dirty,
                        )
                    for block in blocks:
                        S = len(block["idx"])
                        for row_s, s in enumerate(block["idx"]):
                            g = self._group_of[s]
                            el = st.elmores[g]
                            row = k * S + row_s
                            new_wd = el.sink_delay[sink_sel]
                            new_deg = el.sink_slew_deg[sink_sel]
                            w_ch = (st.wire_delay_G[g, pins] != new_wd) | (
                                st.wire_deg_G[g, pins] != new_deg
                            )
                            block["wd"][row, pins] = new_wd
                            block["deg"][row, pins] = new_deg
                            recompute[pins[w_ch]] = True
                            new_load = el.total_cap[dirty]
                            l_ch = st.net_load_G[g, nets] != new_load
                            block["nl"][row, nets] = new_load
                            recompute[pert.net_driver[nets[l_ch]]] = True
                finally:
                    for g, sv in saved_groups.items():
                        el = st.elmores[g]
                        st.group_r[g, e_rows] = sv[0]
                        st.group_c[g, e_rows] = sv[1]
                        el.node_cap[node_rows] = sv[2]
                        el.subtree_cap[node_rows] = sv[3]
                        el.delay[node_rows] = sv[4]
                        el.total_cap[dirty] = sv[5]
                        el.sink_delay[sink_sel] = sv[6]
                        el.sink_slew_deg[sink_sel] = sv[7]
                    st.base_r[e_rows] = saved_r
                    st.base_c[e_rows] = saved_c
                    st.xy[xy_rows] = saved_xy

            if recompute.any():
                for block in blocks:
                    propagate_from_batched(
                        pert, block["arr"], block["slew"], block["wd"],
                        block["deg"], block["nl"], st.net_has_tree,
                        block["derate"], recompute, early=block["early"],
                    )
        except Exception:
            # Same safety contract as run(): never keep possibly
            # half-restored state behind an exception.
            self._state = None
            raise

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
