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

This is the repo's only incremental timing engine.  A single-corner
query is simply S=1: the neutral set (``typ@func``) runs the same
batched kernels and reproduces ``STAEngine.run`` bit for bit, and
:class:`repro.sta.incremental.IncrementalSTA` and
:func:`repro.sta.hold.run_hold_analysis` are format adapters over it.
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
    launch_arrays_batched,
    propagate_from_batched,
    propagate_levels_batched,
)
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

    flat: flatmod.FlatForest
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

        # Per-scenario finalize data.
        pert = self.engine.pert()
        self._setup_req: List[np.ndarray] = []
        self._setup_enabled: List[Optional[np.ndarray]] = []
        for s in self._setup_idx:
            sc = self.scenarios[s]
            self._setup_req.append(self._required_array(sc))
            self._setup_enabled.append(self._enabled_mask(sc, pert.endpoints_arr))
        #: Hold endpoints: register data pins in register iteration order.
        hold_ep: List[int] = []
        for cell in netlist.registers():
            ct = cell.cell_type
            for in_name in ct.input_pins:
                if in_name != ct.clock_pin:
                    hold_ep.append(cell.pin_indices[in_name])
        self.hold_endpoints = np.array(hold_ep, dtype=np.int64)
        self._hold_enabled: List[Optional[np.ndarray]] = [
            self._enabled_mask(self.scenarios[s], self.hold_endpoints)
            for s in self._hold_idx
        ]

    # ------------------------------------------------------------------
    def _required_array(self, sc: Scenario) -> np.ndarray:
        """Per-endpoint required times under one setup scenario, aligned
        with ``pert.endpoints_arr`` (the engine's endpoint order)."""
        clock = sc.clock(self.netlist.clock)
        margin = sc.corner.setup_margin
        req: Dict[int, float] = {}
        for cell in self.netlist.registers():
            ct = cell.cell_type
            for in_name in ct.input_pins:
                if in_name != ct.clock_pin:
                    req[cell.pin_indices[in_name]] = clock.required_at_register(
                        ct.setup_time + margin
                    )
        for port in self.netlist.primary_outputs():
            req[port.index] = clock.required_at_output()
        return np.array(
            [req[ep] for ep in self.engine._endpoints], dtype=np.float64
        )

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
        pert = self.engine.pert()
        flat = flatmod.flat_forest_of(self.forest, pert.pin_caps)
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
        flat: flatmod.FlatForest,
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
        xy = flatmod.node_positions(flat, coords)
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
            el = flatmod.elmore_forest(flat, group_r[g], group_c[g])
            elmores.append(el)
            wire_delay_G[g, flat.sink_pin] = el.sink_delay
            wire_deg_G[g, flat.sink_pin] = el.sink_slew_deg
            net_load_G[g] = pert.lumped_net_cap
            net_load_G[g, flat.net_of_tree] = el.total_cap
        net_has_tree = np.zeros(pert.n_nets, dtype=bool)
        net_has_tree[flat.net_of_tree] = True

        st = BatchState(
            flat=flat,
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
            arrival, slew = launch_arrays_batched(
                engine, [self._clocks[s] for s in idx]
            )
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
                flat, st.group_r[g], st.group_c[g], el, trees=dirty
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
        pert = self.engine.pert()
        metrics: List[Optional[ScenarioMetrics]] = [None] * len(self.scenarios)
        for row, s in enumerate(self._setup_idx):
            sc = self.scenarios[s]
            clock = self._clocks[s]
            launch = clock.launch_time()
            arrival = arr_setup[row]
            req_arr = self._setup_req[row]
            eps = pert.endpoints_arr
            arr_ep = arrival[eps]
            nan_ep = np.isnan(arr_ep)
            svals = np.where(nan_ep, req_arr - launch, req_arr - arr_ep)
            enabled = self._setup_enabled[row]
            if enabled is not None:
                eps = eps[enabled]
                svals = svals[enabled]
            if light:
                slack: Dict[int, float] = {}
            else:
                slack = {int(ep): float(v) for ep, v in zip(eps, svals)}
            wns = float(svals.min()) if svals.size else 0.0
            neg = np.minimum(svals, 0.0)
            tns = float(neg.sum()) if svals.size else 0.0
            vios = int(np.count_nonzero(svals < 0.0))
            metrics[s] = ScenarioMetrics(
                name=sc.name, check="setup", wns=wns, tns=tns,
                num_violations=vios, slack=slack,
                arrival=arrival if light else arrival.copy(),
            )
        for row, s in enumerate(self._hold_idx):
            sc = self.scenarios[s]
            clock = self._clocks[s]
            launch = clock.launch_time()
            requirement = DEFAULT_HOLD_TIME + sc.corner.hold_margin + clock.uncertainty
            arrival = arr_hold[row]
            eps = self.hold_endpoints
            enabled = self._hold_enabled[row]
            if enabled is not None:
                eps = eps[enabled]
            arr_ep = arrival[eps]
            ok = ~np.isnan(arr_ep)
            svals = arr_ep[ok] - launch - requirement
            if light:
                slack = {}
            else:
                slack = {int(ep): float(v) for ep, v in zip(eps[ok], svals)}
            whs = float(svals.min()) if svals.size else 0.0
            neg = np.minimum(svals, 0.0)
            tns = float(neg.sum()) if svals.size else 0.0
            vios = int(np.count_nonzero(svals < 0.0))
            metrics[s] = ScenarioMetrics(
                name=sc.name, check="hold", wns=whs, tns=tns,
                num_violations=vios, slack=slack,
                arrival=arrival if light else arrival.copy(),
            )
        return ScenarioReport.merge([m for m in metrics if m is not None])

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
                            flat, st.group_r[g], st.group_c[g], el, trees=dirty
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
