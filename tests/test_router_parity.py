"""Bitwise parity of the array-backed global router with its scalar oracle.

:class:`repro.groute.router.GlobalRouter` reads congestion costs from
one live per-edge table, runs Dijkstra over integer nodes and returns a
columnar :class:`GlobalRouteResult`;
:class:`repro.testing.oracles.ReferenceGlobalRouter` is the scalar form
(one ``GCellGrid.edge_cost`` call per relaxed edge, ``(x, y)`` tuple
nodes, one ``SegmentRoute`` object per segment).  Row ``i`` of the
columns must be the oracle's ``i``-th segment — key, net, path points,
float64 lengths bit for bit, bends — and after layer assignment
(production columns vs the oracle's per-segment loop) the same layers
and vias.  Overflow, wirelength, maze count and ``timed_out`` must
agree, and both must leave the same usage and history arrays on the
grid.  A :class:`RouteMemo` replay is held to the same standard against
a fresh route.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.refine import RefinementConfig
from repro.flow.pipeline import prepare_design, run_routing_flow
from repro.groute.flat_route import cost_fields
from repro.groute.layer_assign import assign_layers
from repro.groute.router import GlobalRouter, RouteMemo, RouterConfig, _CostTable
from repro.obs import Telemetry
from repro.pdk.technology import default_technology
from repro.routegrid.grid import GCellGrid
from repro.steiner import construct_trees_flat
from repro.steiner.forest import SteinerForest
from repro.steiner.tree import SteinerTree
from repro.testing.oracles import ReferenceGlobalRouter, reference_assign_layers

GRID_ARRAYS = ("use_h", "use_v", "hist_h", "hist_v")


class _Countdown:
    """Budget stand-in that expires on its ``n``-th ``expired()`` call."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.calls = 0

    def expired(self) -> bool:
        self.calls += 1
        return self.calls >= self.n


def _floats(values):
    return np.array(values, dtype=np.float64).tobytes()


def _assert_results_equal(new, ref, forest):
    """Columnar ``new`` row by row against the oracle's segments."""
    segs = list(ref.segments.values())
    assert new.keys() == list(ref.segments)
    base = np.cumsum([0] + [len(t.edges) for t in forest.trees])
    assert new.edge.tolist() == (base[new.tree] + new.local).tolist()
    assert new.net.tolist() == [s.net_index for s in segs]
    assert [new.path(i) for i in range(new.num_segments)] == [s.path for s in segs]
    assert new.h_length.dtype == new.v_length.dtype == np.float64
    assert new.h_length.tobytes() == _floats([s.h_length for s in segs])
    assert new.v_length.tobytes() == _floats([s.v_length for s in segs])
    assert new.bends.tolist() == [s.bends for s in segs]
    assert new.h_layer.tolist() == [s.h_layer for s in segs]
    assert new.v_layer.tolist() == [s.v_layer for s in segs]
    assert new.vias.tolist() == [s.vias for s in segs]
    assert new.overflow == ref.overflow
    assert new.max_utilization == ref.max_utilization
    assert new.total_wirelength == ref.total_wirelength
    assert type(new.total_wirelength) is type(ref.total_wirelength)
    assert new.maze_routed == ref.maze_routed
    assert new.timed_out == ref.timed_out


COLUMNS = (
    "edge", "tree", "local", "net", "h_length", "v_length", "bends",
    "xs", "ys", "offsets", "h_layer", "v_layer", "vias",
)


def _assert_same_route(a, b):
    """Two columnar results, column by column (dtypes included)."""
    for name in COLUMNS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
    for name in ("overflow", "max_utilization", "total_wirelength", "maze_routed", "timed_out"):
        assert getattr(a, name) == getattr(b, name), name


def _route_both(make_grid, forest, config=None, budget=None, memo=None):
    """Route ``forest`` with both routers, assign layers with both
    layer assigners and compare; returns the production result and grid."""
    grids = (make_grid(), make_grid())
    new = GlobalRouter(grids[0], config, memo=memo).route(
        forest, budget=budget() if budget else None
    )
    ref = ReferenceGlobalRouter(grids[1], config).route(
        forest, budget=budget() if budget else None
    )
    _assert_results_equal(new, ref, forest)
    area = grids[0].nx * grids[0].ny
    tech = grids[0].technology
    assign_layers(new, tech, area)
    reference_assign_layers(ref, tech, area)
    _assert_results_equal(new, ref, forest)
    for name in GRID_ARRAYS:
        np.testing.assert_array_equal(getattr(grids[0], name), getattr(grids[1], name))
    return new, grids[0]


def _forest_from(nets):
    pos = np.array([p for net in nets for p in net], dtype=np.float64).reshape(-1, 2)
    net_pins, base = [], 0
    for net in nets:
        net_pins.append(list(range(base, base + len(net))))
        base += len(net)
    trees = construct_trees_flat(list(range(len(nets))), net_pins, pos)
    # The router only reads forest.trees; no netlist needed.
    return SteinerForest(None, trees)


COORD = st.floats(min_value=0.0, max_value=60.0, allow_nan=False, width=64)
NETS = st.lists(st.lists(st.tuples(COORD, COORD), min_size=2, max_size=8), min_size=1, max_size=24)
CONFIGS = st.builds(
    RouterConfig,
    overflow_penalty=st.sampled_from([8.0, 2.0]),
    zshape_candidates=st.sampled_from([4, 2]),
    congestion_threshold=st.sampled_from([2.5, 1.2]),
    ripup_rounds=st.sampled_from([2, 3]),
)


class TestRandomForests:
    @settings(max_examples=60, deadline=None)
    @given(
        NETS,
        st.sampled_from([(60.0, 60.0), (30.0, 48.0), (6.0, 60.0), (60.0, 6.0)]),
        st.sampled_from([0.7, 0.05, 0.01]),
        st.integers(0, 2**16),
        CONFIGS,
    )
    def test_bitwise_equal(self, nets, die, derate, seed, config):
        """Including congested dies (small derate) and Steiner points
        perturbed off-grid and off-die (``locate`` clamps them)."""
        forest = _forest_from(nets)
        coords = forest.get_steiner_coords()
        if coords.size:
            rng = np.random.default_rng(seed)
            forest.set_steiner_coords(coords + rng.normal(0.0, 8.0, coords.shape))
        tech = default_technology()
        _route_both(lambda: GCellGrid(die[0], die[1], tech, derate=derate), forest, config)

    @settings(max_examples=25, deadline=None)
    @given(NETS, st.integers(1, 12))
    def test_budget_expiry_bitwise_equal(self, nets, expire_at):
        forest = _forest_from(nets)
        tech = default_technology()
        _route_both(
            lambda: GCellGrid(60.0, 60.0, tech, derate=0.02),
            forest,
            budget=lambda: _Countdown(expire_at),
        )


class TestDegenerateForests:
    def test_same_gcell_segments(self):
        """A segment whose ends share a GCell routes as one path point:
        no grid steps, no detour, and a sub-GCell L still bends once."""
        forest = _forest_from(
            [[(13.0, 1.0), (13.0, 5.5)], [(2.0, 2.0), (50.0, 40.0), (3.0, 4.0)]]
        )
        # A diagonal two-pin edge inside one GCell (no Steiner corner).
        pin_xy = np.array([[1.0, 1.0], [4.5, 5.0]])
        diagonal = SteinerTree(2, [90, 91], pin_xy, np.zeros((0, 2)), edges=[(0, 1)])
        forest = SteinerForest(None, [diagonal] + forest.trees)
        tech = default_technology()
        result, _ = _route_both(lambda: GCellGrid(60.0, 60.0, tech), forest)
        single = np.flatnonzero(np.diff(result.offsets.astype(np.int64)) == 1)
        assert single.size >= 3
        rows = dict(zip(result.keys(), range(result.num_segments)))
        assert result.bends[rows[(0, 0)]] == 1 and result.bends[rows[(1, 0)]] == 0
        assert result.h_length[rows[(0, 0)]] == 3.5 and result.v_length[rows[(0, 0)]] == 4.0

    def test_edgeless_and_empty_forests(self):
        tech = default_technology()
        for forest in (_forest_from([[(1.0, 1.0)], [(20.0, 30.0)]]), SteinerForest(None, [])):
            result, _ = _route_both(lambda: GCellGrid(60.0, 60.0, tech), forest)
            assert result.num_segments == 0 and result.offsets.tolist() == [0]
            assert result.total_wirelength == 0 and result.maze_routed == 0


class TestRealDesign:
    def test_picorv32a_bitwise_equal(self):
        netlist, forest = prepare_design("picorv32a")
        result, _ = _route_both(
            lambda: GCellGrid(netlist.die_width, netlist.die_height, netlist.technology),
            forest,
        )
        assert result.maze_routed > 0 and result.overflow > 0

    def test_budget_expiring_mid_ripup_round(self):
        """The rip-up round polls the budget every 64 victims, so it stops
        within 64 forced mazes of expiry instead of finishing the round."""
        netlist, forest = prepare_design("picorv32a")

        def make_grid():
            return GCellGrid(netlist.die_width, netlist.die_height, netlist.technology)

        first_pass_polls = -(-forest.num_edges // 64)
        # Polls: the first pass, the first round's start, then victim 64.
        expire_at = first_pass_polls + 2
        full = GlobalRouter(make_grid()).route(forest)
        probe = _Countdown(10**9)
        GlobalRouter(make_grid()).route(forest, budget=probe)
        assert probe.calls > expire_at  # the round really has more than 64 victims
        result, grid = _route_both(make_grid, forest, budget=lambda: _Countdown(expire_at))
        assert result.timed_out
        first_pass_mazes = GlobalRouter(make_grid(), RouterConfig(ripup_rounds=0)).route(
            forest
        ).maze_routed
        assert result.maze_routed == first_pass_mazes + 64 < full.maze_routed
        assert result.num_segments == forest.num_edges
        expected_h = np.zeros_like(grid.use_h)
        expected_v = np.zeros_like(grid.use_v)
        for row in range(result.num_segments):
            path = result.path(row)
            for (x1, y1), (x2, y2) in zip(path, path[1:]):
                if y1 == y2:
                    expected_h[min(x1, x2), y1] += 1
                else:
                    expected_v[x1, min(y1, y2)] += 1
        np.testing.assert_array_equal(grid.use_h, expected_h)
        np.testing.assert_array_equal(grid.use_v, expected_v)


def _assert_grids_equal(a, b):
    for name in GRID_ARRAYS:
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


class TestRouteMemo:
    @pytest.fixture(scope="class")
    def picorv(self):
        netlist, forest = prepare_design("picorv32a")

        def make_grid():
            return GCellGrid(netlist.die_width, netlist.die_height, netlist.technology)

        return forest, make_grid

    def test_sub_gcell_move_replays_a_fresh_route(self, picorv):
        """Moving every Steiner point inside its GCell keeps the memo key;
        the replay re-measures with the new um deltas and matches a fresh
        route on a fresh grid, arrays included."""
        forest, make_grid = picorv
        memo = RouteMemo()
        first = GlobalRouter(make_grid(), memo=memo).route(forest)
        assert not first.memo_hit and len(memo) == 1

        grid = make_grid()
        coords = forest.get_steiner_coords()
        cell = np.clip(np.floor(coords / grid.gcell), 0, [[grid.nx - 1, grid.ny - 1]])
        frac = np.random.default_rng(7).uniform(0.05, 0.95, coords.shape)
        moved = forest.copy()
        moved.set_steiner_coords((cell + frac) * grid.gcell)

        hit = GlobalRouter(grid, memo=memo).route(moved)
        fresh_grid = make_grid()
        fresh = GlobalRouter(fresh_grid).route(moved)
        assert hit.memo_hit and not fresh.memo_hit and len(memo) == 1
        assert fresh.maze_routed > 0 and fresh.overflow > 0
        _assert_same_route(hit, fresh)
        _assert_grids_equal(grid, fresh_grid)
        assert hit.total_wirelength != first.total_wirelength  # re-measured
        # The hit hands over the memo's path arrays, read-only.
        assert hit.xs is first.xs and hit.offsets is first.offsets
        assert not hit.xs.flags.writeable

        # And row by row against the scalar oracle, layers included.
        replay, _ = _route_both(make_grid, moved, memo=memo)
        assert replay.memo_hit

    def test_timed_out_route_is_not_stored(self, picorv):
        forest, make_grid = picorv
        memo = RouteMemo()
        degraded = GlobalRouter(make_grid(), memo=memo).route(forest, budget=_Countdown(2))
        assert degraded.timed_out and len(memo) == 0
        grid, fresh_grid = make_grid(), make_grid()
        full = GlobalRouter(grid, memo=memo).route(forest)
        assert not full.memo_hit and not full.timed_out and len(memo) == 1
        _assert_same_route(full, GlobalRouter(fresh_grid).route(forest))
        _assert_grids_equal(grid, fresh_grid)

    def test_hit_under_an_expired_budget_routes_afresh(self, picorv):
        forest, make_grid = picorv
        memo = RouteMemo()
        GlobalRouter(make_grid(), memo=memo).route(forest)
        late = GlobalRouter(make_grid(), memo=memo).route(forest, budget=_Countdown(1))
        assert late.timed_out and not late.memo_hit
        _assert_same_route(
            late, GlobalRouter(make_grid()).route(forest, budget=_Countdown(1))
        )

    def test_layer_assignment_on_a_hit_leaves_the_memo_alone(self, picorv):
        """``assign_layers`` writes fresh layer columns; the shared path
        arrays are read-only, so the next hit returns what the first did."""
        forest, make_grid = picorv
        memo = RouteMemo()
        first = GlobalRouter(make_grid(), memo=memo).route(forest)
        hit = GlobalRouter(make_grid(), memo=memo).route(forest)
        assert hit.memo_hit
        _assert_same_route(hit, first)
        tech = make_grid().technology
        assign_layers(hit, tech, make_grid().nx * make_grid().ny)
        assert (hit.h_layer != 2).any() and hit.vias.any()
        with pytest.raises(ValueError):
            hit.xs[0] = 0
        with pytest.raises(ValueError):
            hit.offsets[-1] = 0
        again = GlobalRouter(make_grid(), memo=memo).route(forest)
        assert again.memo_hit
        _assert_same_route(again, first)
        assert again.h_layer is not hit.h_layer


class TestFlowMemo:
    """The memo lives for one ``run_routing_flow`` call: probes and the
    final GR share it, and the probes route under the flow's config."""

    @pytest.fixture(scope="class")
    def spm(self):
        from repro.timing_model.model import EvaluatorConfig, TimingEvaluator

        netlist, forest = prepare_design("spm")
        return netlist, forest, TimingEvaluator(EvaluatorConfig(hidden=8))

    def _run(self, spm, monkeypatch, router_config=None, telemetry=None):
        netlist, forest, model = spm
        lookups, configs = [], []
        lookup, route = RouteMemo.lookup, GlobalRouter.route

        def spy_lookup(self, key, budget=None):
            entry = lookup(self, key, budget)
            lookups.append((self, key, entry is not None))
            return entry

        def spy_route(self, forest, budget=None):
            configs.append(self.config)
            return route(self, forest, budget)

        monkeypatch.setattr(RouteMemo, "lookup", spy_lookup)
        monkeypatch.setattr(GlobalRouter, "route", spy_route)
        result = run_routing_flow(
            netlist,
            forest,
            model=model,
            refinement_config=RefinementConfig(
                max_iterations=4, validate_every=2, polish_probes=3
            ),
            router_config=router_config,
            telemetry=telemetry,
        )
        monkeypatch.undo()
        assert not result.stage_errors
        return result, lookups, configs

    def test_back_to_back_flows_share_nothing(self, spm, monkeypatch, tmp_path):
        with Telemetry(path=str(tmp_path / "t.jsonl")) as tel:
            first, calls_1, _ = self._run(spm, monkeypatch, telemetry=tel)
            hits = sum(hit for _, _, hit in calls_1)
            assert tel.counters.get("groute.memo_hits", 0) == hits
            assert tel.counters.get("groute.memo_misses", 0) == len(calls_1) - hits
        _, calls_2, _ = self._run(spm, monkeypatch)
        # Probes and the final GR of one call share one memo, and the
        # final GR replays the validated anchor's probe route.
        assert len({id(memo) for memo, _, _ in calls_1}) == 1
        assert first.route_result.memo_hit and calls_1[-1][2]
        # The second call starts from the same forest, so its first key
        # was routed by the first call; a longer-lived memo would hit.
        assert calls_2[0][1] == calls_1[0][1]
        assert not calls_2[0][2]
        assert calls_2[0][0] is not calls_1[0][0]

    def test_probes_route_under_the_flow_config(self, spm, monkeypatch):
        config = RouterConfig(ripup_rounds=1, zshape_candidates=2)
        _, lookups, configs = self._run(spm, monkeypatch, router_config=config)
        assert len(configs) == len(lookups) > 1
        assert all(c == config for c in configs)


class TestCostTable:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**16),
        st.sampled_from([8.0, 2.0, 0.5]),
        st.sampled_from([0.7, 0.05]),
    )
    def test_commit_matches_cost_fields(self, seed, penalty, derate):
        """Edge-by-edge cost updates equal a whole-grid recompute, and the
        whole-grid fields equal the scalar ``edge_cost``."""
        rng = np.random.default_rng(seed)
        grid = GCellGrid(60.0, 42.0, default_technology(), derate=derate)
        grid.use_h[:] = rng.integers(0, 30, grid.use_h.shape)
        grid.use_v[:] = rng.integers(0, 30, grid.use_v.shape)
        grid.hist_h[:] = rng.integers(0, 3, grid.hist_h.shape) * 0.5
        table = _CostTable(grid, penalty)
        ids = rng.integers(0, len(table.cost), 200).tolist()
        table.commit(ids, 1.0)
        table.commit(ids[::3], -1.0)
        table.store()
        cost_h, cost_v = cost_fields(grid, penalty)
        assert table.cost == cost_h.ravel().tolist() + cost_v.ravel().tolist()
        for (i, j), c in np.ndenumerate(cost_h):
            assert c == grid.edge_cost("H", i, j, penalty)
        for (i, j), c in np.ndenumerate(cost_v):
            assert c == grid.edge_cost("V", i, j, penalty)

    def test_direct_maze_after_route_sees_current_grid(self):
        netlist, forest = prepare_design("APU")
        grids = [GCellGrid(netlist.die_width, netlist.die_height, netlist.technology) for _ in "ab"]
        routers = (GlobalRouter(grids[0]), ReferenceGlobalRouter(grids[1]))
        for router, grid in zip(routers, grids):
            router.route(forest)
            grid.use_h[2, :] += 40.0
        p1, p2 = (0, 1), (grids[0].nx - 1, grids[0].ny - 2)
        assert routers[0]._maze(p1, p2) == routers[1]._maze(p1, p2)


def test_oracle_is_imported_by_tests_only():
    """Tests and the perf bench (which times kernels against their
    oracles) are the only importers; tests/test_import_boundary.py holds
    the AST form of this check."""
    import re
    from pathlib import Path

    import repro

    package = Path(repro.__file__).parent
    pattern = re.compile(r"^\s*(from|import)\s+repro\.testing", re.MULTILINE)
    importers = [
        p.relative_to(package)
        for p in package.rglob("*.py")
        if p.parent.name not in ("testing", "bench") and pattern.search(p.read_text())
    ]
    assert importers == []
