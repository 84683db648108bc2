"""Bitwise parity of the array-backed global router with its scalar oracle.

:class:`repro.groute.router.GlobalRouter` reads congestion costs from
one live per-edge table and runs Dijkstra over integer nodes;
:class:`repro.testing.oracles.ReferenceGlobalRouter` is the scalar form
(one ``GCellGrid.edge_cost`` call per relaxed edge, ``(x, y)`` tuple
nodes).  Both must return the same :class:`GlobalRouteResult` field by
field — paths, lengths, bends, overflow, wirelength, maze count,
``timed_out`` — and leave the same usage and history arrays on the grid.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flow.pipeline import prepare_design
from repro.groute.flat_route import cost_fields
from repro.groute.router import GlobalRouter, RouterConfig, _CostTable
from repro.pdk.technology import default_technology
from repro.routegrid.grid import GCellGrid
from repro.steiner import construct_trees_flat
from repro.steiner.forest import SteinerForest
from repro.testing.oracles import ReferenceGlobalRouter

GRID_ARRAYS = ("use_h", "use_v", "hist_h", "hist_v")


class _Countdown:
    """Budget stand-in that expires on its ``n``-th ``expired()`` call."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.calls = 0

    def expired(self) -> bool:
        self.calls += 1
        return self.calls >= self.n


def _assert_results_equal(new, ref):
    assert list(new.segments) == list(ref.segments)
    for key, seg in new.segments.items():
        other = ref.segments[key]
        assert seg.key == other.key and seg.net_index == other.net_index
        assert seg.path == other.path
        # Same element types too: Z-shape interiors carry numpy ints.
        assert [type(v) for p in seg.path for v in p] == [
            type(v) for p in other.path for v in p
        ]
        assert seg.h_length == other.h_length and seg.v_length == other.v_length
        assert type(seg.h_length) is type(other.h_length)
        assert type(seg.v_length) is type(other.v_length)
        assert seg.bends == other.bends
    assert new.overflow == ref.overflow
    assert new.max_utilization == ref.max_utilization
    assert new.total_wirelength == ref.total_wirelength
    assert new.maze_routed == ref.maze_routed
    assert new.timed_out == ref.timed_out


def _route_both(make_grid, forest, config=None, budget=None):
    grids = (make_grid(), make_grid())
    new = GlobalRouter(grids[0], config).route(forest, budget=budget() if budget else None)
    ref = ReferenceGlobalRouter(grids[1], config).route(
        forest, budget=budget() if budget else None
    )
    _assert_results_equal(new, ref)
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
        assert len(result.segments) == forest.num_edges
        expected_h = np.zeros_like(grid.use_h)
        expected_v = np.zeros_like(grid.use_v)
        for seg in result.segments.values():
            for (x1, y1), (x2, y2) in zip(seg.path, seg.path[1:]):
                if y1 == y2:
                    expected_h[min(x1, x2), y1] += 1
                else:
                    expected_v[x1, min(y1, y2)] += 1
        np.testing.assert_array_equal(grid.use_h, expected_h)
        np.testing.assert_array_equal(grid.use_v, expected_v)


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
