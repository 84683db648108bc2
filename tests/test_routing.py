"""Tests for the GCell grid, global router, layer assignment and droute."""

import numpy as np
import pytest

from repro.droute.detailed import DetailedRouter, DetailedRouterConfig
from repro.groute.layer_assign import assign_layers
from repro.groute.router import GlobalRouter, RouterConfig
from repro.netlist.generator import GeneratorConfig, generate_netlist
from repro.pdk.technology import default_technology
from repro.placement import place
from repro.routegrid.grid import GCellGrid
from repro.steiner import build_forest


@pytest.fixture(scope="module")
def routed():
    nl = generate_netlist(
        GeneratorConfig(name="r", n_registers=8, n_comb=60, depth=6, seed=6)
    )
    place(nl)
    forest = build_forest(nl)
    grid = GCellGrid(nl.die_width, nl.die_height, nl.technology)
    router = GlobalRouter(grid)
    result = router.route(forest)
    assign_layers(result, nl.technology, grid.nx * grid.ny)
    return nl, forest, grid, result


class TestGCellGrid:
    def make_grid(self):
        return GCellGrid(60.0, 60.0, default_technology())

    def test_dimensions(self):
        grid = self.make_grid()
        assert grid.nx == 10 and grid.ny == 10

    def test_locate_clamps(self):
        grid = self.make_grid()
        assert grid.locate(-5.0, -5.0) == (0, 0)
        assert grid.locate(999.0, 999.0) == (grid.nx - 1, grid.ny - 1)

    def test_center_roundtrip(self):
        grid = self.make_grid()
        cx, cy = grid.center(3, 4)
        assert grid.locate(cx, cy) == (3, 4)

    def test_usage_accounting(self):
        grid = self.make_grid()
        grid.add_usage("H", 2, 3, 2.0)
        assert grid.use_h[2, 3] == 2.0
        grid.add_usage("H", 2, 3, -1.0)
        assert grid.use_h[2, 3] == 1.0

    def test_edge_cost_grows_with_congestion(self):
        grid = self.make_grid()
        base = grid.edge_cost("H", 0, 0)
        grid.use_h[0, 0] = grid.cap_h[0, 0] * 1.5
        assert grid.edge_cost("H", 0, 0) > base

    def test_overflow_zero_when_under_capacity(self):
        grid = self.make_grid()
        grid.use_h[0, 0] = grid.cap_h[0, 0] * 0.5
        assert grid.overflow() == 0.0

    def test_overflow_counts_excess(self):
        grid = self.make_grid()
        grid.use_v[1, 1] = grid.cap_v[1, 1] + 3.0
        assert abs(grid.overflow() - 3.0) < 1e-9

    def test_history_bumps_only_overflowed(self):
        grid = self.make_grid()
        grid.use_h[0, 0] = grid.cap_h[0, 0] + 1.0
        grid.bump_history(0.5)
        assert grid.hist_h[0, 0] == 0.5
        assert grid.hist_h[1, 1] == 0.0

    def test_runs(self):
        grid = self.make_grid()
        h_edges = list(grid.horizontal_run(2, 1, 4))
        assert h_edges == [("H", 1, 2), ("H", 2, 2), ("H", 3, 2)]
        v_edges = list(grid.vertical_run(5, 3, 1))
        assert v_edges == [("V", 5, 1), ("V", 5, 2)]

    def test_utilization_map_range(self):
        grid = self.make_grid()
        grid.use_h[:] = grid.cap_h * 0.5
        util = grid.utilization_map()
        assert util.shape == (grid.nx, grid.ny)
        assert np.all(util >= 0.0)
        assert util.max() <= 0.5 + 1e-9

    def test_reset(self):
        grid = self.make_grid()
        grid.use_h[0, 0] = 5.0
        grid.hist_v[0, 0] = 1.0
        grid.reset_usage()
        assert grid.use_h.sum() == 0.0
        assert grid.hist_v.sum() == 0.0


class TestGlobalRouter:
    def test_all_segments_routed(self, routed):
        nl, forest, grid, result = routed
        assert result.num_segments == forest.num_edges
        assert sorted(result.edge.tolist()) == list(range(forest.num_edges))

    def test_paths_connect_endpoints(self, routed):
        nl, forest, grid, result = routed
        for row, (t_idx, e_idx) in enumerate(result.keys()):
            tree = forest.trees[t_idx]
            xy = tree.node_xy()
            u, v = tree.edges[e_idx]
            p1 = grid.locate(*xy[u])
            p2 = grid.locate(*xy[v])
            path = result.path(row)
            assert {path[0], path[-1]} == {p1, p2} or path[0] == path[-1] == p1

    def test_paths_are_grid_connected(self, routed):
        _, _, _, result = routed
        for row in range(result.num_segments):
            path = result.path(row)
            for (x1, y1), (x2, y2) in zip(path, path[1:]):
                assert abs(x1 - x2) + abs(y1 - y2) == 1

    def test_lengths_at_least_manhattan(self, routed):
        nl, forest, grid, result = routed
        for row, (t_idx, e_idx) in enumerate(result.keys()):
            tree = forest.trees[t_idx]
            xy = tree.node_xy()
            u, v = tree.edges[e_idx]
            manhattan = float(np.abs(xy[u] - xy[v]).sum())
            assert result.length[row] >= manhattan - 1e-9

    def test_deterministic(self, routed):
        nl, forest, grid, result = routed
        grid2 = GCellGrid(nl.die_width, nl.die_height, nl.technology)
        result2 = GlobalRouter(grid2).route(forest)
        assert result.total_wirelength == result2.total_wirelength
        assert result.overflow == result2.overflow

    def test_usage_matches_committed_paths(self, routed):
        nl, forest, grid, result = routed
        expected_h = np.zeros_like(grid.use_h)
        expected_v = np.zeros_like(grid.use_v)
        for row in range(result.num_segments):
            path = result.path(row)
            for (x1, y1), (x2, y2) in zip(path, path[1:]):
                if y1 == y2:
                    expected_h[min(x1, x2), y1] += 1
                else:
                    expected_v[x1, min(y1, y2)] += 1
        assert np.allclose(grid.use_h, expected_h)
        assert np.allclose(grid.use_v, expected_v)

    def test_maze_routes_around_blockage(self):
        tech = default_technology()
        grid = GCellGrid(60.0, 60.0, tech)
        # Saturate a vertical wall except one gap.
        grid.use_h[4, :] = grid.cap_h[4, :] * 10
        grid.use_h[4, 0] = 0.0
        router = GlobalRouter(grid)
        path = router._maze((0, 5), (9, 5))
        assert path[0] == (0, 5) and path[-1] == (9, 5)
        crossings = [(x1, y1) for (x1, y1), (x2, y2) in zip(path, path[1:]) if y1 == y2 and min(x1, x2) == 4]
        assert all(y == 0 for _, y in crossings)

    def test_maze_uses_configured_overflow_penalty(self):
        from scipy.sparse import coo_matrix
        from scipy.sparse.csgraph import dijkstra

        from repro.groute.flat_route import cost_fields

        grid = GCellGrid(60.0, 60.0, default_technology())
        # An overflowed wall (utilization 2.5) with a free gap on row 0:
        # crossing costs 1 + p * 1.5**2 extra, the detour 10 extra edges.
        # At p=2 the straight crossing is cheaper, at the default p=8 the
        # detour is.
        grid.use_h[4, :] = grid.cap_h[4, :] * 2.5 - 1.0
        grid.use_h[4, 0] = 0.0
        router = GlobalRouter(grid, RouterConfig(overflow_penalty=2.0))
        path = router._maze((0, 5), (9, 5))
        assert path == [(x, 5) for x in range(10)]

        ny = grid.ny
        cost_h, cost_v = cost_fields(grid, 2.0)
        rows, cols, vals = [], [], []
        for (i, j), c in np.ndenumerate(cost_h):
            rows.append(i * ny + j), cols.append((i + 1) * ny + j), vals.append(c)
        for (i, j), c in np.ndenumerate(cost_v):
            rows.append(i * ny + j), cols.append(i * ny + j + 1), vals.append(c)
        n = grid.nx * ny
        graph = coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
        dist = dijkstra(graph, directed=False, indices=5)[9 * ny + 5]
        assert router._path_cost(path) == pytest.approx(dist, rel=1e-12)


class TestLayerAssignment:
    def test_layers_respect_directions(self, routed):
        nl, _, _, result = routed
        tech = nl.technology
        h_set = {l.index for l in tech.horizontal_layers()}
        v_set = {l.index for l in tech.vertical_layers()}
        assert set(result.h_layer.tolist()) <= h_set
        assert set(result.v_layer.tolist()) <= v_set

    def test_longer_segments_higher_layers(self, routed):
        _, _, _, result = routed
        by_length = np.argsort(result.length, kind="stable")
        n = by_length.size
        if n >= 10:
            short_avg = result.h_layer[by_length[: n // 4]].mean()
            long_avg = result.h_layer[by_length[-(n // 4) :]].mean()
            assert long_avg >= short_avg

    def test_segment_rc_positive(self, routed):
        from repro.sta import flat as flatmod
        from repro.steiner.flat_forest import flat_forest_of

        nl, forest, _, result = routed
        flat = flat_forest_of(forest)
        xy = flat.node_positions(forest.get_steiner_coords())
        r, c = flatmod.routed_edge_rc(flat, nl.technology, xy, result)
        rows = flat.forest_edge_row[result.edge]
        wired = result.length > 0
        assert (r[rows[wired]] > 0.0).all() and (c[rows[wired]] > 0.0).all()

    def test_vias_nonnegative(self, routed):
        _, _, _, result = routed
        assert (result.vias >= 0).all()


class TestDetailedRouter:
    def test_metrics_shape(self, routed):
        nl, forest, grid, result = routed
        dr = DetailedRouter(grid).route(forest, result)
        assert dr.wirelength >= result.total_wirelength
        assert dr.num_vias > 0
        assert dr.num_drvs >= 0

    def test_deterministic(self, routed):
        nl, forest, grid, result = routed
        a = DetailedRouter(grid).route(forest, result)
        b = DetailedRouter(grid).route(forest, result)
        assert a.wirelength == b.wirelength
        assert a.num_drvs == b.num_drvs

    def test_drvs_increase_with_overflow(self, routed):
        nl, forest, grid, result = routed
        clean = DetailedRouter(grid, DetailedRouterConfig(seed=1)).route(forest, result)
        # Artificially saturate the grid: DRVs must not decrease.
        grid.use_h += grid.cap_h * 3.0
        dirty = DetailedRouter(grid, DetailedRouterConfig(seed=1)).route(forest, result)
        grid.use_h -= grid.cap_h * 3.0
        assert dirty.num_drvs >= clean.num_drvs

    def test_repair_rounds_bounded(self, routed):
        nl, forest, grid, result = routed
        cfg = DetailedRouterConfig(repair_iterations=3)
        dr = DetailedRouter(grid, cfg).route(forest, result)
        assert dr.repair_rounds_used <= 3
