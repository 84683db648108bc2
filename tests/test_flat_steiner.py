"""Parity tests for the flat batched Steiner / pattern-route kernels.

Two bitwise contracts (docs/PERFORMANCE.md, layer 4):

* :func:`repro.steiner.flat_build.construct_trees_flat` reproduces the
  per-net :func:`repro.steiner.rsmt.construct_tree` reference *bitwise*
  (coordinates, edge lists, wirelength) across every degree bucket,
  including duplicate-coordinate nets that take the merge/prune path;
* :func:`repro.groute.flat_route.pattern_route_flat` reproduces the
  per-edge oracle ``repro.testing.oracles.pattern_route_reference``
  bitwise (shape choice, cost, usage fields, overflow).

The routers' node-coordinate gather (the flat forest's pin base plus
the forest's flat Steiner coordinates) equals a tree-by-tree copy
bitwise.

Plus ``build_forest`` against the per-net oracle
``repro.testing.oracles.reference_forest`` and the forest cache:
hit/miss counters, fork insulation, digest invalidation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netlist.generator import GeneratorConfig, generate_netlist
from repro.obs import Telemetry, telemetry_session
from repro.pdk.technology import default_technology
from repro.placement import place
from repro.routegrid.grid import GCellGrid
from repro.steiner import build_forest, clear_forest_cache, construct_trees_flat
from repro.steiner.forest import SteinerForest
from repro.steiner.rsmt import _corner_for, construct_tree
from repro.groute.flat_route import estimate_congestion, pattern_route_flat
from repro.steiner.flat_forest import expand_ranges, flat_forest_of
from repro.testing.oracles import pattern_route_reference, reference_forest

# Continuous coordinates rarely coincide; the small integer grid forces
# duplicate pins, coincident corners (merge path) and medians that land
# on pins (star path).
FLOAT_COORD = st.floats(min_value=0.0, max_value=100.0, allow_nan=False, width=64)
GRID_COORD = st.integers(min_value=0, max_value=8).map(float)


def _nets(coord, min_pins=1):
    net = st.lists(st.tuples(coord, coord), min_size=min_pins, max_size=9)
    return st.lists(net, min_size=1, max_size=10)


def _build_both(nets):
    """Run the flat builder and the per-net reference on one pin set."""
    pos = np.array([p for net in nets for p in net], dtype=np.float64).reshape(-1, 2)
    net_pins, base = [], 0
    for net in nets:
        net_pins.append(list(range(base, base + len(net))))
        base += len(net)
    net_indices = list(range(len(nets)))
    flat = construct_trees_flat(net_indices, net_pins, pos)
    ref = [
        construct_tree(i, pins, pos[np.array(pins, dtype=np.int64)])
        for i, pins in zip(net_indices, net_pins)
    ]
    return flat, ref


def _assert_tree_equal(a, b):
    assert a.net_index == b.net_index
    assert list(a.pin_ids) == list(b.pin_ids)
    np.testing.assert_array_equal(a.pin_xy, b.pin_xy)
    np.testing.assert_array_equal(a.steiner_xy, b.steiner_xy)
    assert list(a.edges) == list(b.edges)
    assert a.wirelength() == b.wirelength()  # bitwise, not approx


# ----------------------------------------------------------------------
# Flat construction vs per-net reference
# ----------------------------------------------------------------------
class TestFlatBuildParity:
    @settings(max_examples=60, deadline=None)
    @given(_nets(FLOAT_COORD))
    def test_float_coords_bitwise_equal(self, nets):
        flat, ref = _build_both(nets)
        assert len(flat) == len(ref)
        for a, b in zip(flat, ref):
            _assert_tree_equal(a, b)

    @settings(max_examples=60, deadline=None)
    @given(_nets(GRID_COORD))
    def test_degenerate_grid_coords_bitwise_equal(self, nets):
        # Duplicates / collinear pins: exercises the star-tree bucket,
        # the coincident-Steiner merge pass and leaf pruning.
        flat, ref = _build_both(nets)
        for a, b in zip(flat, ref):
            _assert_tree_equal(a, b)
            a.validate()

    def test_each_degree_bucket(self):
        nets = [
            [(3.0, 4.0)],  # degree 1: empty tree
            [(0.0, 0.0), (5.0, 0.0)],  # degree 2 aligned
            [(0.0, 0.0), (5.0, 7.0)],  # degree 2 bend (midpoint tie)
            [(0.0, 0.0), (4.0, 9.0), (8.0, 2.0)],  # degree 3 median
            [(0.0, 0.0), (4.0, 2.0), (8.0, 4.0), (4.0, 2.0)],  # dup pin
            [(float(x), float((7 * x + 3) % 11)) for x in range(7)],  # Prim
        ]
        flat, ref = _build_both(nets)
        for a, b in zip(flat, ref):
            _assert_tree_equal(a, b)

    def test_midpoint_tie_resolved_symbolically(self):
        # The two L-corners of a 2-pin net are *exactly* equidistant
        # from the segment midpoint, but fl((a+b)/2) is an ulp off for
        # most inputs — the tie must be broken symbolically (corner
        # (b.x, a.y)), never by comparing computed distances.
        a = np.array([0.1, 0.3])
        b = np.array([0.2, 0.7])
        np.testing.assert_array_equal(_corner_for(a, b, None), [b[0], a[1]])

    def test_empty_input(self):
        assert construct_trees_flat([], [], np.zeros((0, 2))) == []


# ----------------------------------------------------------------------
# Flat pattern route vs per-edge reference
# ----------------------------------------------------------------------
def _forest_from(nets):
    trees, _ = _build_both(nets)
    # Pattern routing only reads forest.trees; no netlist needed.
    return SteinerForest(None, trees)


class TestFlatRouteParity:
    @settings(max_examples=40, deadline=None)
    @given(_nets(FLOAT_COORD, min_pins=2))
    def test_random_forests_bitwise_equal(self, nets):
        forest = _forest_from(nets)
        tech = default_technology()
        g_ref = GCellGrid(100.0, 100.0, tech)
        g_flat = GCellGrid(100.0, 100.0, tech)
        r_ref = pattern_route_reference(g_ref, forest)
        r_flat = pattern_route_flat(g_flat, forest)
        np.testing.assert_array_equal(r_flat.choice, r_ref.choice)
        np.testing.assert_array_equal(r_flat.cost, r_ref.cost)
        np.testing.assert_array_equal(g_flat.use_h, g_ref.use_h)
        np.testing.assert_array_equal(g_flat.use_v, g_ref.use_v)
        assert r_flat.overflow == r_ref.overflow
        assert r_flat.max_utilization == r_ref.max_utilization

    def test_empty_forest(self):
        forest = SteinerForest(None, [])
        grid = GCellGrid(60.0, 60.0, default_technology())
        result = pattern_route_flat(grid, forest)
        assert result.num_edges == 0 and result.overflow == 0

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 40), st.integers(-3, 12)), max_size=12))
    def test_expand_ranges_is_arange_concatenation(self, ranges):
        """The one range expander (flat routing, the flat forest and the
        levelizer all use it) against its loop form, with empty and
        reversed ranges mixed in."""
        starts = np.array([s for s, _ in ranges], dtype=np.int64)
        ends = starts + np.array([n for _, n in ranges], dtype=np.int64)
        want = np.concatenate(
            [np.zeros(0, dtype=np.int64)]
            + [np.arange(s, e, dtype=np.int64) for s, e in zip(starts, ends)]
        )
        got = expand_ranges(starts, ends)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)

    def test_estimate_congestion_kernels_agree(self):
        nl = generate_netlist(
            GeneratorConfig(name="fr", n_registers=8, n_comb=60, depth=6, seed=6)
        )
        place(nl)
        forest = build_forest(nl, cache=False)
        flat = estimate_congestion(nl, forest)
        grid = GCellGrid(nl.die_width, nl.die_height, nl.technology)
        pattern_route_reference(grid, forest)
        np.testing.assert_array_equal(flat, grid.utilization_map())


def _gather_loop(forest):
    """Node coordinates copied tree by tree: the gather's loop form."""
    xy = np.empty((sum(t.n_nodes for t in forest.trees), 2), dtype=np.float64)
    s = 0
    for tree in forest.trees:
        p = s + tree.n_pins
        xy[s:p] = tree.pin_xy
        xy[p : p + tree.n_steiner] = tree.steiner_xy
        s = p + tree.n_steiner
    return xy


def _gather(flat, forest):
    return flat.node_positions(forest.get_steiner_coords())


class TestGatherCoords:
    @settings(max_examples=40, deadline=None)
    @given(_nets(FLOAT_COORD), st.integers(0, 2**16))
    def test_matches_tree_loop_after_moves(self, nets, seed):
        forest = _forest_from(nets)
        flat = flat_forest_of(forest)
        assert _gather(flat, forest).tobytes() == _gather_loop(forest).tobytes()
        coords = forest.get_steiner_coords()
        rng = np.random.default_rng(seed)
        forest.set_steiner_coords(coords + rng.normal(0.0, 5.0, coords.shape))
        assert flat_forest_of(forest) is flat  # a move keeps the cache
        assert _gather(flat, forest).tobytes() == _gather_loop(forest).tobytes()

    def test_design_moves_and_replacement(self):
        from repro.flow.pipeline import prepare_design

        _, forest = prepare_design("picorv32a")
        forest = forest.copy()
        coords = forest.get_steiner_coords()
        forest.set_steiner_coords(coords + np.random.default_rng(1).normal(0.0, 3.0, coords.shape))
        flat = flat_forest_of(forest)
        assert _gather(flat, forest).tobytes() == _gather_loop(forest).tobytes()
        # Re-placement reassigns pin_xy: the cached pin base is rebuilt.
        tree = forest.trees[5]
        tree.pin_xy = tree.pin_xy + 1.0
        fresh = flat_forest_of(forest)
        assert fresh is not flat
        assert _gather(fresh, forest).tobytes() == _gather_loop(forest).tobytes()


# ----------------------------------------------------------------------
# build_forest vs the per-net oracle + cache
# ----------------------------------------------------------------------
@pytest.fixture()
def small_design():
    nl = generate_netlist(
        GeneratorConfig(name="fc", n_registers=6, n_comb=40, depth=5, seed=3)
    )
    place(nl)
    clear_forest_cache()
    yield nl
    clear_forest_cache()


class TestBuildForestDispatch:
    def test_flat_and_reference_kernels_bitwise_equal(self, small_design):
        nl = small_design
        flat = build_forest(nl, cache=False)
        ref = reference_forest(nl)
        assert flat.num_trees == ref.num_trees
        for a, b in zip(flat.trees, ref.trees):
            _assert_tree_equal(a, b)

    def test_cache_hit_and_counters(self, small_design, tmp_path):
        nl = small_design
        with Telemetry(path=str(tmp_path / "t.jsonl")) as tel:
            with telemetry_session(tel):
                build_forest(nl)
                build_forest(nl)
            assert tel.counters.get("steiner.cache_misses", 0) == 1
            assert tel.counters.get("steiner.cache_hits", 0) == 1

    def test_cache_forks_are_insulated(self, small_design):
        nl = small_design
        first = build_forest(nl)
        coords = first.get_steiner_coords()
        if len(coords):
            first.set_steiner_coords(coords + 17.0)  # mutate the fork
        second = build_forest(nl)
        ref = build_forest(nl, cache=False)
        np.testing.assert_array_equal(
            second.get_steiner_coords(), ref.get_steiner_coords()
        )

    def test_cache_invalidated_by_placement_change(self, small_design):
        nl = small_design
        first = build_forest(nl)
        cell = nl.cells[0]
        cell.x += 3.0
        second = build_forest(nl)
        ref = build_forest(nl, cache=False)
        for a, b in zip(second.trees, ref.trees):
            _assert_tree_equal(a, b)
        assert first is not second
