"""One Steiner coordinate matrix per forest.

``SteinerForest.coords`` is the only storage of Steiner coordinates:
each tree's ``steiner_xy`` is the row-slice view
``coords[steiner_slice(i)]``.  These tests walk a forest through every
operation that writes coordinates or edits the tree list and check the
binding after each step, plus that a ``copy()`` owns its own matrix.
"""

import pickle

import numpy as np
import pytest

from repro.eco import BufferInsertOp, NudgeOp, RerouteOp, clone_state
from repro.flow.pipeline import prepare_design
from repro.steiner.edge_shifting import shift_edges
from repro.steiner.forest import build_forest


@pytest.fixture(scope="module")
def spm():
    netlist, _ = prepare_design("spm", edge_shift_passes=0)
    return netlist


def _assert_one_matrix(forest):
    """Every tree views its own rows of ``forest.coords``, and the flat
    read is bitwise the tree-by-tree concatenation."""
    coords = forest.coords
    assert coords.dtype == np.float64 and coords.shape == (forest.num_steiner_points, 2)
    # ``coords`` views the first rows of a buffer with spare rows.
    owner = coords if coords.base is None else coords.base
    for i, tree in enumerate(forest.trees):
        rows = coords[forest.steiner_slice(i)]
        assert tree.steiner_xy.base is owner
        assert tree.steiner_xy.__array_interface__ == rows.__array_interface__
    flat = forest.get_steiner_coords()
    assert not np.shares_memory(flat, coords)
    joined = np.concatenate([t.steiner_xy for t in forest.trees])
    assert flat.tobytes() == joined.tobytes()


def _steiner_net(forest):
    return next(t.net_index for t in forest.trees if t.n_steiner > 1)


def test_coordinate_writes_keep_one_matrix(spm):
    forest = build_forest(spm, cache=False)
    _assert_one_matrix(forest)
    _assert_one_matrix(build_forest(spm))  # a cache fork

    dup = forest.copy()
    _assert_one_matrix(dup)
    assert not np.shares_memory(dup.coords, forest.coords)
    for a, b in zip(dup.trees, forest.trees):
        assert not np.shares_memory(a.steiner_xy, b.steiner_xy)
    dup.set_steiner_coords(dup.coords + 3.0)
    assert not np.array_equal(dup.coords, forest.coords)
    thawed = pickle.loads(pickle.dumps(dup))
    _assert_one_matrix(thawed)
    assert thawed.coords.tobytes() == dup.coords.tobytes()

    moved = forest.coords + np.random.default_rng(0).normal(0.0, 2.0, forest.coords.shape)
    matrix = forest.coords
    forest.set_steiner_coords(moved)
    assert forest.coords is matrix
    assert forest.get_steiner_coords().tobytes() == moved.tobytes()
    _assert_one_matrix(forest)

    forest.round_coords()
    assert forest.coords is matrix
    assert forest.coords.tobytes() == forest.round_array(moved).tobytes()
    _assert_one_matrix(forest)

    before = forest.get_steiner_coords()
    assert shift_edges(forest, passes=1) > 0
    assert not np.array_equal(forest.coords, before)
    _assert_one_matrix(forest)


@pytest.mark.parametrize("kind", ["buffer", "reroute", "nudge"])
def test_eco_apply_revert_keeps_one_matrix(spm, kind):
    netlist, forest = clone_state(spm, build_forest(spm, cache=False))
    net = _steiner_net(forest)
    if kind == "buffer":
        op = BufferInsertOp(net, netlist.nets[net].sinks[-1])
    elif kind == "reroute":
        op = RerouteOp(net)
    else:
        op = NudgeOp(net, 7.0, -5.0)
    before = forest.get_steiner_coords()
    op.apply(netlist, forest)
    _assert_one_matrix(forest)
    if kind == "nudge":
        assert not np.array_equal(forest.coords, before)
    op.revert(netlist, forest)
    _assert_one_matrix(forest)
    assert forest.get_steiner_coords().tobytes() == before.tobytes()


@pytest.mark.parametrize("kind", ["buffer", "reroute"])
def test_tree_edit_rebinds_from_its_slot_on(spm, kind):
    """An op's tree edit keeps the rows (and views) of the trees before
    its slot in place, and the replaced tree keeps its own points for
    the revert that puts it back."""
    netlist, forest = clone_state(spm, build_forest(spm, cache=False))
    net = [t.net_index for t in forest.trees if t.n_steiner][len(forest.trees) // 3]
    slot = forest.tree_slot(net)
    old_tree = forest.trees[slot]
    old_points = old_tree.steiner_xy.copy()
    views = [t.steiner_xy for t in forest.trees]
    op = (
        BufferInsertOp(net, netlist.nets[net].sinks[-1]) if kind == "buffer"
        else RerouteOp(net)
    )
    op.apply(netlist, forest)
    _assert_one_matrix(forest)
    assert all(t.steiner_xy is v for t, v in zip(forest.trees[:slot], views))
    assert old_tree.steiner_xy.tobytes() == old_points.tobytes()
    assert not np.shares_memory(old_tree.steiner_xy, forest.coords)
    op.revert(netlist, forest)
    _assert_one_matrix(forest)
    assert all(t.steiner_xy is v for t, v in zip(forest.trees[:slot], views))
    assert forest.trees[slot] is old_tree
    assert old_tree.steiner_xy.tobytes() == old_points.tobytes()
