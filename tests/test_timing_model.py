"""Tests for the GNN timing evaluator: graph build, forward, gradients."""

import numpy as np
import pytest

from repro.autodiff.tensor import Tensor
from repro.flow.pipeline import make_training_samples, prepare_design
from repro.timing_model.dataset import make_sample
from repro.timing_model.graph import NODE_DRIVER, NODE_SINK, NODE_STEINER, build_timing_graph
from repro.timing_model.model import EvaluatorConfig, TimingEvaluator
from repro.timing_model.train import TrainerConfig, evaluate_r2, r2_score, train_evaluator


@pytest.fixture(scope="module")
def small_design():
    return prepare_design("spm")


@pytest.fixture(scope="module")
def graph(small_design):
    netlist, forest = small_design
    return build_timing_graph(netlist, forest)


class TestTimingGraph:
    def test_node_counts(self, small_design, graph):
        netlist, forest = small_design
        expected = sum(t.n_nodes for t in forest.trees)
        assert graph.n_sg_nodes == expected
        assert graph.num_steiner == forest.num_steiner_points

    def test_node_types_partition(self, graph):
        types = graph.sg_node_type
        assert set(np.unique(types)) <= {NODE_DRIVER, NODE_SINK, NODE_STEINER}
        assert (types == NODE_STEINER).sum() == graph.num_steiner

    def test_broadcast_edges_match_tree_edges(self, small_design, graph):
        _, forest = small_design
        assert graph.sg_bcast_src.size == forest.num_edges

    def test_reduce_edges_one_per_sink(self, small_design, graph):
        _, forest = small_design
        expected = sum(t.n_pins - 1 for t in forest.trees)
        assert graph.sg_reduce_src.size == expected

    def test_steiner_rows_follow_forest_coords(self, small_design, graph):
        """Forest coordinate row k is Steiner-graph node
        ``sg_steiner_rows[k]``: writing ``forest.coords`` in there gives
        every tree's ``node_xy()`` in node order."""
        _, forest = small_design
        pos = graph.sg_static_pos.copy()
        pos[graph.sg_steiner_rows] = forest.coords
        expected = np.concatenate([t.node_xy() for t in forest.trees])
        assert pos.tobytes() == expected.tobytes()

    def test_levels_cover_all_reachable_sinks(self, small_design, graph):
        netlist, _ = small_design
        sinks = {s for lv in graph.levels for s in lv.net_sink}
        outs = {o for lv in graph.levels for o in lv.cell_out}
        all_net_sinks = {s for net in netlist.nets for s in net.sinks}
        assert sinks == all_net_sinks
        assert len(outs) > 0

    def test_path_entries_reference_valid_arcs(self, graph):
        if graph.path_arc.size:
            assert graph.path_arc.max() < graph.n_net_arcs
            assert graph.path_src.max() < graph.n_sg_nodes

    def test_endpoints_and_required(self, small_design, graph):
        netlist, _ = small_design
        assert set(graph.endpoints) == set(netlist.endpoints())
        assert graph.required.shape == graph.endpoints.shape

    def test_startpoints_have_launch_arrivals(self, small_design, graph):
        # The model's launch set is PIs + register *clock* pins (the
        # clk->q arc is then a learned cell delay), unlike
        # netlist.startpoints() which lists Q pins per STA convention.
        netlist, _ = small_design
        pi = {p.index for p in netlist.primary_inputs()}
        ck = {
            c.pin_indices[c.cell_type.clock_pin] for c in netlist.registers()
        }
        assert set(graph.startpoints) == pi | ck
        assert np.all(np.isfinite(graph.start_arrival))

    def test_congestion_default_none(self, graph):
        assert graph.congestion is None


def _assert_graph_equal(got, want):
    """Field-by-field bitwise equality of two TimingGraphs."""
    import dataclasses

    from repro.timing_model.graph import LevelArcs, TimingGraph

    def same(a, b, what):
        assert a.dtype == b.dtype and a.shape == b.shape, what
        assert a.tobytes() == b.tobytes(), what

    for f in dataclasses.fields(TimingGraph):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if f.name in ("netlist", "forest", "congestion"):
            assert a is b, f.name
        elif f.name == "levels":
            assert len(a) == len(b)
            for L, (ga, wa) in enumerate(zip(a, b), start=1):
                for lf in dataclasses.fields(LevelArcs):
                    same(getattr(ga, lf.name), getattr(wa, lf.name), (L, lf.name))
        elif isinstance(b, np.ndarray):
            same(a, b, f.name)
        elif f.compare:
            assert type(a) is type(b) and a == b, f.name


_PARITY_DESIGNS = (
    "spm",
    "usb_cdc_core",
    "picorv32a",
    pytest.param("des3", marks=pytest.mark.eco_smoke),
)


class TestGraphParity:
    """``build_timing_graph`` (the STA levelization and the flat forest)
    equals the loop oracle bitwise, and the two agree with the sign-off
    levelization where the loop does not."""

    @pytest.mark.parametrize("design", _PARITY_DESIGNS)
    def test_matches_oracle(self, design):
        from repro.steiner.flat_forest import flat_cache_entry, flat_forest_of
        from repro.testing.oracles import reference_timing_graph

        netlist, forest = prepare_design(design)
        field = np.random.default_rng(0).random((4, 3))
        got = build_timing_graph(netlist, forest, congestion=field)
        entry = flat_cache_entry(forest)
        # The graph reads the forest's one flattening and leaves it there.
        assert got.net_edge_src_node is flat_forest_of(forest).forest_edge_u
        build_timing_graph(netlist, forest)
        assert flat_cache_entry(forest) is entry
        _assert_graph_equal(got, reference_timing_graph(netlist, forest, field))
        assert len(got.levels) > 1 and got.path_src.size

    def test_matches_oracle_through_netlist_ops(self, small_design):
        """A buffer insertion adds a cell, pins, a net and a tree; a
        resize changes pin caps and arc features in place.  Each apply
        and each revert must rebuild the graph exactly as the oracle."""
        from repro.eco import BufferInsertOp, ResizeOp, clone_state
        from repro.sta.engine import STAEngine
        from repro.steiner.flat_forest import flat_cache_entry
        from repro.testing.oracles import reference_timing_graph

        netlist, forest = clone_state(*small_design)
        STAEngine(netlist).run(forest)  # a live sign-off flat memo entry
        net = next(n for n in netlist.nets if n.degree > 2)
        cell, to_ct = next(
            (c, v)
            for c in netlist.cells
            if not c.is_sequential
            for v in netlist.library.variants_of(c.cell_type)
            if v.pin_caps != c.cell_type.pin_caps
        )
        base = reference_timing_graph(netlist, forest)
        for op in (BufferInsertOp(net.index, net.sinks[-1]), ResizeOp(cell.index, to_ct)):
            op.apply(netlist, forest)
            _assert_graph_equal(
                build_timing_graph(netlist, forest),
                reference_timing_graph(netlist, forest),
            )
            # Sign-off reads the flattening the graph build left.
            entry = flat_cache_entry(forest)
            STAEngine(netlist).run(forest)
            assert flat_cache_entry(forest) is entry
            op.revert(netlist, forest)
            _assert_graph_equal(
                build_timing_graph(netlist, forest),
                reference_timing_graph(netlist, forest),
            )
        _assert_graph_equal(build_timing_graph(netlist, forest), base)

    @staticmethod
    def _netlist():
        from repro.netlist.netlist import Netlist
        from repro.pdk.clocks import ClockSpec
        from repro.pdk.liberty import default_library
        from repro.pdk.technology import default_technology

        lib = default_library()
        nl = Netlist("hand", lib, default_technology(), ClockSpec(1.0))
        nl.die_width = nl.die_height = 50.0
        return nl, lib

    def test_combinational_loop_raises(self):
        """The sign-off levelizer's loop check, not a silent graph with
        no levels and nothing reachable."""
        from repro.steiner.forest import build_forest

        nl, lib = self._netlist()
        a, b = nl.add_cell("a", lib["INV_X1"]), nl.add_cell("b", lib["INV_X1"])
        nl.add_net("ab", a.pin_indices["Y"], [b.pin_indices["A"]])
        nl.add_net("ba", b.pin_indices["Y"], [a.pin_indices["A"]])
        with pytest.raises(ValueError, match="combinational loop"):
            build_timing_graph(nl, build_forest(nl))

    def test_clock_net_is_ideal(self):
        """A clock port wired to a register's CK: the STA treats the
        clock as ideal, so CK is a level-0 launch point and the graph's
        levels are the sign-off levels, with no arc into CK."""
        from repro.netlist.netlist import PinDirection
        from repro.sta.engine import STAEngine
        from repro.steiner.forest import build_forest

        nl, lib = self._netlist()
        clk = nl.add_port("clk", PinDirection.OUTPUT, 0.0, 40.0)
        pi = nl.add_port("in0", PinDirection.OUTPUT, 0.0, 10.0)
        po = nl.add_port("out0", PinDirection.INPUT, 50.0, 10.0)
        reg, inv = nl.add_cell("r", lib["DFF_X1"]), nl.add_cell("i", lib["INV_X1"])
        ck = reg.pin_indices["CK"]
        nl.add_net("clk", clk.index, [ck])
        nl.add_net("d", pi.index, [reg.pin_indices["D"]])
        nl.add_net("q", reg.pin_indices["Q"], [inv.pin_indices["A"]])
        nl.add_net("y", inv.pin_indices["Y"], [po.index])
        graph = build_timing_graph(nl, build_forest(nl))
        pert = STAEngine(nl).pert()
        assert len(graph.levels) == len(pert.levels)
        for lv, pl in zip(graph.levels, pert.levels):
            assert lv.net_sink.tolist() == pl.net_dst.tolist()
            assert np.unique(lv.cell_out).tolist() == pl.cell_dest.tolist()
        assert graph.pin_level[ck] == 0
        assert ck in graph.startpoints.tolist()
        assert graph.pin_level[po.index] == len(graph.levels) == 4


class TestEvaluatorForward:
    def test_output_shapes(self, small_design, graph):
        netlist, forest = small_design
        model = TimingEvaluator(EvaluatorConfig(hidden=8))
        out = model(graph, Tensor(forest.get_steiner_coords()))
        assert out["arrival"].shape == (netlist.num_pins,)
        assert out["pin_embedding"].shape == (netlist.num_pins, 8)

    def test_deterministic(self, small_design, graph):
        _, forest = small_design
        model = TimingEvaluator(EvaluatorConfig(hidden=8))
        a = model.predict_arrivals(graph, forest.get_steiner_coords())
        b = model.predict_arrivals(graph, forest.get_steiner_coords())
        assert np.array_equal(a, b)

    def test_same_seed_same_model(self, small_design, graph):
        _, forest = small_design
        m1 = TimingEvaluator(EvaluatorConfig(hidden=8, seed=5))
        m2 = TimingEvaluator(EvaluatorConfig(hidden=8, seed=5))
        coords = forest.get_steiner_coords()
        assert np.allclose(m1.predict_arrivals(graph, coords), m2.predict_arrivals(graph, coords))

    def test_arrivals_nonnegative_on_reachable(self, small_design, graph):
        _, forest = small_design
        model = TimingEvaluator(EvaluatorConfig(hidden=8))
        arrival = model.predict_arrivals(graph, forest.get_steiner_coords())
        assert np.all(arrival[graph.reachable] >= -1e-9)

    def test_gradient_flows_to_steiner_coords(self, small_design, graph):
        _, forest = small_design
        model = TimingEvaluator(EvaluatorConfig(hidden=8))
        coords = Tensor(forest.get_steiner_coords(), requires_grad=True)
        out = model(graph, coords)
        out["arrival"][graph.endpoints].sum().backward()
        assert coords.grad is not None
        assert np.abs(coords.grad).sum() > 0

    def test_gradcheck_against_numeric(self, small_design, graph):
        _, forest = small_design
        model = TimingEvaluator(EvaluatorConfig(hidden=6, seed=3))
        coords = forest.get_steiner_coords()

        def loss_of(c):
            arr = model.predict_arrivals(graph, c)
            return float(arr[graph.endpoints].sum())

        t = Tensor(coords, requires_grad=True)
        out = model(graph, t)
        out["arrival"][graph.endpoints].sum().backward()
        rng = np.random.default_rng(0)
        h = 1e-5
        for _ in range(6):
            i = int(rng.integers(coords.shape[0]))
            j = int(rng.integers(2))
            cp, cm = coords.copy(), coords.copy()
            cp[i, j] += h
            cm[i, j] -= h
            numeric = (loss_of(cp) - loss_of(cm)) / (2 * h)
            assert abs(numeric - t.grad[i, j]) < 5e-4 + 0.05 * abs(numeric)

    def test_moving_points_changes_prediction(self, small_design, graph):
        _, forest = small_design
        model = TimingEvaluator(EvaluatorConfig(hidden=8))
        coords = forest.get_steiner_coords()
        a = model.predict_arrivals(graph, coords)
        b = model.predict_arrivals(graph, coords + 5.0)
        assert not np.allclose(a[graph.endpoints], b[graph.endpoints])

    def test_congestion_field_feeds_forward(self, small_design):
        netlist, forest = small_design
        model = TimingEvaluator(EvaluatorConfig(hidden=8))
        g0 = build_timing_graph(netlist, forest, congestion=None)
        util = np.full((10, 10), 0.9)
        g1 = build_timing_graph(netlist, forest, congestion=util)
        coords = forest.get_steiner_coords()
        a = model.predict_arrivals(g0, coords)
        b = model.predict_arrivals(g1, coords)
        assert not np.allclose(a, b)


class TestTraining:
    def test_r2_score_perfect(self):
        y = np.array([1.0, 2.0, 3.0])
        assert r2_score(y, y) == 1.0

    def test_r2_score_mean_predictor(self):
        truth = np.array([1.0, 2.0, 3.0])
        pred = np.full(3, truth.mean())
        assert abs(r2_score(truth, pred)) < 1e-12

    def test_r2_empty(self):
        assert np.isnan(r2_score(np.array([]), np.array([])))

    def test_loss_decreases(self):
        samples = make_training_samples(["spm"], train_names=["spm"], augment=0)
        model = TimingEvaluator(EvaluatorConfig(hidden=8))
        result = train_evaluator(
            model, samples, TrainerConfig(epochs=25, learning_rate=5e-3, patience=30)
        )
        assert result.losses[-1] < result.losses[0]

    def test_training_improves_r2(self):
        samples = make_training_samples(["spm"], train_names=["spm"], augment=0)
        model = TimingEvaluator(EvaluatorConfig(hidden=8))
        before = evaluate_r2(model, samples)["spm"]["arrival_all"]
        train_evaluator(model, samples, TrainerConfig(epochs=60, learning_rate=5e-3, patience=60))
        after = evaluate_r2(model, samples)["spm"]["arrival_all"]
        assert after > before

    def test_requires_training_samples(self):
        samples = make_training_samples(["spm"], train_names=[], augment=0)
        model = TimingEvaluator(EvaluatorConfig(hidden=8))
        with pytest.raises(ValueError):
            train_evaluator(model, samples)

    def test_state_dict_roundtrip_preserves_predictions(self, small_design, graph):
        _, forest = small_design
        model = TimingEvaluator(EvaluatorConfig(hidden=8))
        state = model.state_dict()
        clone = TimingEvaluator(EvaluatorConfig(hidden=8, seed=123))
        clone.load_state_dict(state)
        coords = forest.get_steiner_coords()
        assert np.allclose(
            model.predict_arrivals(graph, coords), clone.predict_arrivals(graph, coords)
        )


class TestDataset:
    def test_make_sample_masks_startpoints(self, small_design):
        netlist, forest = small_design
        sample = make_sample(netlist, forest, None)
        assert not sample.label_mask[sample.graph.startpoints].any()

    def test_endpoint_mask_subset(self, small_design):
        netlist, forest = small_design
        sample = make_sample(netlist, forest, None)
        assert sample.endpoint_mask.sum() <= sample.label_mask.sum()

    def test_augmented_samples_differ(self):
        samples = make_training_samples(["spm"], train_names=["spm"], augment=2)
        coords = [s.steiner_coords for s in samples]
        assert len(samples) == 3
        assert not np.allclose(coords[0], coords[1])
