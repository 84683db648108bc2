"""Tests for critical-path tracing and hold analysis."""

import numpy as np
import pytest

from repro.flow.pipeline import prepare_design, run_routing_flow
from repro.mcmm import NEUTRAL_HOLD, Scenario, ScenarioSet, ScenarioSTA
from repro.pdk.corners import Corner
from repro.sta.engine import STAEngine
from repro.sta.paths import extract_critical_paths, trace_path
from repro.steiner import build_forest
from repro.testing.oracles import reference_hold_analysis


@pytest.fixture(scope="module")
def timed_design():
    netlist, forest = prepare_design("cic_decimator")
    engine = STAEngine(netlist)
    report = engine.run(forest)
    return netlist, forest, engine, report


def neutral_hold(engine, forest, route_result=None, utilization=None):
    """The ``NEUTRAL_HOLD`` row of a one-scenario ``ScenarioSTA`` pass."""
    sta = ScenarioSTA(engine.netlist, forest, ScenarioSet([NEUTRAL_HOLD]), engine=engine)
    return sta.run(route_result=route_result, utilization=utilization).scenarios[0]


class TestCriticalPaths:
    def test_paths_ranked_by_slack(self, timed_design):
        netlist, _, _, report = timed_design
        paths = extract_critical_paths(netlist, report, n_paths=4)
        slacks = [p.slack for p in paths]
        assert slacks == sorted(slacks)
        assert paths[0].slack == report.wns

    def test_path_reaches_a_launch_point(self, timed_design):
        netlist, _, _, report = timed_design
        path = trace_path(netlist, report, report.worst_endpoint())
        start_pin = netlist.pins[path.startpoint]
        clock_pins = {
            c.pin_indices[c.cell_type.clock_pin] for c in netlist.registers()
        }
        assert path.startpoint in clock_pins or start_pin.is_port

    def test_increments_sum_to_path_delay(self, timed_design):
        netlist, _, _, report = timed_design
        path = trace_path(netlist, report, report.worst_endpoint())
        total = sum(s.increment for s in path.steps)
        assert abs(total - path.delay) < 1e-9

    def test_arrivals_monotone_along_path(self, timed_design):
        netlist, _, _, report = timed_design
        for p in extract_critical_paths(netlist, report, n_paths=3):
            arrivals = [s.arrival for s in p.steps]
            assert all(a <= b + 1e-12 for a, b in zip(arrivals, arrivals[1:]))

    def test_format_contains_slack(self, timed_design):
        netlist, _, _, report = timed_design
        path = trace_path(netlist, report, report.worst_endpoint())
        text = path.format()
        assert "slack" in text
        assert path.steps[-1].pin_name in text


class TestHoldAnalysis:
    def test_early_never_exceeds_late(self, timed_design):
        netlist, forest, engine, report = timed_design
        hold = neutral_hold(engine, forest)
        for ep in netlist.endpoints():
            early = hold.arrival[ep]
            late = report.arrival[ep]
            if np.isfinite(early) and np.isfinite(late):
                assert early <= late + 1e-9

    def test_hold_slacks_cover_register_endpoints(self, timed_design):
        netlist, forest, engine, _ = timed_design
        hold = neutral_hold(engine, forest)
        reg_d = {c.pin_indices["D"] for c in netlist.registers()}
        assert set(hold.slack) == reg_d

    def test_whs_is_min(self, timed_design):
        _, forest, engine, _ = timed_design
        hold = neutral_hold(engine, forest)
        assert hold.wns == min(hold.slack.values())

    def test_violations_counted(self, timed_design):
        netlist, forest, engine, _ = timed_design
        tight = Scenario(
            Corner("tight_hold", check="hold", hold_margin=10.0), NEUTRAL_HOLD.mode
        )
        relaxed, strict = ScenarioSTA(
            netlist, forest, ScenarioSet([NEUTRAL_HOLD, tight]), engine=engine
        ).run().scenarios
        assert strict.num_violations >= relaxed.num_violations
        assert strict.num_violations == len(strict.slack)

    @pytest.mark.parametrize("name", ["cic_decimator", "spm", "picorv32a"])
    @pytest.mark.parametrize("routed", [False, True])
    def test_matches_scalar_oracle(self, name, routed):
        """The batched hold analysis reports the scalar oracle's slacks,
        WHS and violation count exactly; earliest arrivals agree up to
        float re-association of the Elmore sums."""
        from repro.groute.layer_assign import assign_layers
        from repro.groute.router import GlobalRouter
        from repro.routegrid.grid import GCellGrid

        netlist, forest = prepare_design(name)
        engine = STAEngine(netlist)
        rr = util = None
        if routed:
            grid = GCellGrid(netlist.die_width, netlist.die_height, netlist.technology)
            rr = GlobalRouter(grid).route(forest)
            assign_layers(rr, netlist.technology, grid.nx * grid.ny)
            util = grid.utilization_map()
        got = neutral_hold(engine, forest, rr, utilization=util)
        want = reference_hold_analysis(engine, forest, rr, utilization=util)
        assert (got.name, got.check) == (want.name, want.check)
        assert got.wns == want.wns
        assert got.num_violations == want.num_violations
        assert got.tns == pytest.approx(want.tns, abs=1e-9)
        assert set(got.slack) == set(want.slack)
        for ep, slack in want.slack.items():
            assert got.slack[ep] == pytest.approx(slack, abs=1e-12)
        assert np.array_equal(np.isnan(got.arrival), np.isnan(want.arrival))
        assert np.allclose(
            got.arrival, want.arrival, rtol=0.0, atol=1e-12, equal_nan=True
        )
