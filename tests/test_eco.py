"""Closed-loop ECO engine tests (``repro.eco``, docs/ECO.md).

The core contract under test: every ECO op is *exactly reversible* —
``apply()`` followed by ``revert()`` restores the sign-off state
bit for bit, both through a warm :class:`EcoContext` (the incremental
re-time path candidate validation rides on) and through a cold full
rebuild.  On top of that: seeded determinism of the SA baseline,
dirty-cone containment, the serving layer's structural invalidation
commit path, and the des3 closure check the eco-smoke CI job pins —
the discrete arms close seeded violations that geometry-only Steiner
refinement cannot.
"""

import asyncio

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.eco import (
    BufferInsertOp,
    EcoConfig,
    EcoContext,
    NudgeOp,
    RerouteOp,
    ResizeOp,
    clone_state,
    dirty_cone,
    evaluate_candidates,
    run_eco,
)
from repro.flow.pipeline import prepare_design
from repro.mcmm.scenario import Mode, Scenario, ScenarioSet
from repro.mcmm.sta import ScenarioSTA
from repro.obs import Telemetry, telemetry_session
from repro.pdk.corners import get_corner
from repro.serve import (
    DesignWorkspace,
    SignoffService,
    TrafficConfig,
    WarmStateCache,
    make_jobs,
    run_load,
)
from repro.serve.chaos import WorkerKilled
from repro.serve.handlers import default_handlers
from repro.serve.jobs import Job
from repro.serve.service import JobContext
from repro.sta.engine import STAEngine

CORNERS = ("slow_setup", "fast_hold")


def _scenarios() -> ScenarioSet:
    return ScenarioSet.from_names(CORNERS)


@pytest.fixture(scope="module")
def spm_state():
    return prepare_design("spm")


def _snapshot(report):
    """Bitwise-comparable sign-off state: exact floats, all scenarios."""
    return tuple(
        (
            m.name,
            m.check,
            m.wns,
            m.tns,
            m.num_violations,
            tuple(sorted(m.slack.items())),
            m.arrival.tobytes(),
        )
        for m in report.scenarios
    )


# ----------------------------------------------------------------------
# Op catalogues for the property tests (indices survive clone_state —
# clones preserve cell/net/pin numbering by construction).
# ----------------------------------------------------------------------
def _nudge_nets(netlist, forest):
    return [t.net_index for t in forest.trees if t.n_steiner > 0]


def _routable_nets(netlist, forest):
    return [t.net_index for t in forest.trees if len(t.pin_ids) >= 2]


def _bufferable(netlist):
    """(net_index, sink_pin) pairs a buffer can legally split."""
    return [
        (net.index, sink)
        for net in netlist.nets
        if net.degree > 1
        for sink in net.sinks
    ]


def _resizable(netlist):
    """(cell_index, variant CellType, from_name) for every real move."""
    lib = netlist.library
    out = []
    for cell in netlist.cells:
        ct = cell.cell_type
        if ct.is_sequential:
            continue
        for v in lib.variants_of(ct):
            if v.name != ct.name:
                out.append((cell.index, v, ct.name))
    return out


def _draw_op(draw, netlist, forest):
    kind = draw(st.integers(min_value=0, max_value=3))
    if kind == 0:
        pairs = _bufferable(netlist)
        net, sink = pairs[draw(st.integers(0, len(pairs) - 1))]
        cell = draw(st.sampled_from(("BUF_X2", "BUF_X4")))
        return BufferInsertOp(net, sink, cell)
    if kind == 1:
        moves = _resizable(netlist)
        cell, to_ct, frm = moves[draw(st.integers(0, len(moves) - 1))]
        return ResizeOp(cell, to_ct, from_name=frm)
    if kind == 2:
        nets = _routable_nets(netlist, forest)
        return RerouteOp(nets[draw(st.integers(0, len(nets) - 1))])
    nets = _nudge_nets(netlist, forest)
    net = nets[draw(st.integers(0, len(nets) - 1))]
    dx = draw(st.floats(-8.0, 8.0, allow_nan=False, allow_infinity=False))
    dy = draw(st.floats(-8.0, 8.0, allow_nan=False, allow_infinity=False))
    return NudgeOp(net, dx, dy)


class TestOpReversibility:
    """apply() + revert() restores bitwise-identical STA state."""

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_apply_revert_bitwise_identity(self, spm_state, data):
        netlist, forest = clone_state(*spm_state)
        ctx = EcoContext(netlist, forest, _scenarios())
        before = _snapshot(ctx.run())

        op = _draw_op(data.draw, netlist, forest)
        ctx.apply(op)
        mutated = _snapshot(ctx.run())
        ctx.revert(op)

        # Warm path: the same context re-times incrementally (through a
        # patched engine for netlist-mutating ops) back to baseline.
        assert _snapshot(ctx.run()) == before
        # Cold path: a full rebuild from the reverted (netlist, forest)
        # agrees — revert left no structural residue behind.
        fresh = EcoContext(netlist, forest, _scenarios())
        assert _snapshot(fresh.run()) == before
        # The op actually did something while applied (guards against a
        # vacuous identity where apply was a no-op).
        if isinstance(op, (BufferInsertOp, ResizeOp)):
            assert mutated != before

    def test_evaluate_candidates_warm_equals_cold(self, spm_state):
        netlist, forest = clone_state(*spm_state)
        nets = _nudge_nets(netlist, forest)[:3]
        ops = [NudgeOp(n, 2.0, -1.0) for n in nets]
        ops.append(RerouteOp(_routable_nets(netlist, forest)[0]))
        warm_ctx = EcoContext(netlist, forest, _scenarios())
        warm = evaluate_candidates(netlist, forest, ops, context=warm_ctx)
        cold = [
            evaluate_candidates(netlist, forest, [op], scenarios=_scenarios())[0]
            for op in ops
        ]
        assert warm == cold


class _Scripted:
    """Stands in for hypothesis' ``data`` in an explicit example: each
    ``draw`` returns the next scripted value, whatever the strategy."""

    def __init__(self, *values):
        self.values = values
        self._next = iter(values)

    def draw(self, strategy, label=None):
        return next(self._next)

    def __repr__(self):
        return f"_Scripted{self.values!r}"


class TestWarmContextSequences:
    """A warm EcoContext driven through apply/revert sequences answers
    exactly what a cold context on the same state answers."""

    # 4 steps: ResizeOp #0; NudgeOp(net 0, 0.0, 0.0); revert; revert.
    # The nudge's apply must not cost the resize its restore.
    @example(data=_Scripted(4, 1, 0, False, 3, 0, 0.0, 0.0, True, True))
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_warm_equals_cold_after_every_step(self, spm_state, data):
        netlist, forest = clone_state(*spm_state)
        ctx = EcoContext(netlist, forest, _scenarios())
        ctx.run()
        applied = []  # LIFO stack of (op, engine before apply)
        last_netlist_op = None
        for _ in range(data.draw(st.integers(1, 6))):
            if applied and data.draw(st.booleans()):
                op, engine_before = applied.pop()
                rebuilds = ctx.rebuilds
                ctx.revert(op)
                if op.mutates_netlist and op is last_netlist_op:
                    # Restored, not rebuilt: the pre-apply engine is back.
                    assert ctx.engine is engine_before
                    assert ctx.rebuilds == rebuilds
                elif op.mutates_netlist:
                    assert ctx.rebuilds == rebuilds + 1
                else:
                    assert ctx.rebuilds == rebuilds
                if op is last_netlist_op:
                    last_netlist_op = None
            else:
                op = _draw_op(data.draw, netlist, forest)
                engine_before = ctx.engine
                applied.append((op, engine_before))
                rebuilds = ctx.rebuilds
                ctx.apply(op)
                # Every op re-times from the state it edits: a netlist op
                # patches a new engine instead of constructing one.
                assert ctx.rebuilds == rebuilds
                assert (ctx.engine is not engine_before) == op.mutates_netlist
                if op.mutates_netlist:
                    last_netlist_op = op
            cold = EcoContext(netlist, forest, _scenarios())
            assert _snapshot(ctx.run()) == _snapshot(cold.run())

    def test_reverted_reroute_restores_batch_state(self, spm_state):
        """A tree edit's revert puts the pre-apply ``BatchState`` back:
        the apply's query re-times from it into a new state without a
        full pass, and the query after the revert re-times nothing."""
        netlist, forest = clone_state(*spm_state)
        ctx = EcoContext(netlist, forest, _scenarios())
        base = _snapshot(ctx.run())
        sta, state = ctx.sta, ctx.sta._state
        full = sta.num_full
        op = RerouteOp(_routable_nets(netlist, forest)[0])
        ctx.apply(op)
        ctx.run()
        assert sta._state is not state  # re-timed into a new state
        ctx.revert(op)
        assert ctx.sta is sta and sta._state is state
        assert _snapshot(ctx.run()) == base
        assert sta.num_full == full  # the apply made no full pass either
        assert sta.last_dirty_trees == 0

    def test_reverted_netlist_op_restores_engine(self, spm_state):
        netlist, forest = clone_state(*spm_state)
        ctx = EcoContext(netlist, forest, _scenarios())
        base = _snapshot(ctx.run())
        engine, sta = ctx.engine, ctx.sta
        net, sink = _bufferable(netlist)[0]
        full = sta.num_full
        for op in (BufferInsertOp(net, sink), ResizeOp(*_resizable(netlist)[0][:2])):
            ctx.apply(op)
            ctx.run()
            assert ctx.sta is not sta and ctx.sta.num_full == full  # adopted
            ctx.revert(op)
            assert ctx.engine is engine and ctx.sta is sta
            assert _snapshot(ctx.run()) == base
            assert sta.num_full == full  # the restored state was current
            assert sta.last_dirty_trees == 0
        assert ctx.rebuilds == 0


def _array_bytes(obj):
    """Every array an object holds (one level of lists and tuples down)
    as bytes, in attribute order: to check the object was not written."""
    out = []
    for name, value in vars(obj).items():
        items = value if isinstance(value, (list, tuple)) else [value]
        out += [(name, v.tobytes()) for v in items if hasattr(v, "tobytes")]
    return out


def _state_bytes(state):
    """A ``BatchState``'s arrays, its caps' arrays and its identities
    (None for no state)."""
    if state is None:
        return None
    return (
        _array_bytes(state), _array_bytes(state.caps), id(state.flat), id(state.pert)
    )


@pytest.fixture(scope="module")
def picorv32a_state():
    return prepare_design("picorv32a")


class TestPatchedRetiming:
    """Every op re-times from the state it edits, exactly: the context's
    levelization equals the loop oracle, its answer equals a fresh full
    pass, and nothing it held before the apply is written."""

    @pytest.mark.parametrize("design", ["spm", "picorv32a"])
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_sequences_equal_fresh_full_passes(
        self, design, spm_state, picorv32a_state, data
    ):
        from repro.steiner.flat_forest import flat_forest_of
        from repro.testing.oracles import reference_levelized_pins

        from tests.test_sta import _assert_levelized_equal, _levelized_bytes

        state = spm_state if design == "spm" else picorv32a_state
        netlist, forest = clone_state(*state)
        ctx = EcoContext(netlist, forest, _scenarios())
        ctx.run()
        applied = []
        for _ in range(data.draw(st.integers(1, 6))):
            if applied and data.draw(st.booleans()):
                ctx.revert(applied.pop())
            else:
                op = _draw_op(data.draw, netlist, forest)
                # A nudge re-times its tree into the kept state in place;
                # an edit re-times into a new one.
                pert, flat = ctx.engine.pert(), flat_forest_of(forest)
                batch = None if isinstance(op, NudgeOp) else ctx.sta._state
                before = (_levelized_bytes(pert), _array_bytes(flat), _state_bytes(batch))
                ctx.apply(op)
                ctx.run()
                assert ctx.rebuilds == 0
                after = (_levelized_bytes(pert), _array_bytes(flat), _state_bytes(batch))
                assert after == before, op
                applied.append(op)
            _assert_levelized_equal(ctx.engine.pert(), reference_levelized_pins(netlist))
            fresh = ScenarioSTA(
                netlist, forest, _scenarios(), engine=STAEngine(netlist)
            )
            assert _snapshot(ctx.run()) == _snapshot(fresh.run())

    def test_warm_sa_job_neither_levelizes_nor_makes_a_full_pass(self):
        """A warm SA eco job on spm patches its engines and re-times its
        STA from the state each op edits: after the warm start no
        ``sta.levelize`` span and no full pass, and it still commits a
        netlist op (a patched engine)."""
        warm = WarmStateCache()
        ws = warm.workspace("spm")
        ws.probe_sta().run()
        job = Job(kind="eco", design="spm", params={"arm": "sa", "seed": 0, "steps": 20})
        pins = ws.netlist.num_pins
        with Telemetry() as tel, telemetry_session(tel):
            value = default_handlers(warm)["eco"](job, JobContext(job=job))
        spans = [e["name"] for e in tel.events if e["kind"] == "span_start"]
        assert value["rebuilds"] == 0 and ws.netlist.num_pins > pins
        assert "sta.levelize" not in spans
        assert spans.count("sta.patch") > 0
        assert tel.counters.get("mcmm.full_rebuilds", 0) == 0
        assert tel.counters.get("mcmm.patched_states", 0) > 0
        _assert_matches_fresh_sta(ws)


class TestDirtyCone:
    def test_changed_endpoints_within_cone(self, spm_state):
        """Slack changes after an op stay inside its declared cone."""
        netlist, forest = clone_state(*spm_state)
        ctx = EcoContext(netlist, forest, _scenarios())
        base = ctx.run()
        endpoints = {ep for m in base.scenarios for ep in m.slack}

        ops = [NudgeOp(_nudge_nets(netlist, forest)[0], 5.0, 5.0)]
        moves = _resizable(netlist)
        if moves:
            cell, to_ct, frm = moves[0]
            ops.append(ResizeOp(cell, to_ct, from_name=frm))
        pairs = _bufferable(netlist)
        if pairs:
            ops.append(BufferInsertOp(pairs[0][0], pairs[0][1]))

        for op in ops:
            ctx.apply(op)
            cone = set(dirty_cone(ctx.netlist, ctx.dirty_nets_of(op)))
            after = ctx.run()
            changed = set()
            for m0, m1 in zip(base.scenarios, after.scenarios):
                for ep, s0 in m0.slack.items():
                    if m1.slack.get(ep, s0) != s0:
                        changed.add(ep)
            assert changed <= cone, op.describe()
            assert cone <= endpoints
            ctx.revert(op)


class TestDriver:
    def test_config_validation(self):
        with pytest.raises(ValueError, match="unknown ECO arm"):
            EcoConfig(arm="annealing")
        with pytest.raises(ValueError, match="unknown ECO op kinds"):
            EcoConfig(op_kinds=("buffer", "teleport"))

    def test_run_eco_never_regresses_and_is_seeded(self, spm_state):
        cfg = EcoConfig(arm="greedy", max_ops=2, max_rounds=3, trials_per_round=3)
        nl, fo = clone_state(*spm_state)
        res = run_eco(nl, fo, config=cfg, scenarios=_scenarios())
        assert res.final["score"] >= res.initial["score"]
        assert res.num_accepted == len(res.accepted)
        nl2, fo2 = clone_state(*spm_state)
        res2 = run_eco(nl2, fo2, config=cfg, scenarios=_scenarios())
        assert res2.digest == res.digest
        assert res2.final == res.final

    @pytest.mark.parametrize("seed", [0, 7])
    def test_sa_digest_deterministic_under_seed(self, spm_state, seed):
        cfg = EcoConfig(arm="sa", seed=seed, sa_steps=12, max_ops=3)
        digests = []
        for _ in range(2):
            nl, fo = clone_state(*spm_state)
            res = run_eco(nl, fo, config=cfg, scenarios=_scenarios())
            digests.append((res.digest, tuple(res.accepted)))
        assert digests[0] == digests[1]

    def test_steiner_only_kinds_accept_no_discrete_ops(self, spm_state):
        nl, fo = clone_state(*spm_state)
        cfg = EcoConfig(arm="hybrid", op_kinds=("reroute", "nudge"), max_ops=3)
        res = run_eco(nl, fo, config=cfg, scenarios=_scenarios())
        assert not any(
            d.startswith(("buf ", "resize ")) for d in res.accepted
        )
        assert res.area_delta == 0.0


#: Accepted-op digests of each arm with default knobs (SA: seed 3, 20
#: steps) over ``_scenarios()``; they must not move with perf work.
_SPM_DIGESTS = {
    "greedy": "a3ab6b1df939acfc",
    "sa": "1f6b818189ec8576",
    "hybrid": "a3ab6b1df939acfc",
}
_DES3_DIGESTS = {
    "greedy": "149081d040780a02",
    "sa": "fd3c7983b7422802",
    "hybrid": "6bdb90284e130a41",
}


def _arm_digest(state, arm):
    kw = dict(sa_steps=20, seed=3) if arm == "sa" else {}
    nl, fo = clone_state(*state)
    return run_eco(nl, fo, config=EcoConfig(arm=arm, **kw), scenarios=_scenarios()).digest


@pytest.mark.parametrize("arm", sorted(_SPM_DIGESTS))
def test_spm_arm_digests_pinned(spm_state, arm):
    assert _arm_digest(spm_state, arm) == _SPM_DIGESTS[arm]


@pytest.mark.eco_smoke
@pytest.mark.parametrize("arm", sorted(_DES3_DIGESTS))
def test_des3_arm_digests_pinned(arm):
    assert _arm_digest(prepare_design("des3"), arm) == _DES3_DIGESTS[arm]


# ----------------------------------------------------------------------
# Serving integration: the eco job kind and the structural commit path
# ----------------------------------------------------------------------
def _run(coro, timeout=120.0):
    return asyncio.run(asyncio.wait_for(coro, timeout=timeout))


class TestServingEco:
    def test_legacy_mix_tuple_keeps_job_sequence(self):
        old = TrafficConfig(jobs=40, mix=(5.0, 3.0, 1.0, 0.0), seed=3)
        new = TrafficConfig(jobs=40, mix=(5.0, 3.0, 1.0, 0.0, 0.0), seed=3)
        assert make_jobs(old) == make_jobs(new)
        assert not any(j["kind"] == "eco" for j in make_jobs(old))

    def test_eco_weight_produces_seeded_eco_jobs(self):
        cfg = TrafficConfig(
            jobs=40, mix=(2.0, 1.0, 0.0, 0.0, 4.0), seed=1, eco_arm="sa"
        )
        jobs = make_jobs(cfg)
        ecos = [j for j in jobs if j["kind"] == "eco"]
        assert ecos, "eco weight > 0 must generate eco jobs"
        for j in ecos:
            assert j["params"]["arm"] == "sa"
            assert j["params"]["seed"] == 1
        assert make_jobs(cfg) == jobs  # seeded: same sequence every time

    def test_eco_job_commits_structural_invalidation(self):
        """A real eco job mutates warm state and rebuilds its caches."""

        async def scenario():
            warm = WarmStateCache()
            svc = SignoffService(handlers=default_handlers(warm), warm=warm, workers=1)
            async with svc:
                ws = warm.workspace("spm")
                ws.incremental()  # pin caches an ECO must discard
                old_engine = ws.engine
                ticket = svc.submit(
                    "eco",
                    "spm",
                    {
                        "arm": "greedy",
                        "seed": 0,
                        "max_ops": 2,
                        "max_rounds": 2,
                        "trials": 2,
                        "corners": list(CORNERS),
                    },
                )
                result = await ticket.wait()
                await svc.drain()
            assert result.ok, result.error
            assert result.value["digest"]
            assert result.value["arm"] == "greedy"
            assert ws._inc is None  # structural invalidation dropped it
            assert ws.engine is not old_engine  # engine rebound to mutation
            return result

        _run(scenario())

    def test_eco_traffic_loses_nothing(self):
        """Zero-lost invariant holds with eco jobs in the mix."""

        async def scenario():
            warm = WarmStateCache()
            svc = SignoffService(handlers=default_handlers(warm), warm=warm, workers=2)
            cfg = TrafficConfig(
                jobs=10,
                designs=("spm",),
                seed=0,
                mix=(4.0, 2.0, 0.0, 0.0, 2.0),
                eco_arm="sa",
                eco_steps=6,
            )
            async with svc:
                report = await run_load(svc, cfg)
            return report

        report = _run(scenario())
        assert report.lost == 0
        assert report.quarantined == 0
        assert report.by_kind.get("eco", 0) > 0
        assert report.done == report.submitted


class _KillAtHeartbeat:
    """Chaos stub: the ``n``-th heartbeat raises WorkerKilled."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.calls = 0

    def tick(self, job) -> None:
        self.calls += 1
        if self.calls == self.n:
            raise WorkerKilled(f"killed at heartbeat {self.n}")


class TestInterruptedEco:
    def test_killed_eco_job_leaves_consistent_workspace(self):
        """A kill between SA steps keeps the accepted ops in the netlist;
        the workspace must still invalidate so the next sign-off read
        times the mutated netlist exactly like a fresh engine."""
        warm = WarmStateCache()
        ws = warm.workspace("spm")
        ws.probe_sta().run()
        ws.scenario_sta(CORNERS).run()
        pins_before = ws.netlist.num_pins
        job = Job(kind="eco", design="spm", params={"arm": "sa", "seed": 0, "steps": 20})
        with pytest.raises(WorkerKilled):
            default_handlers(warm)["eco"](
                job, JobContext(job=job, chaos=_KillAtHeartbeat(5))
            )
        assert ws.netlist.num_pins > pins_before  # a buffer was accepted

        for sta, scenarios in (
            (ws.probe_sta(), ScenarioSet.default()),
            (ws.scenario_sta(CORNERS), ScenarioSet.from_names(CORNERS)),
        ):
            fresh = ScenarioSTA(
                ws.netlist, ws.forest, scenarios, engine=STAEngine(ws.netlist)
            )
            assert _snapshot(sta.run()) == _snapshot(fresh.run())


def _levelize_spans(tel) -> int:
    return sum(
        1 for e in tel.events
        if e["kind"] == "span_start" and e["name"] == "sta.levelize"
    )


def _assert_matches_fresh_sta(ws):
    """The warm incremental read equals a fresh engine's full STA."""
    got = ws.incremental().run()
    want = STAEngine(ws.netlist).run(ws.forest)
    assert got.arrival.tobytes() == want.arrival.tobytes()
    assert got.slack == want.slack
    assert (got.wns, got.tns) == (want.wns, want.tns)


class TestEcoCommitAdoption:
    """A completed eco job adopts the engine its ECO context ended with;
    an interrupted one rebuilds (docs/ECO.md)."""

    _PARAMS = {"arm": "sa", "seed": 0, "steps": 20}

    def test_commit_adopts_the_final_engine(self):
        from repro.steiner.flat_forest import flat_cache_entry

        warm = WarmStateCache()
        ws = warm.workspace("spm")
        ws.incremental().run()
        old_engine, pins_before = ws.engine, ws.netlist.num_pins
        job = Job(kind="eco", design="spm", params=dict(self._PARAMS))
        default_handlers(warm)["eco"](job, JobContext(job=job))
        assert ws.netlist.num_pins > pins_before  # a buffer was accepted
        assert ws.engine is not old_engine
        assert ws.engine.netlist is ws.netlist
        assert ws._inc is None  # the adopted probe STA, re-wrapped lazily
        assert ws._probe_sta.engine is ws.engine
        assert flat_cache_entry(ws.forest) is not None  # digest kept

        engine = ws.engine
        with Telemetry() as tel, telemetry_session(tel):
            ws.incremental().run()
            assert _levelize_spans(tel) == 0  # the adopted levelization
        assert ws.engine is engine
        _assert_matches_fresh_sta(ws)

    def test_interrupted_run_takes_the_full_invalidate(self):
        warm = WarmStateCache()
        ws = warm.workspace("spm")
        ws.incremental().run()
        job = Job(kind="eco", design="spm", params=dict(self._PARAMS))
        with pytest.raises(WorkerKilled):
            default_handlers(warm)["eco"](
                job, JobContext(job=job, chaos=_KillAtHeartbeat(5))
            )
        with Telemetry() as tel, telemetry_session(tel):
            ws.incremental().run()
            assert _levelize_spans(tel) == 1  # a freshly built engine
        _assert_matches_fresh_sta(ws)


class TestEcoWarmStart:
    """A neutral eco job starts from the workspace's timed probe STA and
    its engine; a completed one hands that STA back (docs/SERVING.md)."""

    _PARAMS = {"arm": "sa", "seed": 0, "steps": 20}

    @staticmethod
    def _warm():
        warm = WarmStateCache()
        ws = warm.workspace("spm")
        ws.probe_sta().run()
        return warm, ws

    @staticmethod
    def _job(warm, kind, params, chaos=None):
        job = Job(kind=kind, design="spm", params=dict(params))
        return default_handlers(warm)[kind](job, JobContext(job=job, chaos=chaos))

    @pytest.mark.parametrize("arm", ["sa", "greedy"])
    def test_warm_job_answers_as_a_cold_context(self, arm):
        warm, ws = self._warm()
        netlist, forest = clone_state(ws.netlist, ws.forest)
        config = EcoConfig(
            arm=arm, seed=0, max_ops=4, max_rounds=6, trials_per_round=4, sa_steps=20
        )
        cold = run_eco(netlist, forest, config, context=EcoContext(netlist, forest))
        value = self._job(warm, "eco", dict(self._PARAMS, arm=arm))
        assert cold.num_accepted > 0
        assert value["digest"] == cold.digest
        assert value["initial"] == cold.initial
        assert value["final"] == cold.final

    def test_no_levelization_or_full_pass_before_the_first_op(self, monkeypatch):
        warm, ws = self._warm()
        sta = ws.probe_sta()
        full = sta.num_full
        seen = []
        apply = EcoContext.apply

        def spy(ctx, op):
            if not seen:
                seen.append((_levelize_spans(tel), ctx.sta is sta, sta.num_full))
            return apply(ctx, op)

        monkeypatch.setattr(EcoContext, "apply", spy)
        with Telemetry() as tel, telemetry_session(tel):
            self._job(warm, "eco", self._PARAMS)
        assert seen == [(0, True, full)]

    def test_first_reads_after_commit_make_no_full_pass(self):
        warm, ws = self._warm()
        self._job(warm, "eco", self._PARAMS)
        sta = ws.probe_sta()
        assert sta.engine is ws.engine
        full = sta.num_full
        self._job(warm, "whatif", {"point": 0, "dx": 1.0, "dy": -1.0})
        signoff = self._job(warm, "signoff", {})
        assert ws.probe_sta() is sta and sta.num_full == full
        fresh = STAEngine(ws.netlist).run(ws.forest)
        assert (signoff["wns"], signoff["tns"]) == (fresh.wns, fresh.tns)
        _assert_matches_fresh_sta(ws)
        assert sta.num_full == full

    def test_interrupted_job_drops_the_probe_sta(self):
        warm, ws = self._warm()
        sta = ws.probe_sta()
        with pytest.raises(WorkerKilled):
            self._job(warm, "eco", self._PARAMS, chaos=_KillAtHeartbeat(5))
        assert ws._probe_sta is None
        with Telemetry() as tel, telemetry_session(tel):
            assert ws.probe_sta() is not sta
            ws.probe_sta().run()
            assert _levelize_spans(tel) == 1
        _assert_matches_fresh_sta(ws)

    def test_corner_job_builds_its_own_context(self, monkeypatch):
        warm, ws = self._warm()
        sta = ws.probe_sta()
        queries = sta.num_queries
        given = []
        init = EcoContext.__init__

        def spy(ctx, *args, **kwargs):
            given.append(kwargs.get("sta"))
            init(ctx, *args, **kwargs)

        monkeypatch.setattr(EcoContext, "__init__", spy)
        self._job(warm, "eco", dict(self._PARAMS, corners=list(CORNERS)))
        assert given == [None]
        assert sta.num_queries == queries  # the probe STA was not driven
        assert ws._probe_sta is None
        _assert_matches_fresh_sta(ws)


class TestPerNetPinPositions:
    def test_fresh_trees_read_only_their_pins(self, spm_state, monkeypatch):
        """After ``add_cell``, the rows ``_fresh_tree`` reads, for ports
        and cell pins alike, equal ``pin_positions()``'s bitwise, and
        neither it nor ``BufferInsertOp.apply`` reads the whole design."""
        from repro.eco.ops import _fresh_tree
        from repro.netlist.netlist import Netlist

        netlist, forest = clone_state(*spm_state)
        pairs = _bufferable(netlist)
        BufferInsertOp(*pairs[0]).apply(netlist, forest)
        want = netlist.pin_positions()

        def whole_design(self):
            raise AssertionError("whole-design pin_positions() read")

        monkeypatch.setattr(Netlist, "pin_positions", whole_design)
        nets = [n for n in netlist.nets if n.degree > 1]
        assert any(netlist.pins[p].is_port for n in nets for p in n.pins)
        assert any(netlist.pins[p].cell_index >= 0 for p in nets[-1].pins)
        for net in nets:
            tree = _fresh_tree(netlist, net.index)
            assert tree.pin_ids == net.pins
            assert tree.pin_xy.tobytes() == want[net.pins].tobytes()
        BufferInsertOp(*pairs[-1]).apply(netlist, forest)


class TestWorkspaceInvalidation:
    def test_structural_invalidation_drops_pinned_state(self):
        ws = DesignWorkspace("spm")
        ws.ensure_loaded()
        ws.incremental()
        ws.probe_sta()
        ws.scenario_sta(CORNERS)
        old_engine = ws.engine
        from repro.steiner.flat_forest import flat_cache_entry

        ws.probe_sta().run()  # populates the forest's flat memo
        entry = flat_cache_entry(ws.forest)
        assert entry is not None

        with Telemetry() as tel, telemetry_session(tel):
            ws.invalidate(reason="eco", structural=True)
            events = [e for e in tel.events if e.get("kind") == "workspace_invalidated"]

        assert ws._inc is None
        assert ws._probe_sta is None
        assert ws._scenario_stas == {}
        assert ws._graph is None and ws._congestion is None
        assert flat_cache_entry(ws.forest) is entry  # cap-free: nothing stale
        assert ws.engine is not old_engine
        assert tel.counters.get("serve.invalidations") == 1
        assert events and events[0]["reason"] == "eco"
        assert events[0]["structural"] is True

    def test_coordinate_invalidation_keeps_pinned_objects(self):
        ws = DesignWorkspace("spm")
        ws.ensure_loaded()
        inc = ws.incremental()
        engine = ws.engine
        ws.invalidate_timing()
        assert ws._inc is inc
        assert ws.engine is engine


# ----------------------------------------------------------------------
# des3 closure: the eco-smoke CI gate (heavier, real sign-off compute)
# ----------------------------------------------------------------------
#: Stretches the des3 clock so the worst endpoints violate marginally:
#: shallow enough that discrete ops (resize/buffer) close them, deep
#: enough that geometry-only refinement cannot.
_SEED_CLOCK_SCALE = 7.876


def _seeded_scenarios() -> ScenarioSet:
    return ScenarioSet(
        [
            Scenario(
                get_corner("slow_setup"), Mode("eco_seed", clock_scale=_SEED_CLOCK_SCALE)
            ),
            Scenario(get_corner("fast_hold"), Mode("func")),
        ]
    )


@pytest.mark.eco_smoke
def test_des3_discrete_ops_close_violations_steiner_cannot():
    """The ISSUE acceptance check, pinned: on des3 with seeded marginal
    violations, the greedy discrete arm closes endpoints the
    Steiner-only (reroute+nudge) reference arm cannot, by accepting at
    least one netlist-mutating op — and does so deterministically."""
    from repro.experiments.eco import arm_config

    netlist, forest = prepare_design("des3")

    def endpoint_slacks(nl, fo):
        rep = ScenarioSTA(nl, fo, _seeded_scenarios()).run()
        return {(m.name, m.check): dict(m.slack) for m in rep.scenarios}

    base = endpoint_slacks(netlist, forest)

    def closed_by(arm):
        nl, fo = clone_state(netlist, forest)
        res = run_eco(
            nl, fo, config=arm_config(arm, seed=0), scenarios=_seeded_scenarios()
        )
        final = endpoint_slacks(nl, fo)
        closed = {
            (key, ep)
            for key, sl0 in base.items()
            for ep, v in sl0.items()
            if v < 0.0 and final[key].get(ep, v) >= 0.0
        }
        return res, closed

    steiner_res, steiner_closed = closed_by("steiner")
    greedy_res, greedy_closed = closed_by("greedy")

    # The reference arm only moved geometry.
    assert not any(
        d.startswith(("buf ", "resize ")) for d in steiner_res.accepted
    )
    # The discrete arm accepted at least one netlist-mutating op...
    discrete = [
        d for d in greedy_res.accepted if d.startswith(("buf ", "resize "))
    ]
    assert discrete, greedy_res.accepted
    # ...and closed violations Steiner refinement alone could not.
    assert greedy_closed - steiner_closed, (
        f"greedy closed {len(greedy_closed)}, steiner {len(steiner_closed)}"
    )
    assert greedy_res.final["violations"] < greedy_res.initial["violations"]

    # Bitwise-reproducible verdict under the same seed.
    repeat_res, repeat_closed = closed_by("greedy")
    assert repeat_res.digest == greedy_res.digest
    assert repeat_res.final == greedy_res.final
    assert repeat_closed == greedy_closed
