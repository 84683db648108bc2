"""Serving v2 tests: query fusion.

The contract under test (docs/SERVING.md, "Scaling"):

* concurrent ``whatif``/``signoff`` jobs per design coalesce into one
  fused dispatch whose per-member answers are **bitwise equal** to
  unbatched execution (hypothesis-tested on a real design);
* fused members keep their own tickets, accounting stays per member,
  and a worker death mid-batch requeues the carrier whole — zero lost;
* SLO burn-rate alerting still fires and clears with batching enabled
  (members are observed individually, not per carrier).
"""

import asyncio

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import Telemetry, telemetry_session
from repro.obs.slo import SLObjective
from repro.runtime import ManualClock
from repro.serve import (
    BatchConfig,
    ChaosMonkey,
    KillWorker,
    SignoffService,
    WarmStateCache,
    virtual_asleep,
)
from repro.serve.jobs import DEFAULT_PRIORITY


def run(coro, timeout=30.0):
    """Run one scenario with a hang bound (lost-job detector)."""
    return asyncio.run(asyncio.wait_for(coro, timeout=timeout))


class FusedRecorder:
    """Synthetic fusion-aware handlers recording dispatch shapes."""

    def __init__(self):
        self.calls = []  # (kind, design, fused, width)
        self.block = None  # asyncio.Event: handlers wait on it first
        self.bad_fused_return = False

    def make(self):
        async def handler(job, ctx):
            if self.block is not None:
                await self.block.wait()
            ctx.heartbeat()
            self.calls.append((job.kind, job.design, job.fused, job.width()))
            if job.fused:
                if self.bad_fused_return:
                    return {"not": "a list"}
                return [
                    {"design": m.design, "member": m.job_id} for m in job.members
                ]
            return {"design": job.design, "member": job.job_id}

        return {kind: handler for kind in DEFAULT_PRIORITY}


def make_service(rec=None, **kw):
    rec = rec or FusedRecorder()
    kw.setdefault("handlers", rec.make())
    kw.setdefault("retry_backoff", 0.0)
    return rec, SignoffService(**kw)


# ----------------------------------------------------------------------
# Query fusion (synthetic handlers, no designs)
# ----------------------------------------------------------------------
class TestQueryBatcher:
    def test_same_tick_burst_fuses_into_one_carrier(self):
        async def scenario():
            rec, svc = make_service(workers=1, batching=True)
            async with svc:
                tickets = [svc.submit("whatif", "spm") for _ in range(4)]
                results = [await t.wait() for t in tickets]
            assert all(r.ok for r in results)
            # Each member got its own answer back, in submission order.
            assert [r.value["member"] for r in results] == [
                t.job.job_id for t in tickets
            ]
            fused_calls = [c for c in rec.calls if c[2]]
            assert fused_calls == [("whatif", "spm", True, 4)]
            assert svc.stats.batches == 1
            assert svc.stats.fused_jobs == 4
            assert svc.stats.mean_batch_width() == pytest.approx(4.0)
            assert svc.stats.lost() == 0

        run(scenario())

    def test_lone_job_passes_through_unfused(self):
        async def scenario():
            rec, svc = make_service(workers=1, batching=True)
            async with svc:
                result = await svc.submit("signoff", "spm").wait()
            assert result.ok
            assert rec.calls == [("signoff", "spm", False, 1)]
            assert svc.stats.batches == 0

        run(scenario())

    def test_distinct_designs_and_kinds_bucket_separately(self):
        async def scenario():
            rec, svc = make_service(workers=1, batching=True)
            async with svc:
                ts = [
                    svc.submit("whatif", "a"),
                    svc.submit("whatif", "a"),
                    svc.submit("whatif", "b"),
                    svc.submit("signoff", "a"),
                ]
                for t in ts:
                    assert (await t.wait()).ok
            # Only the two whatif/a jobs fused; the others ran alone.
            assert svc.stats.batches == 1
            assert svc.stats.fused_jobs == 2

        run(scenario())

    def test_max_batch_caps_carrier_width(self):
        async def scenario():
            rec, svc = make_service(
                workers=1, batching=BatchConfig(max_batch=2, linger_s=0.0)
            )
            async with svc:
                ts = [svc.submit("whatif", "spm") for _ in range(5)]
                for t in ts:
                    assert (await t.wait()).ok
            widths = [c[3] for c in rec.calls]
            assert max(widths) <= 2
            assert svc.stats.fused_jobs + widths.count(1) == 5
            assert svc.stats.lost() == 0

        run(scenario())

    def test_linger_runs_on_virtual_clock(self):
        async def scenario():
            clock = ManualClock()
            rec, svc = make_service(
                workers=1,
                clock=clock.now,
                asleep=virtual_asleep(clock),
                batching=BatchConfig(max_batch=8, linger_s=5.0),
            )
            async with svc:
                result = await svc.submit("whatif", "spm").wait()
            assert result.ok
            # The bucket waited its full linger window — in virtual time.
            assert clock.now() == pytest.approx(5.0)

        run(scenario())

    def test_refine_bypasses_the_batcher(self):
        async def scenario():
            rec, svc = make_service(workers=1, batching=True)
            async with svc:
                ts = [svc.submit("refine", "spm") for _ in range(3)]
                for t in ts:
                    assert (await t.wait()).ok
            assert svc.stats.batches == 0
            assert all(not c[2] for c in rec.calls)

        run(scenario())

    def test_parked_members_count_against_admission(self):
        async def scenario():
            from repro.serve import AdmissionConfig

            rec, svc = make_service(
                workers=1,
                admission=AdmissionConfig(max_pending=2),
                batching=BatchConfig(max_batch=8, linger_s=0.0),
            )
            rec.block = asyncio.Event()
            async with svc:
                ts = [svc.submit("whatif", "spm") for _ in range(3)]
                rec.block.set()
                results = [await t.wait() for t in ts]
            # The third submit saw two parked members as pending backlog.
            assert [r.status for r in results] == ["done", "done", "rejected"]
            assert svc.stats.shed == 1
            assert svc.stats.lost() == 0

        run(scenario())

    def test_bad_fused_return_quarantines_every_member(self):
        async def scenario():
            rec, svc = make_service(workers=1, max_attempts=1, batching=True)
            rec.bad_fused_return = True
            async with svc:
                ts = [svc.submit("whatif", "spm") for _ in range(3)]
                results = [await t.wait() for t in ts]
            assert all(r.status == "quarantined" for r in results)
            assert all("fused whatif handler returned" in r.error for r in results)
            assert svc.stats.quarantined == 3
            assert svc.stats.lost() == 0

        run(scenario())

    def test_worker_death_mid_batch_requeues_carrier_whole(self):
        async def scenario():
            chaos = ChaosMonkey(KillWorker(job="whatif", on_attempt=1, at_tick=0))
            rec, svc = make_service(
                workers=2, max_attempts=3, chaos=chaos, batching=True
            )
            async with svc:
                ts = [svc.submit("whatif", "spm") for _ in range(4)]
                results = [await t.wait() for t in ts]
            assert all(r.ok for r in results)
            # The carrier died once and was retried intact: one batch,
            # every member answered on attempt 2, nothing lost.
            assert all(r.attempts == 2 for r in results)
            assert svc.stats.batches == 1
            assert svc.stats.worker_deaths == 1
            assert svc.stats.lost() == 0

        run(scenario())

    def test_batch_events_reach_the_report_section(self):
        from repro.obs.report import summarize_serving

        async def scenario():
            rec, svc = make_service(workers=1, batching=True)
            async with svc:
                ts = [svc.submit("whatif", "spm") for _ in range(4)]
                for t in ts:
                    await t.wait()

        with Telemetry() as tel, telemetry_session(tel):
            run(scenario())
            events = list(tel.events)
        summary = summarize_serving(events)
        assert summary["batches"] == 1
        assert summary["fused_jobs"] == 4
        assert summary["mean_batch_width"] == pytest.approx(4.0)
        assert summary["fusion_ratio"] == pytest.approx(1.0)


# ----------------------------------------------------------------------
# SLO alerting with batching enabled
# ----------------------------------------------------------------------
class TestSLOWithBatching:
    def test_alert_fires_on_fused_latency_and_clears(self):
        clock = ManualClock()
        slow_mode = {"on": True}

        async def handler(job, ctx):
            clock.advance(0.2 if slow_mode["on"] else 0.001)
            if job.fused:
                return [{"design": m.design} for m in job.members]
            return {"design": job.design}

        objective = SLObjective(
            name="lat",
            kind="signoff",
            target=0.9,
            latency_threshold_s=0.05,
            windows=((10.0, 2.0, 2.0),),
        )

        async def scenario():
            svc = SignoffService(
                handlers={k: handler for k in DEFAULT_PRIORITY},
                workers=1,
                clock=clock.now,
                asleep=virtual_asleep(clock),
                slo=[objective],
                batching=True,
            )
            async with svc:
                # Two fused bursts of slow signoffs: 8 bad member
                # observations — the engine sees members, not carriers.
                for _ in range(2):
                    ts = [svc.submit("signoff", "spm") for _ in range(4)]
                    for t in ts:
                        await t.wait()
                assert svc.slo.firing() == ["lat"]
                # Fault stops; fast fused traffic slides the windows clean.
                slow_mode["on"] = False
                for _ in range(100):
                    ts = [svc.submit("signoff", "spm") for _ in range(2)]
                    for t in ts:
                        await t.wait()
                    clock.advance(0.2)
                assert svc.slo.firing() == []
            (status,) = svc.slo_final
            assert status["fired_total"] == 1
            assert status["cleared_total"] == 1
            assert svc.stats.batches >= 2

        run(scenario())


# ----------------------------------------------------------------------
# Real-design bitwise parity: fused == serial (hypothesis)
# ----------------------------------------------------------------------
_PARITY = {}


def _parity_handlers():
    """One warm spm workspace shared by every hypothesis example."""
    if not _PARITY:
        from repro.serve.handlers import default_handlers

        cache = WarmStateCache(scale=0.5)
        _PARITY["cache"] = cache
        _PARITY["handlers"] = default_handlers(cache)
    return _PARITY["cache"], _PARITY["handlers"]


@pytest.mark.slow
class TestFusedParity:
    @settings(max_examples=4, deadline=None)
    @given(
        specs=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=9_999),
                st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
                st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
            ),
            min_size=2,
            max_size=6,
        )
    )
    def test_fused_whatif_bitwise_equals_serial(self, specs):
        cache, handlers = _parity_handlers()

        async def scenario():
            async with SignoffService(handlers=handlers, warm=cache, workers=1) as svc:
                ts = [
                    svc.submit("whatif", "spm", {"point": p, "dx": dx, "dy": dy})
                    for p, dx, dy in specs
                ]
                serial = [(await t.wait()).value for t in ts]
            async with SignoffService(
                handlers=handlers,
                warm=cache,
                workers=1,
                batching=BatchConfig(max_batch=len(specs), linger_s=0.0),
            ) as svc:
                ts = [
                    svc.submit("whatif", "spm", {"point": p, "dx": dx, "dy": dy})
                    for p, dx, dy in specs
                ]
                fused = [(await t.wait()).value for t in ts]
                assert svc.stats.batches == 1
                assert svc.stats.fused_jobs == len(specs)
            # Dict equality on float WNS/TNS values is exact — the fused
            # probe rows are bitwise-equal to their serial runs.
            assert fused == serial

        run(scenario(), timeout=240.0)

    def test_fused_signoff_dedupes_and_matches_serial(self):
        cache, handlers = _parity_handlers()
        params = [
            {"corners": ["typ"]},
            {"corners": ["typ"]},
            {"corners": ["slow_setup", "fast_hold"]},
        ]

        async def scenario():
            async with SignoffService(handlers=handlers, warm=cache, workers=1) as svc:
                ts = [svc.submit("signoff", "spm", p) for p in params]
                serial = [(await t.wait()).value for t in ts]
            async with SignoffService(
                handlers=handlers, warm=cache, workers=1, batching=True
            ) as svc:
                ts = [svc.submit("signoff", "spm", p) for p in params]
                fused = [(await t.wait()).value for t in ts]
                assert svc.stats.batches == 1
            assert fused == serial

        run(scenario(), timeout=240.0)


class TestSharedNeutralEngine:
    """One neutral ``ScenarioSTA`` per workspace serves what-if probes,
    neutral sign-off and the ``IncrementalSTA`` view (docs/SERVING.md)."""

    def test_incremental_and_probe_share_one_state(self):
        from repro.serve import DesignWorkspace

        ws = DesignWorkspace("spm")
        inc = ws.incremental()
        assert inc.sta is ws.probe_sta() is ws.scenario_sta()
        assert ws.scenario_sta(("typ",), "func") is ws.probe_sta()
        inc.run()
        assert inc._state is not None and inc._state is ws.probe_sta()._state
        ws.probe_sta().run()
        assert ws.probe_sta().num_full == 1  # the second query reused the state

    def test_whatif_then_signoff_equals_fresh_full_sta(self):
        import numpy as np

        from repro.serve.handlers import default_handlers
        from repro.sta.engine import STAEngine

        cache = WarmStateCache(scale=0.5)
        move = {"point": 3, "dx": 2.5, "dy": -1.5}

        async def scenario():
            async with SignoffService(
                handlers=default_handlers(cache), warm=cache, workers=1
            ) as svc:
                whatif = await svc.submit("whatif", "spm", move).wait()
                signoff = await svc.submit("signoff", "spm", {}).wait()
            return whatif.value, signoff.value

        whatif, signoff = run(scenario(), timeout=120.0)
        ws = cache.workspace("spm")
        warm = ws.incremental().run()
        assert ws.probe_sta().num_full == 1  # whatif, sign-off and view share one state
        fresh = STAEngine(ws.netlist).run(ws.forest)
        assert signoff == {"design": "spm", "wns": fresh.wns, "tns": fresh.tns, "stale": False}
        assert warm.slack == fresh.slack
        assert np.array_equal(warm.arrival, fresh.arrival, equal_nan=True)

        moved = ws.forest.copy()
        coords = moved.get_steiner_coords()
        coords[move["point"] % len(coords)] += (move["dx"], move["dy"])
        moved.set_steiner_coords(moved.clamp_coords(coords))
        probe = STAEngine(ws.netlist).run(moved)
        assert (whatif["wns"], whatif["tns"]) == (probe.wns, probe.tns)
        assert whatif["delta_wns"] == probe.wns - fresh.wns


    def test_whatif_clamps_only_the_moved_point(self):
        """A committed point off the die stays put: a probe of another
        point dirties its own tree alone, and a zero move is a zero
        delta."""
        from repro.serve.handlers import default_handlers
        from repro.steiner.flat_forest import flat_forest_of

        cache = WarmStateCache(scale=0.5)
        ws = cache.workspace("spm")
        coords = ws.forest.get_steiner_coords()
        coords[0] = (ws.netlist.die_width + 7.0, -3.0)
        ws.forest.set_steiner_coords(coords)
        tree = flat_forest_of(ws.forest).steiner_tree
        other = int(np.flatnonzero(tree != tree[0])[0])

        async def scenario():
            async with SignoffService(
                handlers=default_handlers(cache), warm=cache, workers=1
            ) as svc:
                moved = await svc.submit(
                    "whatif", "spm", {"point": other, "dx": 2.5, "dy": -1.5}
                ).wait()
                still = await svc.submit(
                    "whatif", "spm", {"point": other, "dx": 0.0, "dy": 0.0}
                ).wait()
            return moved.value, still.value

        moved, still = run(scenario(), timeout=120.0)
        assert moved["dirty_trees"] == 1
        assert still["dirty_trees"] == 0
        assert (still["delta_wns"], still["delta_tns"]) == (0.0, 0.0)
        assert ws.forest.coords[0].tolist() == coords[0].tolist()

    def test_signoff_after_refine_commit_retimes_without_full_pass(self):
        """A committed ``refine`` makes no invalidation call: the next
        sign-off re-times the moved trees from the warm state and equals
        a fresh full STA."""
        from repro.serve.handlers import default_handlers
        from repro.sta.engine import STAEngine

        cache = WarmStateCache(scale=0.5)
        ws = cache.workspace("spm")
        ws.probe_sta().run()
        before = ws.forest.get_steiner_coords()

        async def scenario():
            async with SignoffService(
                handlers=default_handlers(cache), warm=cache, workers=1
            ) as svc:
                refined = await svc.submit("refine", "spm", {"iterations": 10}).wait()
                signoff = await svc.submit("signoff", "spm", {}).wait()
            return refined, signoff.value

        refined, signoff = run(scenario(), timeout=240.0)
        assert refined.ok, refined.error
        assert not np.array_equal(ws.forest.get_steiner_coords(), before)
        assert ws.probe_sta().num_full == 1
        fresh = STAEngine(ws.netlist).run(ws.forest.copy())
        assert signoff == {"design": "spm", "wns": fresh.wns, "tns": fresh.tns, "stale": False}
