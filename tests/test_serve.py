"""Serving-layer tests (``repro.serve``): supervision, chaos, backpressure.

The contract under test (docs/SERVING.md): every accepted job terminates
as ``done`` or ``quarantined`` — never silently lost — under worker
kills, checkpoint corruption, queue delays and saturation; a killed
``refine`` resumes from its checkpoint to the byte-identical fault-free
answer; a saturated queue sheds with ``retry_after`` and answers
``signoff`` queries from last-known state flagged stale.

All chaos is deterministic (tick indices, seeded traffic, virtual
clocks) — nothing here sleeps on the wall clock except the real-design
smoke tests' actual compute.
"""

import asyncio

import pytest

from repro.obs import Telemetry, telemetry_session
from repro.runtime import ManualClock
from repro.serve import (
    AdmissionConfig,
    AdmissionController,
    ChaosMonkey,
    CorruptCheckpoint,
    DelayDispatch,
    DesignWorkspace,
    Job,
    KillWorker,
    SignoffService,
    TrafficConfig,
    WarmStateCache,
    WorkerKilled,
    make_jobs,
    run_load,
    virtual_asleep,
)
from repro.serve.jobs import DEFAULT_PRIORITY

#: Ticks before refine's first on-disk checkpoint: two adaptive-theta
#: probes plus iteration 1 (refine snapshots after every iteration).
_TICK_PAST_FIRST_CKPT = 4


# ----------------------------------------------------------------------
# Synthetic-handler scaffolding (no designs, no wall-clock)
# ----------------------------------------------------------------------
def run(coro, timeout=30.0):
    """Run one service scenario with a hang bound (lost-job detector)."""
    return asyncio.run(asyncio.wait_for(coro, timeout=timeout))


class Recorder:
    """Synthetic handlers that record execution order and can misbehave."""

    def __init__(self):
        self.order = []
        self.fail_until = {}  # design -> attempts that should fail
        self.block = None  # asyncio.Event: handlers wait on it first

    def make(self):
        async def handler(job, ctx):
            if self.block is not None:
                await self.block.wait()
            self.order.append((job.kind, job.design))
            ctx.heartbeat()
            remaining = self.fail_until.get(job.design, 0)
            if job.attempts <= remaining:
                raise ValueError(f"transient failure {job.attempts}")
            return {"design": job.design, "attempt": job.attempts}

        return {kind: handler for kind in DEFAULT_PRIORITY}


def make_service(recorder=None, **kw):
    recorder = recorder or Recorder()
    kw.setdefault("handlers", recorder.make())
    kw.setdefault("retry_backoff", 0.0)
    return recorder, SignoffService(**kw)


class TestJobModel:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Job(kind="massage")

    def test_priority_defaults_and_override(self):
        assert Job(kind="whatif").effective_priority() < Job(
            kind="train"
        ).effective_priority()
        assert Job(kind="train", priority=0).effective_priority() == 0


class TestAdmission:
    def test_admits_under_bound(self):
        ctl = AdmissionController(AdmissionConfig(max_pending=2))
        d = ctl.admit(Job(kind="signoff"), pending=1, pending_by_kind={}, workers=1)
        assert d.admitted

    def test_sheds_at_bound_with_retry_after(self):
        ctl = AdmissionController(AdmissionConfig(max_pending=2, min_retry_after=0.25))
        d = ctl.admit(Job(kind="signoff"), pending=2, pending_by_kind={}, workers=1)
        assert not d.admitted
        assert d.retry_after >= 0.25

    def test_per_kind_quota(self):
        ctl = AdmissionController(
            AdmissionConfig(max_pending=10, max_pending_per_kind={"train": 1})
        )
        d = ctl.admit(
            Job(kind="train"), pending=1, pending_by_kind={"train": 1}, workers=1
        )
        assert not d.admitted
        assert "train" in d.reason

    def test_retry_after_scales_with_latency_and_depth(self):
        ctl = AdmissionController(AdmissionConfig(min_retry_after=0.0))
        ctl.observe_latency(2.0)
        shallow = ctl.retry_after(pending=1, workers=2)
        deep = ctl.retry_after(pending=9, workers=2)
        assert deep > shallow > 0.0


class TestServiceLifecycle:
    def test_submit_before_start_raises(self):
        _, svc = make_service()
        with pytest.raises(RuntimeError):
            svc.submit("signoff", "spm")

    def test_jobs_complete_and_nothing_is_lost(self):
        async def scenario():
            rec, svc = make_service(workers=2)
            async with svc:
                tickets = [svc.submit("whatif", f"d{i}") for i in range(8)]
                await svc.drain()
                results = [await t.wait() for t in tickets]
            assert all(r.ok and r.status == "done" for r in results)
            assert svc.stats.lost() == 0

        run(scenario())

    def test_interactive_kinds_preempt_batch(self):
        async def scenario():
            rec, svc = make_service(workers=1)
            rec.block = asyncio.Event()
            async with svc:
                blocker = svc.submit("signoff", "warmup")
                await asyncio.sleep(0)  # worker picks up the blocker
                svc.submit("train", "batch")
                svc.submit("refine", "batch")
                svc.submit("whatif", "interactive")
                rec.block.set()
                await svc.drain()
            kinds = [kind for kind, _ in rec.order]
            assert kinds[0] == "signoff"
            # The whatif submitted last overtakes the queued batch jobs.
            assert kinds[1] == "whatif"
            assert set(kinds[2:]) == {"train", "refine"}

        run(scenario())


class TestRetryAndQuarantine:
    def test_transient_failure_retried_to_success(self):
        async def scenario():
            rec, svc = make_service(workers=1, max_attempts=3)
            rec.fail_until["flaky"] = 1  # first attempt fails
            async with svc:
                result = await svc.submit("signoff", "flaky").wait()
            assert result.ok and result.attempts == 2
            assert svc.stats.retries == 1

        run(scenario())

    def test_poison_job_quarantined_without_stalling_queue(self):
        async def scenario():
            rec, svc = make_service(workers=2, max_attempts=3)
            rec.fail_until["poison"] = 99  # never succeeds
            async with svc:
                poison = svc.submit("signoff", "poison")
                good = [svc.submit("whatif", f"d{i}") for i in range(6)]
                await svc.drain()
                bad = await poison.wait()
                results = [await t.wait() for t in good]
            assert bad.status == "quarantined" and not bad.ok
            assert bad.attempts == 3
            assert "transient failure" in bad.error
            assert all(r.ok for r in results)
            assert svc.stats.lost() == 0
            assert poison.job.job_id in svc.quarantine

        run(scenario())

    def test_retry_backoff_consumes_virtual_time_only(self):
        async def scenario():
            clock = ManualClock()
            rec, svc = make_service(
                workers=1,
                max_attempts=3,
                retry_backoff=1.0,
                clock=clock.now,
                asleep=virtual_asleep(clock),
            )
            rec.fail_until["flaky"] = 2
            async with svc:
                result = await svc.submit("signoff", "flaky").wait()
            assert result.ok and result.attempts == 3
            # Two backoffs: 1.0 then 2.0 virtual seconds.
            assert clock.now() == pytest.approx(3.0)

        run(scenario())


class TestDeadlines:
    def test_deadline_flags_timed_out(self):
        async def scenario():
            clock = ManualClock()

            async def slow(job, ctx):
                clock.advance(10.0)
                assert ctx.budget is not None and ctx.budget.expired()
                return {"design": job.design}

            svc = SignoffService(
                handlers={"signoff": slow},
                workers=1,
                clock=clock.now,
                asleep=virtual_asleep(clock),
            )
            async with svc:
                result = await svc.submit("signoff", "spm", deadline_s=5.0).wait()
            assert result.ok and result.timed_out
            assert result.latency == pytest.approx(10.0)

        run(scenario())


class TestBackpressure:
    def test_saturated_queue_sheds_with_retry_after(self):
        async def scenario():
            rec, svc = make_service(
                workers=1,
                admission=AdmissionConfig(max_pending=2, min_retry_after=0.5),
            )
            rec.block = asyncio.Event()
            async with svc:
                tickets = [svc.submit("whatif", f"d{i}") for i in range(8)]
                rec.block.set()
                await svc.drain()
                results = [await t.wait() for t in tickets]
            shed = [r for r in results if r.status == "rejected"]
            served = [r for r in results if r.status == "done"]
            assert shed and served
            assert all(r.retry_after >= 0.5 for r in shed)
            assert svc.stats.shed == len(shed)
            assert svc.stats.lost() == 0

        run(scenario())

    def test_overloaded_signoff_served_stale_from_last_known_state(self):
        async def scenario():
            warm = WarmStateCache()
            ws = DesignWorkspace("spm")
            ws.record_signoff({"design": "spm", "wns": -1.25, "stale": False})
            warm._workspaces["spm"] = ws  # warmed earlier, no rebuild here
            rec = Recorder()
            svc = SignoffService(
                handlers=rec.make(),
                warm=warm,
                workers=1,
                admission=AdmissionConfig(max_pending=1),
            )
            rec.block = asyncio.Event()
            async with svc:
                blockers = [svc.submit("whatif", "spm") for _ in range(2)]
                degraded = svc.submit("signoff", "spm")  # saturated now
                cold = svc.submit("signoff", "unknown")  # no state: plain shed
                rec.block.set()
                stale = await degraded.wait()
                shed = await cold.wait()
                await svc.drain()
                for t in blockers:
                    await t.wait()
            assert stale.ok and stale.stale
            assert stale.value["wns"] == pytest.approx(-1.25)
            assert stale.value["stale"] is True
            assert shed.status == "rejected" and shed.retry_after is not None
            assert svc.stats.stale_served == 1

        run(scenario())


class TestSupervision:
    def test_killed_worker_is_replaced_and_job_retried(self):
        async def scenario():
            rec, svc = make_service(
                workers=2,
                max_attempts=3,
                chaos=ChaosMonkey(KillWorker(job="victim", on_attempt=1, at_tick=0)),
            )
            async with svc:
                victim = svc.submit("signoff", "victim")
                others = [svc.submit("whatif", f"d{i}") for i in range(4)]
                await svc.drain()
                result = await victim.wait()
                rest = [await t.wait() for t in others]
                assert len(svc._worker_tasks) == 2  # fleet capacity restored
            assert result.ok and result.attempts == 2
            assert all(r.ok for r in rest)
            assert svc.stats.worker_deaths == 1
            assert svc.stats.worker_restarts == 1
            assert svc.stats.lost() == 0

        run(scenario())

    def test_repeated_kills_exhaust_attempts_into_quarantine(self):
        async def scenario():
            chaos = ChaosMonkey(
                KillWorker(job="victim", on_attempt=1, at_tick=0),
                KillWorker(job="victim", on_attempt=2, at_tick=0),
            )
            rec, svc = make_service(workers=2, max_attempts=2, chaos=chaos)
            async with svc:
                result = await svc.submit("signoff", "victim").wait()
            assert result.status == "quarantined"
            assert svc.stats.worker_deaths == 2
            assert svc.stats.lost() == 0

        run(scenario())

    def test_dispatch_delay_uses_injected_sleep(self):
        async def scenario():
            clock = ManualClock()
            chaos = ChaosMonkey(DelayDispatch(job="signoff", seconds=7.0))
            rec, svc = make_service(
                workers=1,
                chaos=chaos,
                clock=clock.now,
                asleep=virtual_asleep(clock),
            )
            async with svc:
                result = await svc.submit("signoff", "spm").wait()
            assert result.ok
            assert clock.now() == pytest.approx(7.0)
            assert chaos.delays_fired == 1

        run(scenario())


# ----------------------------------------------------------------------
# Real-design chaos: checkpoint resume must be byte-identical
# ----------------------------------------------------------------------
def _refine_service(tmp_path, chaos=None, max_attempts=3):
    warm = WarmStateCache(scale=0.5)
    svc = SignoffService(
        warm=warm,
        workers=1,
        max_attempts=max_attempts,
        chaos=chaos,
        checkpoint_dir=tmp_path / "ckpt",
    )
    return svc


async def _run_refine(svc, iterations=4):
    async with svc:
        result = await svc.submit("refine", "spm", {"iterations": iterations}).wait()
    return result


@pytest.mark.slow
class TestChaosRefine:
    def _fault_free(self, tmp_path):
        return run(_run_refine(_refine_service(tmp_path / "ref")), timeout=240.0)

    def test_kill_mid_refine_resumes_byte_identical(self, tmp_path):
        baseline = self._fault_free(tmp_path)
        assert baseline.ok and not baseline.value["resumed"]

        chaos = ChaosMonkey(
            KillWorker(job="refine", on_attempt=1, at_tick=_TICK_PAST_FIRST_CKPT)
        )
        result = run(
            _run_refine(_refine_service(tmp_path / "chaos", chaos=chaos)),
            timeout=240.0,
        )
        assert result.ok and result.attempts == 2
        assert result.value["resumed"] is True
        assert chaos.kills_fired == 1
        # The headline guarantee: resumed coordinates match the
        # fault-free run byte-for-byte.
        assert result.value["coords_digest"] == baseline.value["coords_digest"]
        assert result.value["best_wns"] == pytest.approx(baseline.value["best_wns"])

    def test_corrupted_checkpoint_discarded_and_restarted_clean(self, tmp_path):
        baseline = self._fault_free(tmp_path)
        chaos = ChaosMonkey(
            KillWorker(job="refine", on_attempt=1, at_tick=_TICK_PAST_FIRST_CKPT),
            CorruptCheckpoint(job="refine", keep_bytes=64),
        )
        with Telemetry() as tel, telemetry_session(tel):
            result = run(
                _run_refine(_refine_service(tmp_path / "chaos", chaos=chaos)),
                timeout=240.0,
            )
            snap = tel.metrics_snapshot()
        assert result.ok
        assert chaos.corruptions_fired == 1
        # The corrupt snapshot was detected, dropped, and the clean
        # restart still converged to the fault-free answer.
        assert result.value["resumed"] is False
        assert result.value["coords_digest"] == baseline.value["coords_digest"]
        assert snap["counters"]["serve.checkpoint_resets"] == 1
        resets = [e for e in tel.events if e["kind"] == "serve_checkpoint_reset"]
        assert resets and resets[0]["path"] and resets[0]["offset"] == 64


@pytest.mark.slow
class TestLoadgenChaosSmoke:
    def test_traffic_is_seeded_deterministic(self):
        cfg = TrafficConfig(jobs=16, seed=7)
        assert make_jobs(cfg) == make_jobs(cfg)
        assert make_jobs(cfg) != make_jobs(TrafficConfig(jobs=16, seed=8))

    def test_chaos_traffic_loses_nothing(self, tmp_path):
        from repro.serve.cli import default_chaos

        async def scenario():
            warm = WarmStateCache(scale=0.5)
            svc = SignoffService(
                warm=warm,
                workers=2,
                chaos=default_chaos(),
                checkpoint_dir=tmp_path / "ckpt",
            )
            traffic = TrafficConfig(jobs=12, designs=("spm",), refine_iterations=3)
            async with svc:
                report = await run_load(svc, traffic)
            return svc, report

        svc, report = run(scenario(), timeout=240.0)
        assert report.submitted == 12
        assert report.lost == 0
        assert report.done + report.quarantined + report.shed == report.submitted
        assert svc.stats.lost() == 0
        assert svc.chaos.kills_fired >= 1  # the fault plan actually fired


class TestSignoffModes:
    """A sign-off job's ``corners`` default to ``["typ"]``; its ``mode``
    applies either way (docs/SERVING.md)."""

    def test_mode_only_job_matches_explicit_typ(self):
        from repro.serve.handlers import _signoff_one

        cache = WarmStateCache()
        nominal = _signoff_one(cache, "spm", {})
        implicit = _signoff_one(cache, "spm", {"mode": "overdrive"})
        explicit = _signoff_one(cache, "spm", {"corners": ["typ"], "mode": "overdrive"})
        assert implicit == explicit
        assert implicit["scenarios"] == {"typ@overdrive": implicit["wns"]}
        assert implicit["wns"] < nominal["wns"]  # a shorter clock cycle
        assert set(nominal) == {"design", "wns", "tns", "stale"}
        assert _signoff_one(cache, "spm", {"corners": ["typ"]}) == nominal

    def test_unknown_mode_raises_like_unknown_corner(self):
        from repro.serve.handlers import _signoff_one

        cache = WarmStateCache()
        with pytest.raises(KeyError, match="unknown corner"):
            _signoff_one(cache, "spm", {"corners": ["no_such_corner"]})
        with pytest.raises(KeyError, match="unknown mode"):
            _signoff_one(cache, "spm", {"mode": "no_such_mode"})
        assert cache.workspace("spm").signoff_queries == 0


class TestReportSection:
    def test_serving_events_summarized(self):
        from repro.obs.report import summarize_serving

        async def scenario(tel):
            rec, svc = make_service(workers=1, max_attempts=2)
            rec.fail_until["poison"] = 99
            async with svc:
                svc.submit("whatif", "spm")
                svc.submit("signoff", "poison")
                await svc.drain()

        with Telemetry() as tel, telemetry_session(tel):
            run(scenario(tel))
            events = list(tel.events)
        summary = summarize_serving(events)
        assert summary is not None
        assert summary["kinds"]["whatif"]["done"] == 1
        assert summary["quarantined"] == 1

    def test_no_serving_events_returns_none(self):
        from repro.obs.report import summarize_serving

        assert summarize_serving([{"kind": "run_start"}]) is None
