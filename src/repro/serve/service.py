"""The fault-tolerant asyncio sign-off service.

:class:`SignoffService` turns the batch reproduction into a long-lived
query server: a bounded priority queue in front of a supervised fleet
of asyncio workers that pin per-design warm state
(:mod:`repro.serve.state`) and execute the typed jobs of
:mod:`repro.serve.jobs`.  The robustness core (docs/SERVING.md):

* **Supervision** — a worker coroutine that dies mid-job (chaos kill,
  executor process death) is detected by its done-callback; the
  in-flight job is requeued with bounded attempts and a replacement
  worker is spawned immediately, so capacity never decays.
* **Retry with backoff** — a failing handler is retried up to
  ``max_attempts`` with the jittered exponential schedule of
  :func:`repro.runtime.retry.backoff_delay`; both the clock and the
  async sleep are injectable, so chaos tests run on virtual time.
* **Poison-job quarantine** — a job that keeps failing is quarantined
  with its captured error instead of cycling forever; its ticket
  resolves ``ok=False`` so no submitter hangs.  Accepted jobs therefore
  always terminate: ``done`` or ``quarantined``, never lost.
* **Deadlines** — ``Job.deadline_s`` becomes a cooperative
  :class:`~repro.runtime.budget.Budget` threaded into the handler;
  refine/train wind down best-so-far and the result is flagged
  ``timed_out``.
* **Durability** — refine/train checkpoint every iteration under
  ``checkpoint_dir`` and resume after a worker death (byte-identical,
  PR 1); a corrupted checkpoint is discarded and the job restarts
  clean (see :mod:`repro.serve.handlers`).
* **Admission control + graceful degradation** — a saturated queue
  sheds new work with a ``retry_after`` hint; overloaded ``signoff``
  queries are answered from the design's last-known report flagged
  ``stale=True`` instead of being dropped.

Everything is observable through :mod:`repro.obs`: queue-depth gauges,
per-kind latency histograms, retry/quarantine/shed counters and the
``job_*``/``worker_*`` event stream rendered by
``python -m repro report`` (docs/OBSERVABILITY.md).
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from repro.obs import get_telemetry
from repro.obs.slo import SLOEngine, SLObjective
from repro.runtime.budget import Budget, ManualClock
from repro.runtime.retry import backoff_delay
from repro.serve.admission import AdmissionConfig, AdmissionController
from repro.serve.batcher import BatchConfig, QueryBatcher
from repro.serve.chaos import ChaosMonkey, WorkerKilled
from repro.serve.executors import InlineExecutor, ProcessExecutor
from repro.serve.jobs import (
    DONE,
    KIND_REFINE,
    KIND_SIGNOFF,
    KIND_TRAIN,
    PENDING,
    QUARANTINED,
    REJECTED,
    RUNNING,
    Job,
    JobResult,
    JobTicket,
)


def virtual_asleep(clock: ManualClock) -> Callable[[float], Any]:
    """Async sleep that consumes *virtual* time from a ManualClock.

    Pair with ``SignoffService(clock=manual.now, asleep=...)`` so
    backoff and chaos delays are deterministic and free.
    """

    async def _sleep(seconds: float) -> None:
        clock.advance(seconds)
        await asyncio.sleep(0)

    return _sleep


@dataclass
class JobContext:
    """Per-attempt execution context handed to handlers."""

    job: Job
    attempt: int = 0  # 0-based retry index (job.attempts - 1)
    budget: Optional[Budget] = None
    checkpoint_path: Optional[str] = None
    chaos: Optional[ChaosMonkey] = None

    def heartbeat(self) -> None:
        """Cooperative per-iteration hook; chaos kills fire here."""
        if self.chaos is not None:
            self.chaos.tick(self.job)


@dataclass
class ServiceStats:
    """Terminal accounting the chaos tests and the loadgen assert on."""

    submitted: int = 0
    accepted: int = 0
    done: int = 0
    stale_served: int = 0
    shed: int = 0
    quarantined: int = 0
    retries: int = 0
    worker_deaths: int = 0
    worker_restarts: int = 0
    #: Query fusion (serve/batcher.py): fused dispatches and the member
    #: jobs they carried.  Accounting above stays per *member* — a
    #: fused carrier is internal and never counted as a job itself.
    batches: int = 0
    fused_jobs: int = 0

    def lost(self) -> int:
        """Accepted jobs that reached no terminal state (must be 0)."""
        return self.accepted - self.done - self.quarantined

    def mean_batch_width(self) -> float:
        """Mean members per fused dispatch (0 when nothing fused)."""
        return self.fused_jobs / self.batches if self.batches else 0.0

    def fusion_ratio(self) -> float:
        """Fraction of completed jobs answered by a fused dispatch."""
        return self.fused_jobs / self.done if self.done else 0.0


class SignoffService:
    """Async job service over the warm timing state (docs/SERVING.md)."""

    def __init__(
        self,
        handlers: Optional[Dict[str, Callable]] = None,
        *,
        warm=None,
        workers: int = 2,
        admission: Optional[AdmissionConfig] = None,
        max_attempts: int = 3,
        retry_backoff: float = 0.01,
        retry_factor: float = 2.0,
        retry_jitter: float = 0.0,
        seed: int = 0,
        clock: Optional[Callable[[], float]] = None,
        asleep: Optional[Callable[[float], Any]] = None,
        chaos: Optional[ChaosMonkey] = None,
        checkpoint_dir: Optional[Union[str, Path]] = None,
        process_jobs: int = 0,
        process_kinds: tuple = (KIND_REFINE, KIND_TRAIN),
        degrade_signoff: bool = True,
        slo: Optional[Union[SLOEngine, List[SLObjective], tuple]] = None,
        batching: Optional[Union[BatchConfig, bool]] = None,
    ) -> None:
        if handlers is None:
            from repro.serve.handlers import default_handlers
            from repro.serve.state import WarmStateCache

            warm = warm if warm is not None else WarmStateCache()
            handlers = default_handlers(warm)
        self._handlers = dict(handlers)
        self._warm = warm
        self.workers = max(1, int(workers))
        self._admission = AdmissionController(admission)
        self.max_attempts = max(1, int(max_attempts))
        self._retry_backoff = float(retry_backoff)
        self._retry_factor = float(retry_factor)
        self._retry_jitter = float(retry_jitter)
        self._rng = random.Random(seed)
        self._clock = clock or time.monotonic
        self._asleep = asleep or asyncio.sleep
        self.chaos = chaos
        self.checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir else None
        self._inline = InlineExecutor()
        self._process: Optional[ProcessExecutor] = (
            ProcessExecutor(process_jobs) if process_jobs > 0 else None
        )
        self._process_kinds = tuple(process_kinds)
        self.degrade_signoff = bool(degrade_signoff)
        # SLO burn-rate alerting (docs/OBSERVABILITY.md): either a
        # ready SLOEngine (caller owns its clock) or a list of
        # objectives, wrapped around the service clock so chaos tests
        # on virtual time get deterministic alert transitions.
        if slo is None or isinstance(slo, SLOEngine):
            self.slo: Optional[SLOEngine] = slo
            if slo is not None and slo.clock is None:
                slo.clock = self._clock
        else:
            self.slo = SLOEngine(slo, clock=self._clock)
        #: Final per-objective SLO statuses, captured at close() so the
        #: CLI reports the state *at shutdown*, not a later re-read.
        self.slo_final: Optional[List[Dict[str, Any]]] = None

        # Query fusion (serve/batcher.py): ``True`` means defaults;
        # ``None``/``False`` disables — the unbatched path is untouched.
        if batching is True:
            batching = BatchConfig()
        self._batcher: Optional[QueryBatcher] = (
            QueryBatcher(self, batching) if batching else None
        )

        self._queue: asyncio.PriorityQueue = asyncio.PriorityQueue()
        self._pending_by_kind: Dict[str, int] = {}
        self._worker_tasks: Dict[int, asyncio.Task] = {}
        self._inflight: Dict[int, Job] = {}
        self._casualty: Dict[int, Job] = {}
        self._tickets: Dict[str, JobTicket] = {}
        self.results: Dict[str, JobResult] = {}
        self.quarantine: Dict[str, JobResult] = {}
        self.stats = ServiceStats()
        self._id_seq = 0
        self._put_seq = 0
        self._wid_seq = 0
        self._started = False
        self._closing = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "SignoffService":
        if self._started:
            return self
        self._loop = asyncio.get_running_loop()
        self._started = True
        self._closing = False
        for _ in range(self.workers):
            self._spawn_worker()
        tel = get_telemetry()
        if tel.enabled:
            tel.event("serve_start", workers=self.workers)
        return self

    async def close(self) -> None:
        if not self._started:
            return
        self._closing = True
        if self._batcher is not None:
            # Nothing may strand in a bucket: flush whatever is parked
            # (normal shutdown drained already; this is the safety net)
            # and drop the linger timers.
            self._batcher.flush_all()
            self._batcher.cancel_timers()
        tasks = list(self._worker_tasks.values())
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        self._worker_tasks.clear()
        if self._process is not None:
            await self._process.aclose()
        self._started = False
        tel = get_telemetry()
        if self.slo is not None:
            statuses = self.slo_final = self.slo.evaluate()
            if tel.enabled:
                tel.event(
                    "slo_status",
                    objectives=statuses,
                    firing=self.slo.firing(),
                )
        if tel.enabled:
            tel.event(
                "serve_end",
                done=self.stats.done,
                quarantined=self.stats.quarantined,
                shed=self.stats.shed,
                lost=self.stats.lost(),
            )

    async def __aenter__(self) -> "SignoffService":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> bool:
        await self.close()
        return False

    # ------------------------------------------------------------------
    # submission and admission
    # ------------------------------------------------------------------
    def submit(
        self,
        kind_or_job: Union[str, Job],
        design: str = "",
        params: Optional[Dict[str, Any]] = None,
        **job_fields,
    ) -> JobTicket:
        """Admit one job (or shed it); returns its ticket immediately.

        Shed jobs resolve at once with ``ok=False`` and a
        ``retry_after`` hint — except saturated ``signoff`` queries for
        a warm design, which are answered from the last-known report
        flagged ``stale=True`` (graceful degradation).
        """
        if not self._started:
            raise RuntimeError("service not started; use `async with SignoffService(...)`")
        if isinstance(kind_or_job, Job):
            job = kind_or_job
        else:
            job = Job(
                kind=kind_or_job, design=design, params=dict(params or {}), **job_fields
            )
        self._id_seq += 1
        job.job_id = f"job-{self._id_seq:04d}"
        job.submitted_t = self._clock()
        future: asyncio.Future = self._loop.create_future()
        ticket = JobTicket(job, future)
        if job.kind not in self._handlers:
            raise ValueError(f"no handler registered for job kind {job.kind!r}")

        tel = get_telemetry()
        self.stats.submitted += 1
        if tel.enabled:
            tel.count("serve.jobs.submitted")
            tel.count(f"serve.jobs.{job.kind}")

        decision = self._admission.admit(
            job,
            pending=self._pending_backlog(),
            pending_by_kind=self._pending_by_kind,
            workers=self.workers,
        )
        if not decision.admitted:
            degraded = self._try_stale_answer(job, ticket, decision)
            if not degraded:
                self._shed(job, ticket, decision)
            return ticket

        self._tickets[job.job_id] = ticket
        self.stats.accepted += 1
        job.status = PENDING
        if tel.enabled:
            tel.event(
                "job_submitted",
                job=job.job_id,
                job_kind=job.kind,
                design=job.design,
                priority=job.effective_priority(),
            )
        if self._batcher is not None and self._batcher.wants(job):
            # Park in a fusion bucket: the member is already counted in
            # the pending backlog; the flush enqueues without recounting.
            self._note_pending(job.kind, 1)
            self._batcher.add(job)
        else:
            self._enqueue(job)
        return ticket

    def _try_stale_answer(self, job: Job, ticket: JobTicket, decision) -> bool:
        """Degraded signoff: answer from last-known state, mark stale."""
        if not (self.degrade_signoff and job.kind == KIND_SIGNOFF and self._warm):
            return False
        peek = getattr(self._warm, "peek", None)
        ws = peek(job.design) if peek is not None else None
        answer = ws.stale_answer() if ws is not None else None
        if answer is None:
            return False
        job.status = DONE
        self.stats.accepted += 1
        self.stats.done += 1
        self.stats.stale_served += 1
        result = JobResult(
            job_id=job.job_id,
            kind=job.kind,
            design=job.design,
            ok=True,
            value=answer,
            stale=True,
            attempts=0,
            latency=self._clock() - job.submitted_t,
            status=DONE,
        )
        self.results[job.job_id] = result
        ticket.future.set_result(result)
        tel = get_telemetry()
        if tel.enabled:
            tel.count("serve.stale_answers")
            tel.event(
                "job_degraded",
                job=job.job_id,
                design=job.design,
                reason=decision.reason,
            )
        return True

    def _shed(self, job: Job, ticket: JobTicket, decision) -> None:
        job.status = REJECTED
        self.stats.shed += 1
        result = JobResult(
            job_id=job.job_id,
            kind=job.kind,
            design=job.design,
            ok=False,
            error=f"shed: {decision.reason}",
            retry_after=decision.retry_after,
            status=REJECTED,
        )
        self.results[job.job_id] = result
        ticket.future.set_result(result)
        if self.slo is not None:
            self.slo.observe(job.kind, shed=True)
            self.slo.evaluate()
        tel = get_telemetry()
        if tel.enabled:
            tel.count("serve.shed")
            tel.event(
                "job_shed",
                job=job.job_id,
                job_kind=job.kind,
                reason=decision.reason,
                retry_after=decision.retry_after,
            )

    def _note_pending(self, kind: str, delta: int) -> None:
        self._pending_by_kind[kind] = max(
            0, self._pending_by_kind.get(kind, 0) + delta
        )

    def _pending_backlog(self) -> int:
        """Member-weighted pending jobs: queued + parked in batcher
        buckets (each fused carrier counts as its width)."""
        return sum(self._pending_by_kind.values())

    def _enqueue(self, job: Job) -> None:
        self._note_pending(job.kind, job.width())
        self._enqueue_flushed(job)

    def _enqueue_flushed(self, job: Job) -> None:
        """Queue a job whose members are already in the pending counts
        (the batcher flush path; ``_enqueue`` is count-then-flush)."""
        self._put_seq += 1
        self._queue.put_nowait((job.effective_priority(), self._put_seq, job))
        tel = get_telemetry()
        if tel.enabled:
            depth = self._queue.qsize()
            tel.gauge("serve.queue_depth", depth)
            tel.hist("serve.queue_depth.samples", depth)

    # ------------------------------------------------------------------
    # workers and supervision
    # ------------------------------------------------------------------
    def _spawn_worker(self) -> int:
        self._wid_seq += 1
        wid = self._wid_seq
        task = self._loop.create_task(self._worker(wid), name=f"serve-worker-{wid}")
        self._worker_tasks[wid] = task
        task.add_done_callback(lambda t, wid=wid: self._worker_exit(wid, t))
        return wid

    async def _worker(self, wid: int) -> None:
        while True:
            _, _, job = await self._queue.get()
            self._note_pending(job.kind, -job.width())
            self._inflight[wid] = job
            try:
                await self._run_job(wid, job)
            except WorkerKilled:
                # Simulated (or real) worker death: remember the victim
                # job for the supervisor, then die like a process would.
                self._casualty[wid] = job
                raise
            finally:
                self._inflight.pop(wid, None)
                self._queue.task_done()

    def _worker_exit(self, wid: int, task: asyncio.Task) -> None:
        """Supervision: requeue the casualty, restart the worker."""
        self._worker_tasks.pop(wid, None)
        if task.cancelled():
            return
        exc = task.exception()
        if exc is None or self._closing:
            return
        job = self._casualty.pop(wid, None)
        self.stats.worker_deaths += 1
        tel = get_telemetry()
        if tel.enabled:
            tel.count("serve.worker_deaths")
            tel.event(
                "worker_killed",
                worker=wid,
                job=None if job is None else job.job_id,
                error=f"{type(exc).__name__}: {exc}",
            )
        new_wid = self._spawn_worker()
        self.stats.worker_restarts += 1
        if tel.enabled:
            tel.count("serve.worker_restarts")
            tel.event("worker_restarted", worker=new_wid, replaces=wid)
        if job is not None:
            if self.chaos is not None:
                # The window where a checkpoint can rot: job down,
                # worker dead, nobody watching.
                self.chaos.on_worker_down(job, self._checkpoint_path(job))
            self._loop.create_task(
                self._retry_or_quarantine(job, f"worker died: {exc}")
            )

    # ------------------------------------------------------------------
    # job execution
    # ------------------------------------------------------------------
    def _checkpoint_path(self, job: Job) -> Optional[Path]:
        if self.checkpoint_dir is None or job.kind not in (KIND_REFINE, KIND_TRAIN):
            return None
        return self.checkpoint_dir / f"{job.job_id}.npz"

    def _executor_for(self, job: Job):
        # Fused carriers always run inline: their value is the shared
        # warm-state probe batch, which a process payload cannot carry.
        if self._process is not None and job.kind in self._process_kinds and not job.fused:
            return self._process
        return self._inline

    async def _run_job(self, wid: int, job: Job) -> None:
        job.attempts += 1
        job.status = RUNNING
        tel = get_telemetry()
        if tel.enabled:
            tel.event(
                "job_started",
                job=job.job_id,
                job_kind=job.kind,
                design=job.design,
                attempt=job.attempts,
                worker=wid,
            )
        if self.chaos is not None:
            await self.chaos.on_dispatch(job, self._asleep)
        budget = (
            Budget(wall_seconds=job.deadline_s, clock=self._clock)
            if job.deadline_s is not None
            else None
        )
        ckpt = self._checkpoint_path(job)
        ctx = JobContext(
            job=job,
            attempt=job.attempts - 1,
            budget=budget,
            checkpoint_path=None if ckpt is None else str(ckpt),
            chaos=self.chaos,
        )
        t0 = self._clock()
        try:
            value = await self._executor_for(job).run(
                self._handlers[job.kind], job, ctx
            )
        except (WorkerKilled, asyncio.CancelledError):
            raise
        except Exception as exc:
            await self._retry_or_quarantine(job, f"{type(exc).__name__}: {exc}")
            return
        self._admission.observe_latency(self._clock() - t0)
        timed_out = budget is not None and budget.expired()
        if job.fused:
            self._finish_fused(job, value, timed_out=timed_out)
            return
        stale = False
        if isinstance(value, dict):
            stale = bool(value.get("stale", False))
            timed_out = timed_out or bool(value.get("timed_out", False))
        self._finish(job, value, stale=stale, timed_out=timed_out)

    def _finish_fused(self, carrier: Job, values: Any, timed_out: bool) -> None:
        """Scatter a fused dispatch's per-member values to the tickets."""
        members = carrier.members or []
        if not isinstance(values, (list, tuple)) or len(values) != len(members):
            self._quarantine(
                carrier,
                f"fused {carrier.kind} handler returned "
                f"{type(values).__name__} for {len(members)} members",
            )
            return
        carrier.status = DONE
        for member, value in zip(members, values):
            member.attempts = carrier.attempts
            stale = isinstance(value, dict) and bool(value.get("stale", False))
            m_timed_out = timed_out or (
                isinstance(value, dict) and bool(value.get("timed_out", False))
            )
            self._finish(member, value, stale=stale, timed_out=m_timed_out)

    async def _retry_or_quarantine(self, job: Job, error: str) -> None:
        max_attempts = (
            job.max_attempts if job.max_attempts is not None else self.max_attempts
        )
        job.error = error
        tel = get_telemetry()
        if job.attempts >= max_attempts:
            self._quarantine(job, error)
            return
        self.stats.retries += 1
        delay = backoff_delay(
            job.attempts - 1,
            self._retry_backoff,
            self._retry_factor,
            jitter=self._retry_jitter,
            rng=self._rng,
        )
        if tel.enabled:
            tel.count("serve.retries")
            tel.event(
                "job_retry",
                job=job.job_id,
                attempt=job.attempts,
                delay=delay,
                error=error,
            )
        if delay > 0:
            await self._asleep(delay)
        job.status = PENDING
        self._enqueue(job)

    def _quarantine(self, job: Job, error: str) -> None:
        if job.fused:
            # A poisoned fused dispatch poisons every member — each
            # ticket still resolves, so nothing hangs or is lost.
            job.status = QUARANTINED
            for member in job.members or []:
                member.attempts = job.attempts
                self._quarantine(member, error)
            return
        job.status = QUARANTINED
        self.stats.quarantined += 1
        result = JobResult(
            job_id=job.job_id,
            kind=job.kind,
            design=job.design,
            ok=False,
            error=error,
            attempts=job.attempts,
            latency=self._clock() - job.submitted_t,
            status=QUARANTINED,
        )
        self.quarantine[job.job_id] = result
        self.results[job.job_id] = result
        ticket = self._tickets.pop(job.job_id, None)
        if ticket is not None and not ticket.future.done():
            ticket.future.set_result(result)
        if self.slo is not None:
            self.slo.observe(job.kind, quarantined=True, latency=result.latency)
            self.slo.evaluate()
        tel = get_telemetry()
        if tel.enabled:
            tel.count("serve.quarantined")
            tel.event(
                "job_quarantined",
                job=job.job_id,
                job_kind=job.kind,
                design=job.design,
                attempts=job.attempts,
                error=error,
            )

    def _finish(self, job: Job, value: Any, stale: bool, timed_out: bool) -> None:
        job.status = DONE
        self.stats.done += 1
        latency = self._clock() - job.submitted_t
        result = JobResult(
            job_id=job.job_id,
            kind=job.kind,
            design=job.design,
            ok=True,
            value=value,
            stale=stale,
            timed_out=timed_out,
            attempts=job.attempts,
            latency=latency,
            status=DONE,
        )
        self.results[job.job_id] = result
        ticket = self._tickets.pop(job.job_id, None)
        if ticket is not None and not ticket.future.done():
            ticket.future.set_result(result)
        if self.slo is not None:
            self.slo.observe(
                job.kind, latency=latency, ok=True, timed_out=timed_out
            )
            self.slo.evaluate()
        tel = get_telemetry()
        if tel.enabled:
            tel.count("serve.done")
            tel.hist(f"serve.latency.{job.kind}", latency)
            tel.gauge("serve.queue_depth", self._queue.qsize())
            tel.event(
                "job_done",
                job=job.job_id,
                job_kind=job.kind,
                design=job.design,
                attempts=job.attempts,
                latency=latency,
                stale=stale,
                timed_out=timed_out,
            )

    # ------------------------------------------------------------------
    # waiting
    # ------------------------------------------------------------------
    async def drain(self) -> None:
        """Wait until every accepted job reached a terminal state.

        This await *is* the zero-lost-jobs invariant: each accepted
        ticket resolves as ``done`` or ``quarantined``; a service that
        lost a job would hang here (chaos tests bound it with
        ``asyncio.wait_for``).
        """
        while True:
            unresolved = [
                t.future for t in self._tickets.values() if not t.future.done()
            ]
            if not unresolved:
                return
            await asyncio.gather(*unresolved)


__all__ = [
    "JobContext",
    "ServiceStats",
    "SignoffService",
    "virtual_asleep",
]
