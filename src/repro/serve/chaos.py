"""Deterministic chaos harness for the sign-off service.

`repro.runtime.faults` makes a single callable misbehave on the k-th
call; serving needs the same determinism one level up — kill a *worker*
mid-job, delay the queue, corrupt a checkpoint while its job is down —
so the chaos tests can assert the service converges to the fault-free
answers (docs/SERVING.md).

Specs fire on deterministic indices, never on wall-clock:

* :class:`KillWorker` — raise :class:`WorkerKilled` out of the worker
  coroutine on a matching job's ``on_attempt``-th attempt, either at
  dispatch (``at_tick=0``) or at the job's ``at_tick``-th cooperative
  heartbeat (the refine handler heartbeats once per Algorithm 1
  iteration, so ``at_tick=3`` kills mid-refinement with checkpoints on
  disk);
* :class:`DelayDispatch` — consume ``seconds`` via the service's
  injectable async sleep before a matching dispatch (virtual time under
  a ManualClock);
* :class:`CorruptCheckpoint` — truncate the job's checkpoint file to
  ``keep_bytes`` while the job is down after a worker death, forcing
  the resume path through
  :class:`~repro.runtime.errors.CheckpointError` recovery.

Jobs match a spec's ``job`` field by job id, kind, design name, or
``"*"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.runtime.errors import ReproError
from repro.serve.jobs import Job


class WorkerKilled(ReproError):
    """A worker died mid-job; the supervisor requeues the job."""

    def __init__(self, what: str = "worker killed") -> None:
        super().__init__(what)


@dataclass(frozen=True)
class KillWorker:
    """Kill the worker serving a matching job."""

    job: str = "*"
    on_attempt: int = 1  # 1-based attempt of the matching job
    at_tick: int = 0  # 0 = at dispatch; k > 0 = at the k-th heartbeat


@dataclass(frozen=True)
class DelayDispatch:
    """Stall a matching job's dispatch by ``seconds`` (injectable sleep).

    ``max_fires`` bounds how many matching dispatches the delay hits
    (None = every one).  A bounded delay is the canonical latency
    fault for SLO tests: the first ``max_fires`` jobs blow the latency
    budget and fire the burn-rate alert, the rest run fast and clear
    it — all on virtual time.
    """

    job: str = "*"
    on_attempt: int = 1
    seconds: float = 0.0
    max_fires: Optional[int] = None


@dataclass(frozen=True)
class CorruptCheckpoint:
    """Truncate a matching job's checkpoint while its worker is down."""

    job: str = "*"
    keep_bytes: int = 100
    once: bool = True


def _matches(pattern: str, job: Job) -> bool:
    return pattern in ("*", job.job_id, job.kind, job.design)


class ChaosMonkey:
    """Deterministic fault scheduler wired into the service's hooks."""

    def __init__(self, *specs) -> None:
        self.kills = tuple(s for s in specs if isinstance(s, KillWorker))
        self.delays = tuple(s for s in specs if isinstance(s, DelayDispatch))
        self.corruptions = list(s for s in specs if isinstance(s, CorruptCheckpoint))
        self._ticks: Dict[Tuple[str, int], int] = {}
        self._delay_fires: Dict[int, int] = {}  # per-spec fire counts
        self.kills_fired = 0
        self.delays_fired = 0
        self.corruptions_fired = 0

    # ------------------------------------------------------------------
    def _tel(self):
        from repro.obs import get_telemetry

        return get_telemetry()

    async def on_dispatch(self, job: Job, asleep) -> None:
        """Called by the worker right before the handler runs."""
        for index, spec in enumerate(self.delays):
            if _matches(spec.job, job) and job.attempts == spec.on_attempt:
                fired = self._delay_fires.get(index, 0)
                if spec.max_fires is not None and fired >= spec.max_fires:
                    continue
                self._delay_fires[index] = fired + 1
                self.delays_fired += 1
                tel = self._tel()
                if tel.enabled:
                    tel.count("chaos.delays")
                    tel.event(
                        "chaos_delay", job=job.job_id, seconds=spec.seconds
                    )
                await asleep(spec.seconds)
        for spec in self.kills:
            if (
                spec.at_tick == 0
                and _matches(spec.job, job)
                and job.attempts == spec.on_attempt
            ):
                self._record_kill(job, tick=0)
                raise WorkerKilled(
                    f"chaos killed worker at dispatch of {job.job_id} "
                    f"(attempt {job.attempts})"
                )

    def tick(self, job: Job) -> None:
        """Cooperative heartbeat from inside a handler (per iteration)."""
        key = (job.job_id, job.attempts)
        tick = self._ticks.get(key, 0) + 1
        self._ticks[key] = tick
        for spec in self.kills:
            if (
                spec.at_tick == tick
                and _matches(spec.job, job)
                and job.attempts == spec.on_attempt
            ):
                self._record_kill(job, tick=tick)
                raise WorkerKilled(
                    f"chaos killed worker at tick {tick} of {job.job_id} "
                    f"(attempt {job.attempts})"
                )

    def on_worker_down(self, job: Job, checkpoint_path: Optional[Path]) -> None:
        """Called by the supervisor after a worker death, before requeue."""
        if checkpoint_path is None:
            return
        path = Path(checkpoint_path)
        remaining = []
        for spec in self.corruptions:
            if _matches(spec.job, job) and path.exists():
                size = path.stat().st_size
                keep = min(max(0, spec.keep_bytes), size)
                with open(path, "r+b") as fh:
                    fh.truncate(keep)
                self.corruptions_fired += 1
                tel = self._tel()
                if tel.enabled:
                    tel.count("chaos.corruptions")
                    tel.event(
                        "chaos_corrupt",
                        job=job.job_id,
                        path=str(path),
                        kept_bytes=keep,
                        original_bytes=size,
                    )
                if not spec.once:
                    remaining.append(spec)
            else:
                remaining.append(spec)
        self.corruptions[:] = remaining

    # ------------------------------------------------------------------
    def _record_kill(self, job: Job, tick: int) -> None:
        self.kills_fired += 1
        tel = self._tel()
        if tel.enabled:
            tel.count("chaos.kills")
            tel.event(
                "chaos_kill", job=job.job_id, attempt=job.attempts, tick=tick
            )


__all__ = [
    "ChaosMonkey",
    "CorruptCheckpoint",
    "DelayDispatch",
    "KillWorker",
    "WorkerKilled",
]
