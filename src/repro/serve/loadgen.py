"""Deterministic synthetic traffic for the sign-off service.

The load generator plays the role of the physical-design crowd hammering
a shared sign-off box: bursts of cheap ``whatif`` probes and ``signoff``
queries with an occasional long ``refine`` (and optionally ``train``)
mixed in.  Everything is seeded — the k-th run of a given
:class:`TrafficConfig` submits the exact same job sequence — so the
chaos tests and the CI smoke job can assert hard invariants
(``lost == 0``) rather than eyeball flaky throughput numbers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple


@dataclass
class TrafficConfig:
    """Seeded description of one synthetic traffic run."""

    jobs: int = 24
    designs: Sequence[str] = ("spm",)
    seed: int = 0
    #: relative weights for (whatif, signoff, refine, train, eco).
    #: The eco entry may be omitted (legacy 4-tuples keep their exact
    #: job sequences: a zero-weight kind never changes ``rng.choices``).
    mix: Tuple[float, ...] = (5.0, 3.0, 1.0, 0.0)
    refine_iterations: int = 4
    train_epochs: int = 2
    eco_steps: int = 10
    eco_arm: str = "sa"
    whatif_step: float = 3.0
    #: every burst_every-th job arrives back-to-back with the next one
    #: (no inter-arrival yield), exercising the bounded queue
    burst_every: int = 4
    #: burst mode (``--burst``): submit jobs in back-to-back groups of
    #: this size with one cooperative yield *between* groups — many
    #: concurrent queries against few designs, the traffic shape query
    #: fusion is built for.  1 falls back to ``burst_every`` pacing.
    burst_size: int = 1


@dataclass
class LoadReport:
    """What happened to every submitted job; the smoke job asserts on it."""

    submitted: int = 0
    done: int = 0
    shed: int = 0
    stale: int = 0
    quarantined: int = 0
    timed_out: int = 0
    retried_jobs: int = 0
    lost: int = 0
    by_kind: Dict[str, int] = field(default_factory=dict)
    results: List[Any] = field(default_factory=list)
    #: Query-fusion accounting mirrored from the service stats: fused
    #: dispatches, their mean member width, and the fraction of done
    #: jobs that were answered by a fused dispatch.
    batches: int = 0
    mean_batch_width: float = 0.0
    fusion_ratio: float = 0.0

    def summary(self) -> Dict[str, Any]:
        return {
            "submitted": self.submitted,
            "done": self.done,
            "shed": self.shed,
            "stale": self.stale,
            "quarantined": self.quarantined,
            "timed_out": self.timed_out,
            "retried_jobs": self.retried_jobs,
            "lost": self.lost,
            "by_kind": dict(self.by_kind),
            "batches": self.batches,
            "mean_batch_width": self.mean_batch_width,
            "fusion_ratio": self.fusion_ratio,
        }


def make_jobs(config: TrafficConfig) -> List[Dict[str, Any]]:
    """The deterministic job sequence for a config (pure, no service)."""
    rng = random.Random(config.seed)
    kinds = ("whatif", "signoff", "refine", "train", "eco")
    weights = list(config.mix)
    weights += [0.0] * (len(kinds) - len(weights))
    jobs: List[Dict[str, Any]] = []
    for i in range(config.jobs):
        kind = rng.choices(kinds, weights=weights, k=1)[0]
        design = config.designs[i % len(config.designs)]
        params: Dict[str, Any] = {}
        if kind == "whatif":
            params = {
                "point": rng.randrange(0, 10_000),
                "dx": rng.uniform(-config.whatif_step, config.whatif_step),
                "dy": rng.uniform(-config.whatif_step, config.whatif_step),
            }
        elif kind == "signoff":
            params = {"corners": ["typ"]} if rng.random() < 0.7 else {
                "corners": ["slow_setup", "fast_hold"]
            }
        elif kind == "refine":
            params = {"iterations": config.refine_iterations}
        elif kind == "train":
            params = {
                "designs": list(config.designs),
                "epochs": config.train_epochs,
            }
        elif kind == "eco":
            params = {
                "arm": config.eco_arm,
                "seed": config.seed,
                "steps": config.eco_steps,
                "max_ops": 2,
                "max_rounds": 3,
                "trials": 3,
            }
        jobs.append({"kind": kind, "design": design, "params": params})
    return jobs


async def run_load(
    service, config: Optional[TrafficConfig] = None
) -> LoadReport:
    """Drive a *started* service with the config's traffic; await drain.

    Shed jobs are counted, not resubmitted — backpressure is the
    feature under test, and the zero-lost invariant covers accepted
    jobs only (a shed job was answered with ``retry_after``, not lost).
    """
    import asyncio

    config = config or TrafficConfig()
    report = LoadReport()
    tickets = []
    for i, spec in enumerate(make_jobs(config)):
        ticket = service.submit(spec["kind"], spec["design"], spec["params"])
        tickets.append(ticket)
        report.submitted += 1
        report.by_kind[spec["kind"]] = report.by_kind.get(spec["kind"], 0) + 1
        if config.burst_size > 1:
            # Burst mode: groups of burst_size land in one event-loop
            # tick (so the batcher can fuse them); yield between groups.
            if (i + 1) % config.burst_size == 0:
                await asyncio.sleep(0)
            continue
        burst = config.burst_every > 0 and (i + 1) % config.burst_every == 0
        if not burst:
            # Let workers interleave with arrivals (cooperative yield,
            # no wall-clock): bursts skip this to pile up the queue.
            await asyncio.sleep(0)
    await service.drain()
    for ticket in tickets:
        result = await ticket.wait()
        report.results.append(result)
        if result.status == "done":
            report.done += 1
            if result.stale:
                report.stale += 1
            if result.timed_out:
                report.timed_out += 1
            if result.attempts > 1:
                report.retried_jobs += 1
        elif result.status == "quarantined":
            report.quarantined += 1
            if result.attempts > 1:
                report.retried_jobs += 1
        elif result.status == "rejected":
            report.shed += 1
    report.lost = report.submitted - report.done - report.quarantined - report.shed
    stats = getattr(service, "stats", None)
    if stats is not None and getattr(stats, "batches", 0):
        report.batches = stats.batches
        report.mean_batch_width = stats.mean_batch_width()
        report.fusion_ratio = stats.fusion_ratio()
    return report


__all__ = ["LoadReport", "TrafficConfig", "make_jobs", "run_load"]
