"""``python -m repro serve`` — run the service under synthetic load.

The subcommand spins up a :class:`~repro.serve.service.SignoffService`,
drives it with the seeded traffic of :mod:`repro.serve.loadgen`, prints
a terminal accounting and exits nonzero if any accepted job was lost —
the invariant the CI ``serve-smoke`` job enforces (with ``--chaos``
adding deterministic worker kills, queue delays and one checkpoint
corruption on top).
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import sys
import tempfile
from pathlib import Path

from repro.obs import Telemetry, setup_logging, telemetry_session
from repro.obs.slo import parse_objective
from repro.serve.admission import AdmissionConfig
from repro.serve.chaos import (
    ChaosMonkey,
    CorruptCheckpoint,
    DelayDispatch,
    KillWorker,
)
from repro.serve.batcher import BatchConfig
from repro.serve.loadgen import TrafficConfig, run_load
from repro.serve.service import SignoffService
from repro.serve.state import WarmStateCache


def _say(line: str) -> None:
    """CLI stdout (the lint gate reserves bare print for __main__.py)."""
    sys.stdout.write(line + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Serve sign-off queries under synthetic load "
        "(docs/SERVING.md).",
    )
    parser.add_argument("--jobs", type=int, default=24, help="jobs to submit")
    parser.add_argument(
        "--designs",
        default="spm",
        help="comma-separated design names (default: spm)",
    )
    parser.add_argument("--workers", type=int, default=2, help="async workers")
    parser.add_argument(
        "--scale", type=float, default=1.0, help="design scale factor"
    )
    parser.add_argument("--seed", type=int, default=0, help="traffic seed")
    parser.add_argument(
        "--max-pending",
        type=int,
        default=64,
        help="admission-control queue bound (jobs beyond it are shed)",
    )
    parser.add_argument(
        "--refine-iterations",
        type=int,
        default=4,
        help="iterations per refine job",
    )
    parser.add_argument(
        "--chaos",
        action="store_true",
        help="inject deterministic faults: kill a worker mid-refine, "
        "delay dispatches, corrupt one checkpoint",
    )
    parser.add_argument(
        "--batch",
        action="store_true",
        help="enable query fusion: concurrent whatif/signoff jobs per "
        "design coalesce into one scenario-batched dispatch",
    )
    parser.add_argument(
        "--batch-max",
        type=int,
        default=8,
        help="fusion flush width (members per fused dispatch)",
    )
    parser.add_argument(
        "--linger",
        type=float,
        default=0.0,
        help="seconds the first job of a fusion bucket waits for company "
        "(0 still fuses same-tick bursts)",
    )
    parser.add_argument(
        "--burst",
        type=int,
        default=0,
        metavar="N",
        help="burst traffic mode: submit jobs in back-to-back groups of "
        "N (many concurrent queries, few designs — the fusion workload)",
    )
    parser.add_argument(
        "--eco",
        type=float,
        default=0.0,
        metavar="W",
        help="relative traffic weight for eco jobs (default 0: none; "
        "the other kinds keep the 5/3/1/0 default mix)",
    )
    parser.add_argument(
        "--eco-arm",
        choices=("greedy", "sa", "hybrid"),
        default="sa",
        help="ECO arm eco jobs run (docs/ECO.md; default sa)",
    )
    parser.add_argument(
        "--checkpoint-dir",
        default=None,
        help="directory for refine/train job checkpoints "
        "(default: a temporary directory)",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write a telemetry trace (JSONL) to PATH; summarize with "
        "`python -m repro report PATH`",
    )
    parser.add_argument(
        "--slo",
        metavar="SPEC",
        action="append",
        default=[],
        help="SLO objective `name:kind[:target[:latency_s[:long/short/"
        "burn,...]]]`, e.g. signoff-lat:signoff:0.9:0.05 — repeatable; "
        "exit code 3 when an alert is still firing at shutdown",
    )
    parser.add_argument("--verbose", "-v", action="count", default=0)
    parser.add_argument("--quiet", "-q", action="count", default=0)
    return parser


def default_chaos() -> ChaosMonkey:
    """The --chaos fault plan: one of each injected fault, deterministic."""
    return ChaosMonkey(
        # Kill the worker mid-refinement on the first attempt.  Ticks 1-2
        # are adaptive-theta probes and tick 3 is iteration 1; by tick 4
        # a checkpoint is on disk, so the retry exercises resume.
        KillWorker(job="refine", on_attempt=1, at_tick=4),
        # ... and corrupt that checkpoint while the job is down, so the
        # retry exercises CheckpointError recovery too.
        CorruptCheckpoint(job="refine", keep_bytes=64, once=True),
        # Stall one signoff dispatch (injectable sleep, real time here).
        DelayDispatch(job="signoff", on_attempt=1, seconds=0.01),
    )


async def _serve(args, chaos, checkpoint_dir: Path, objectives):
    batching = (
        BatchConfig(max_batch=args.batch_max, linger_s=args.linger)
        if args.batch
        else None
    )
    service = SignoffService(
        warm=WarmStateCache(scale=args.scale),
        workers=args.workers,
        admission=AdmissionConfig(max_pending=args.max_pending),
        chaos=chaos,
        checkpoint_dir=checkpoint_dir,
        slo=objectives or None,
        batching=batching,
    )
    traffic = TrafficConfig(
        jobs=args.jobs,
        designs=tuple(
            name.strip() for name in args.designs.split(",") if name.strip()
        ),
        seed=args.seed,
        mix=(5.0, 3.0, 1.0, 0.0, max(0.0, args.eco)),
        refine_iterations=args.refine_iterations,
        burst_size=max(1, args.burst),
        eco_arm=args.eco_arm,
    )
    async with service:
        report = await run_load(service, traffic)
    return service, report


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    setup_logging(args.verbose - args.quiet)
    chaos = default_chaos() if args.chaos else None
    objectives = [parse_objective(spec) for spec in args.slo]
    with contextlib.ExitStack() as stack:
        if args.trace:
            tel = stack.enter_context(Telemetry(path=args.trace))
            stack.enter_context(telemetry_session(tel))
        if args.checkpoint_dir is not None:
            ckpt_dir = Path(args.checkpoint_dir)
            ckpt_dir.mkdir(parents=True, exist_ok=True)
        else:
            ckpt_dir = Path(stack.enter_context(tempfile.TemporaryDirectory()))
        service, report = asyncio.run(_serve(args, chaos, ckpt_dir, objectives))

    summary = report.summary()
    _say("=== serve summary ===")
    _say(
        "submitted {submitted}  done {done}  shed {shed}  "
        "stale {stale}  quarantined {quarantined}".format(**summary)
    )
    _say(
        f"retried jobs {summary['retried_jobs']}  "
        f"timed out {summary['timed_out']}  "
        f"worker deaths {service.stats.worker_deaths}  "
        f"restarts {service.stats.worker_restarts}"
    )
    _say(
        "by kind: "
        + "  ".join(f"{k}={v}" for k, v in sorted(summary["by_kind"].items()))
    )
    if args.batch:
        _say(
            f"fusion: batches {summary['batches']}  "
            f"mean width {summary['mean_batch_width']:.2f}  "
            f"ratio {summary['fusion_ratio']:.2f}"
        )
    if chaos is not None:
        _say(
            f"chaos: kills {chaos.kills_fired}  delays {chaos.delays_fired}  "
            f"corruptions {chaos.corruptions_fired}"
        )
    firing = []
    if service.slo is not None:
        firing = [s["name"] for s in (service.slo_final or []) if s["firing"]]
        for status in service.slo_final or []:
            mark = "FIRING" if status["firing"] else "ok"
            _say(
                f"slo {status['name']} ({status['kind']}, target "
                f"{status['target']:g}): {mark}  events {status['events']}  "
                f"bad {status['bad']}  fired {status['fired_total']}  "
                f"cleared {status['cleared_total']}"
            )
    if args.trace:
        _say(f"telemetry trace written to {args.trace}")
    if summary["lost"] != 0:
        _say(f"LOST JOBS: {summary['lost']} accepted jobs never resolved")
        return 1
    _say("lost 0")
    if firing:
        _say("SLO BREACH: still firing at shutdown: " + ", ".join(firing))
        return 3
    return 0


__all__ = ["build_parser", "default_chaos", "main"]
