"""Default job handlers: the paper's queries over warm design state.

A handler is ``handler(job, ctx) -> dict`` (sync or async); ``ctx`` is
the :class:`~repro.serve.service.JobContext` carrying the per-job
budget, checkpoint path, attempt index and the cooperative
``heartbeat`` the chaos harness hooks.  :func:`default_handlers` wires
the five kinds over one shared :class:`~repro.serve.state.WarmStateCache`;
the service calls them in the event loop's process, so every job reads
and commits that one cache.

Durability contract (docs/SERVING.md): ``refine`` and ``train`` jobs
snapshot through :mod:`repro.runtime.checkpoint` at every iteration /
epoch; on a retry after a worker death the handler resumes from the
snapshot — byte-identical to an uninterrupted run (PR 1's guarantee) —
and a checkpoint the chaos harness corrupted surfaces as
:class:`~repro.runtime.errors.CheckpointError`, which the handler
answers by discarding the snapshot and restarting clean (deterministic,
so it still converges to the fault-free answer).
"""

from __future__ import annotations

import functools
import hashlib
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from repro.obs import get_telemetry
from repro.runtime.errors import CheckpointError
from repro.serve.jobs import (
    KIND_ECO,
    KIND_REFINE,
    KIND_SIGNOFF,
    KIND_TRAIN,
    KIND_WHATIF,
)
from repro.serve.state import WarmStateCache


def _coords_digest(coords: np.ndarray) -> str:
    """Stable fingerprint of a coordinate array (byte-identity checks)."""
    return hashlib.sha256(np.ascontiguousarray(coords).tobytes()).hexdigest()[:16]


# ----------------------------------------------------------------------
# whatif — move one Steiner point, report the slack delta, revert
# ----------------------------------------------------------------------
def _whatif(cache: WarmStateCache, job, ctx):
    """Serial *and* fused what-if share one probe path.

    A lone job is a width-1 probe batch; a fused carrier's members
    become the K row groups of one scenario-batched PERT pass
    (:meth:`~repro.mcmm.sta.ScenarioSTA.probe_batch`).  Because the
    union recompute mask re-times unchanged rows to bitwise-identical
    values, each member's answer is bitwise-equal to the answer it
    would have gotten unfused — the parity the hypothesis tests pin.
    """
    ws = cache.workspace(job.design)
    ctx.heartbeat()
    sta = ws.probe_sta()
    forest = ws.forest
    coords = forest.coords
    members = job.members if job.fused else [job]
    specs = []
    for m in members:
        if coords.shape[0] == 0:
            specs.append(None)
            continue
        idx = int(m.params.get("point", 0)) % coords.shape[0]
        dx = float(m.params.get("dx", 0.0))
        dy = float(m.params.get("dy", 0.0))
        # Clamp only the moved point: a committed point off the die
        # stays where it is, so the probe dirties the moved tree alone.
        moved = coords.copy()
        moved[idx] = forest.clamp_coords(coords[idx] + (dx, dy))[0]
        specs.append((idx, dx, dy, moved))
    live = [s for s in specs if s is not None]
    if live:
        base, probes = sta.probe_batch([s[3] for s in live])
        base_wns = float(base.merged_wns)
        base_tns = float(base.merged_tns)
    else:
        base = sta.run()
        probes = []
        base_wns = float(base.merged_wns)
        base_tns = float(base.merged_tns)
    baseline = {
        "design": job.design,
        "wns": base_wns,
        "tns": base_tns,
        "stale": False,
    }
    ws.record_signoff(baseline)
    values = []
    probe_iter = iter(zip(probes, sta.last_probe_dirty))
    for spec in specs:
        if spec is None:
            values.append(dict(baseline, point=None, delta_wns=0.0, delta_tns=0.0))
            continue
        idx, dx, dy, _ = spec
        rep, dirty = next(probe_iter)
        values.append(
            {
                "design": job.design,
                "point": idx,
                "dx": dx,
                "dy": dy,
                "wns": float(rep.merged_wns),
                "tns": float(rep.merged_tns),
                "delta_wns": float(rep.merged_wns - base_wns),
                "delta_tns": float(rep.merged_tns - base_tns),
                "dirty_trees": int(dirty),
                "stale": False,
            }
        )
    return values if job.fused else values[0]


# ----------------------------------------------------------------------
# signoff — full WNS/TNS report under a corner set (default: typ)
# ----------------------------------------------------------------------
def _signoff_key(params: Dict[str, Any]) -> Tuple[Tuple[str, ...], str]:
    """``(corners, mode)`` of a sign-off job; no corners means ``typ``."""
    return tuple(params.get("corners") or ("typ",)), str(params.get("mode", "func"))


def _signoff_one(cache: WarmStateCache, design: str, params: Dict[str, Any]) -> Dict[str, Any]:
    ws = cache.workspace(design)
    corners, mode = _signoff_key(params)
    sta = ws.scenario_sta(corners, mode=mode)
    rep = sta.run()
    value = {"design": design, "wns": float(rep.merged_wns), "tns": float(rep.merged_tns)}
    if not sta.scenarios.is_single_neutral():
        value["corners"] = list(corners)
        value["mode"] = mode
        value["scenarios"] = {m.name: float(m.wns) for m in rep.scenarios}
    value["stale"] = False
    ws.signoff_queries += 1
    ws.record_signoff(value)
    return value


def _signoff(cache: WarmStateCache, job, ctx):
    """Sign-off report; a fused carrier dedupes identical corner sets.

    A lone job is a batch of one.  Members asking for the same
    ``(corners, mode)`` against the same warm state share one STA run —
    a repeated query over unchanged state is bitwise-idempotent, so
    every member still receives the exact answer it would have gotten
    alone.
    """
    ctx.heartbeat()
    members = job.members if job.fused else [job]
    memo: Dict[Tuple[Any, ...], Dict[str, Any]] = {}
    values = []
    for m in members:
        key = _signoff_key(m.params)
        hit = memo.get(key)
        if hit is None:
            hit = memo[key] = _signoff_one(cache, job.design, m.params)
        else:
            # The shared answer still counts as one served query.
            cache.workspace(job.design).signoff_queries += 1
        values.append(dict(hit))
    return values if job.fused else values[0]


# ----------------------------------------------------------------------
# Checkpointed jobs: resume after a worker death, reset on corruption
# ----------------------------------------------------------------------
def _run_checkpointed(job, ctx, run: Callable[[bool], Any]) -> Any:
    """``run(resume)`` with the durability contract of refine and train.

    A retry whose snapshot is on disk resumes from it.  A corrupted
    snapshot must not strand the job: it is counted, dropped and the
    job restarts clean — both jobs are deterministic, so the answer
    still matches the fault-free run (docs/SERVING.md).
    """
    ckpt = ctx.checkpoint_path
    resume = bool(ctx.attempt > 0 and ckpt is not None and Path(ckpt).exists())
    try:
        return run(resume)
    except CheckpointError as exc:
        tel = get_telemetry()
        if tel.enabled:
            tel.count("serve.checkpoint_resets")
            tel.event(
                "serve_checkpoint_reset",
                job=job.job_id,
                path=exc.path,
                offset=exc.offset,
                error=str(exc),
            )
        if ckpt is not None:
            Path(ckpt).unlink(missing_ok=True)
        return run(False)


# ----------------------------------------------------------------------
# refine — Algorithm 1 over the warm graph, committed on success
# ----------------------------------------------------------------------
def _refine(cache: WarmStateCache, job, ctx) -> Dict[str, Any]:
    from repro.core.refine import RefinementConfig, refine

    ws = cache.workspace(job.design)
    graph = ws.timing_graph()
    model = cache.evaluator()
    iterations = int(job.params.get("iterations", 10))
    cfg = RefinementConfig(
        max_iterations=iterations,
        # Evaluator-only acceptance keeps the serving hot path free of
        # router probes; a sign-off query re-judges the committed
        # coordinates with the real incremental STA.
        acceptance="evaluator",
        polish_probes=0,
    )

    def clamp(c: np.ndarray) -> np.ndarray:
        # One cooperative heartbeat per Algorithm 1 iteration: the
        # chaos harness kills deterministically mid-refinement here.
        ctx.heartbeat()
        return ws.forest.clamp_coords(c)

    initial = ws.forest.get_steiner_coords()

    def run(resume: bool):
        return refine(
            model,
            graph,
            initial,
            config=cfg,
            clamp_fn=clamp,
            budget=ctx.budget,
            checkpoint_path=ctx.checkpoint_path,
            resume=resume,
        )

    result = _run_checkpointed(job, ctx, run)
    # No invalidation: the pinned STAs re-time the moved trees from
    # their states on the next read.
    ws.forest.set_steiner_coords(result.coords)
    return {
        "design": job.design,
        "iterations": int(result.iterations),
        "accepted": int(result.accepted),
        "init_wns": float(result.init_wns),
        "init_tns": float(result.init_tns),
        "best_wns": float(result.best_wns),
        "best_tns": float(result.best_tns),
        "coords_digest": _coords_digest(result.coords),
        "resumed": bool(result.resumed),
        "timed_out": bool(result.timed_out),
        "stale": False,
    }


# ----------------------------------------------------------------------
# eco — closed-loop discrete ECO, committed into the warm state
# ----------------------------------------------------------------------
def _eco(cache: WarmStateCache, job, ctx) -> Dict[str, Any]:
    """Run the ECO driver against the warm design state and commit.

    Unlike ``refine`` (coordinates only), an accepted ECO *mutates the
    netlist* — buffers appear, cells resize, trees are re-routed — so
    the commit path is ``ws.invalidate()``: every pinned
    STA object is discarded (docs/ECO.md).  A job on the
    neutral set (no ``corners``) starts its context warm, from the
    workspace's timed :meth:`~repro.serve.state.DesignWorkspace.probe_sta`
    and its engine; a job that names corners builds its own.  A run
    that returns hands over the engine its context ended with, already
    bound to the mutated netlist and levelized, and a warm run also its
    ``ScenarioSTA``, timed at the final state, as the neutral probe
    STA.  An interrupted run (its accepted ops stay in the netlist, and
    a warm one leaves the probe STA mid-trial) drops both and rebuilds
    the engine instead.  Deterministic under ``params["seed"]``: the
    accepted-op ``digest`` is what the eco-smoke CI job pins.
    """
    from repro.eco.driver import EcoConfig, EcoContext, run_eco
    from repro.mcmm.scenario import ScenarioSet

    ws = cache.workspace(job.design)
    ctx.heartbeat()
    arm = str(job.params.get("arm", "greedy"))
    cfg = EcoConfig(
        arm=arm,
        seed=int(job.params.get("seed", 0)),
        max_ops=int(job.params.get("max_ops", 4)),
        max_rounds=int(job.params.get("max_rounds", 6)),
        trials_per_round=int(job.params.get("trials", 4)),
        sa_steps=int(job.params.get("steps", 20)),
    )
    corners = tuple(job.params.get("corners") or ())
    scenarios = (
        ScenarioSet.from_names(corners, modes=(str(job.params.get("mode", "func")),))
        if corners
        else None
    )

    def on_round(_round: int) -> None:
        ctx.heartbeat()

    warm = ws.probe_sta() if scenarios is None else None
    eco = EcoContext(ws.netlist, ws.forest, scenarios, sta=warm)
    try:
        result = run_eco(
            ws.netlist,
            ws.forest,
            config=cfg,
            scenarios=scenarios,
            budget=ctx.budget,
            on_round=on_round,
            context=eco,
        )
    except BaseException:
        # An interrupted run (a WorkerKilled out of the heartbeat, any
        # error) has still mutated the netlist by its accepted ops.
        ws.invalidate()
        raise
    ws.invalidate(
        engine=eco.engine,
        probe_sta=None if warm is None else eco.sta,
    )
    tel = get_telemetry()
    if tel.enabled:
        # Same event the flow stage emits, so `repro report` renders a
        # serve trace's eco commits in the ECO section too.
        tel.event(
            "eco_report",
            design=job.design,
            arm=result.arm,
            accepted=result.num_accepted,
            digest=result.digest,
            initial_wns=result.initial.get("wns"),
            initial_tns=result.initial.get("tns"),
            final_wns=result.final.get("wns"),
            final_tns=result.final.get("tns"),
            area_delta=result.area_delta,
        )
    value = result.summary()
    value["stale"] = False
    return value


# ----------------------------------------------------------------------
# train — (re)train the shared evaluator; checkpointed per epoch
# ----------------------------------------------------------------------
def _train(cache: WarmStateCache, job, ctx) -> Dict[str, Any]:
    from repro.flow.pipeline import make_training_samples
    from repro.timing_model.train import TrainerConfig, train_evaluator

    designs = tuple(job.params.get("designs") or ((job.design,) if job.design else ()))
    if not designs:
        raise ValueError("train job needs params['designs'] or a design")
    ctx.heartbeat()
    epochs = int(job.params.get("epochs", 10))
    augment = int(job.params.get("augment", 0))
    samples = make_training_samples(
        designs, scale=cache.scale, train_names=designs, augment=augment
    )
    model = cache.evaluator()
    tcfg = TrainerConfig(epochs=epochs, patience=max(epochs, 1))

    def run(resume: bool):
        return train_evaluator(
            model,
            samples,
            tcfg,
            budget=ctx.budget,
            checkpoint_path=ctx.checkpoint_path,
            resume=resume,
        )

    result = _run_checkpointed(job, ctx, run)
    cache.set_evaluator(model)
    return {
        "designs": list(designs),
        "epochs_run": len(result.losses),
        "final_loss": float(result.final_loss),
        "timed_out": bool(result.timed_out),
        "resumed": bool(result.resumed),
        "stale": False,
    }


#: The handler body of each job kind, called as ``fn(cache, job, ctx)``.
_HANDLERS = {
    KIND_WHATIF: _whatif,
    KIND_SIGNOFF: _signoff,
    KIND_REFINE: _refine,
    KIND_ECO: _eco,
    KIND_TRAIN: _train,
}


def default_handlers(cache: Optional[WarmStateCache] = None) -> Dict[str, Any]:
    """The default handlers (one per job kind) bound to one warm cache."""
    cache = cache if cache is not None else WarmStateCache()
    return {kind: functools.partial(fn, cache) for kind, fn in _HANDLERS.items()}


__all__ = ["default_handlers"]
