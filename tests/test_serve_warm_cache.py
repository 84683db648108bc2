"""Every serve job reads and commits the service's one warm cache.

docs/SERVING.md: handlers run in the event loop's process, so a
``train`` job's model is the evaluator the next ``refine`` job
differentiates, and a ``train`` retry keeps the same durability
contract as ``refine`` — a corrupted snapshot is counted, dropped and
the job restarts clean to the fault-free answer.
"""

import asyncio
import hashlib

import numpy as np
import pytest

from repro.obs import Telemetry, telemetry_session
from repro.serve import Job, JobContext, SignoffService, WarmStateCache
from repro.serve.handlers import _coords_digest, default_handlers

SCALE = 0.5
TRAIN = {"designs": ["spm"], "epochs": 2}


def _fingerprint(model) -> str:
    digest = hashlib.sha256()
    for name, value in sorted(model.state_dict().items()):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    return digest.hexdigest()


def _train(cache, ckpt, attempt):
    job = Job(kind="train", design="spm", params=dict(TRAIN))
    ctx = JobContext(job=job, attempt=attempt, checkpoint_path=str(ckpt))
    return default_handlers(cache)["train"](job, ctx)


def test_train_corrupt_snapshot_resets_and_restarts_clean(tmp_path):
    ckpt = tmp_path / "train.npz"
    fault_free = WarmStateCache(scale=SCALE)
    baseline = _train(fault_free, ckpt, attempt=0)
    assert ckpt.exists() and not baseline["resumed"]
    ckpt.write_bytes(ckpt.read_bytes()[:64])

    cache = WarmStateCache(scale=SCALE)
    with Telemetry() as tel, telemetry_session(tel):
        value = _train(cache, ckpt, attempt=1)
        snap = tel.metrics_snapshot()
    assert snap["counters"]["serve.checkpoint_resets"] == 1
    resets = [e for e in tel.events if e["kind"] == "serve_checkpoint_reset"]
    assert len(resets) == 1 and resets[0]["path"] and resets[0]["offset"] == 64
    assert value["resumed"] is False
    assert value["final_loss"] == baseline["final_loss"]
    assert _fingerprint(cache.evaluator()) == _fingerprint(fault_free.evaluator())


def test_train_job_model_is_what_next_refine_differentiates():
    from repro.core.refine import RefinementConfig, refine

    cache = WarmStateCache(scale=SCALE)
    untrained = _fingerprint(cache.evaluator())

    async def scenario():
        async with SignoffService(warm=cache, workers=1) as svc:
            trained = await svc.submit("train", "spm", dict(TRAIN)).wait()
            model = cache.evaluator()
            refined = await svc.submit("refine", "spm", {"iterations": 3}).wait()
        return trained, model, refined

    trained, model, refined = asyncio.run(asyncio.wait_for(scenario(), 240.0))
    assert trained.ok and refined.ok
    assert _fingerprint(model) != untrained
    assert cache.evaluator() is model

    # The same refinement run directly on a fresh workspace with the
    # model the train job left in the cache.
    ws = WarmStateCache(scale=SCALE).workspace("spm")
    direct = refine(
        model,
        ws.timing_graph(),
        ws.forest.get_steiner_coords(),
        config=RefinementConfig(
            max_iterations=3, acceptance="evaluator", polish_probes=0
        ),
        clamp_fn=ws.forest.clamp_coords,
    )
    assert refined.value["coords_digest"] == _coords_digest(direct.coords)
    assert refined.value["iterations"] == direct.iterations
    assert refined.value["best_wns"] == float(direct.best_wns)
    assert refined.value["best_tns"] == float(direct.best_tns)
