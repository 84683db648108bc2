"""Evaluator training loop and prediction metrics.

Full-graph gradient descent with Adam (learning rate 5e-4, the paper's
Section IV-A value), mean-squared error on per-pin arrival time over
the masked pins of every training design.  The trainer reports per-epoch
losses and supports early stopping on a plateau so benchmark runs do
not waste time after convergence.

Resilience (docs/RESILIENCE.md): a non-finite loss or gradient either
aborts (``nonfinite_policy="raise"``) or skips that step
(``"sanitize"``); an expired :class:`~repro.runtime.budget.Budget`
stops at the next epoch boundary and returns the best weights so far
flagged ``timed_out=True``; ``checkpoint_path`` snapshots the full
trainer state (weights, Adam moments, epoch, loss history, best-state)
atomically so a killed run resumes byte-identically.

Also hosts :func:`r2_score`, the coefficient-of-determination metric of
the paper's Eq. (10), used for Table III.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.autodiff import optim
from repro.autodiff.tensor import Tensor
from repro.obs import SCHEMA_VERSION, get_telemetry
from repro.runtime import (
    Budget,
    CheckpointError,
    atomic_save_npz,
    check_finite,
    load_npz,
    validate_policy,
)
from repro.timing_model.dataset import DesignSample
from repro.timing_model.model import TimingEvaluator

_TRAIN_CKPT_KIND = "trainer-v1"

_log = logging.getLogger("repro.train")


@dataclass
class TrainerConfig:
    """Training hyper-parameters (defaults follow the paper)."""

    learning_rate: float = 5e-4
    epochs: int = 120
    weight_decay: float = 0.0
    patience: int = 25  # epochs without improvement before stopping
    min_delta: float = 1e-5
    verbose: bool = False
    # "raise" aborts on a non-finite loss/gradient; "sanitize" skips
    # the poisoned optimizer step and keeps training.
    nonfinite_policy: str = "raise"


def r2_score(truth: np.ndarray, pred: np.ndarray) -> float:
    """Coefficient of determination, Eq. (10) of the paper."""
    truth = np.asarray(truth, dtype=np.float64)
    pred = np.asarray(pred, dtype=np.float64)
    if truth.size == 0:
        return float("nan")
    ss_res = float(((truth - pred) ** 2).sum())
    ss_tot = float(((truth - truth.mean()) ** 2).sum())
    if ss_tot <= 1e-15:
        return 1.0 if ss_res <= 1e-15 else 0.0
    return 1.0 - ss_res / ss_tot


@dataclass
class TrainResult:
    """Loss history and final per-design metrics."""

    losses: List[float] = field(default_factory=list)
    best_epoch: int = 0
    final_loss: float = math.inf
    timed_out: bool = False  # budget expired; best-so-far weights kept
    skipped_steps: int = 0  # optimizer steps dropped by the NaN guard
    resumed: bool = False  # run continued from a checkpoint


def _sample_loss(model: TimingEvaluator, sample: DesignSample) -> Tensor:
    """Masked MSE on one design (differentiable)."""
    out = model(sample.graph, Tensor(sample.steiner_coords))
    arrival = out["arrival"]
    mask = sample.label_mask
    idx = np.flatnonzero(mask)
    pred = arrival[idx]
    target = Tensor(sample.arrival_label[idx])
    diff = pred - target
    return (diff * diff).mean()


def _loss_backward(model: TimingEvaluator, sample: DesignSample, telemetry=None) -> float:
    """Forward+backward on one sample; grads land on the parameters.

    Replays the per-sample compiled loss, cached on the sample graph's
    topology cache so every epoch after the first replays for free.
    """
    from repro.timing_model.compiled import get_compiled_loss

    return get_compiled_loss(model, sample, _sample_loss, telemetry=telemetry).loss_backward()


def train_evaluator(
    model: TimingEvaluator,
    samples: Sequence[DesignSample],
    config: Optional[TrainerConfig] = None,
    budget: Optional[Budget] = None,
    checkpoint_path: Optional[Union[str, Path]] = None,
    resume: bool = False,
    telemetry=None,
) -> TrainResult:
    """Train ``model`` on the training subset of ``samples``.

    ``telemetry`` records ``train_start``/``train_epoch``/``train_end``
    trace events (docs/OBSERVABILITY.md); when omitted the process
    global applies, so an installed ``telemetry_session`` still sees
    the run.
    """
    tel = telemetry if telemetry is not None else get_telemetry()
    cfg = config or TrainerConfig()
    policy = validate_policy(cfg.nonfinite_policy)
    train_samples = [s for s in samples if s.is_train]
    if not train_samples:
        raise ValueError("no training samples provided")
    optimizer = optim.Adam(
        model.parameters(), lr=cfg.learning_rate, weight_decay=cfg.weight_decay
    )
    result = TrainResult()
    best = math.inf
    stale = 0
    best_state = model.state_dict()
    start_epoch = 0
    best_epoch = 0

    ckpt = None
    if resume and checkpoint_path is not None and Path(checkpoint_path).exists():
        ckpt = load_npz(checkpoint_path)
        meta = ckpt.get("meta") or {}
        if meta.get("kind") != _TRAIN_CKPT_KIND:
            raise CheckpointError(f"{checkpoint_path} is not a trainer checkpoint")
        model.load_state_dict(
            {k[len("param/"):]: np.asarray(v) for k, v in ckpt.items() if k.startswith("param/")}
        )
        best_state = {
            k[len("best/"):]: np.array(v, copy=True)
            for k, v in ckpt.items()
            if k.startswith("best/")
        }
        n_params = len(optimizer.params)
        optimizer.load_state_dict(
            {
                "t": int(ckpt["adam_t"]),
                "m": [np.asarray(ckpt[f"adam_m/{i}"]) for i in range(n_params)],
                "v": [np.asarray(ckpt[f"adam_v/{i}"]) for i in range(n_params)],
            }
        )
        start_epoch = int(ckpt["epoch"])
        best = float(ckpt["best"])
        stale = int(ckpt["stale"])
        best_epoch = int(ckpt["best_epoch"])
        result.losses = [float(x) for x in np.asarray(ckpt["losses"]).ravel()]
        result.skipped_steps = int(ckpt["skipped_steps"])
        result.resumed = True
        if tel.enabled:
            tel.event(
                "checkpoint_resume",
                what="train",
                parent_run=meta.get("telemetry_run"),
                parent_schema=meta.get("telemetry_schema"),
                epoch=start_epoch,
            )

    def save_checkpoint(epoch_done: int) -> None:
        arrays: Dict[str, np.ndarray] = {
            "epoch": epoch_done,
            "best": best,
            "stale": stale,
            "best_epoch": best_epoch,
            "losses": np.asarray(result.losses, dtype=np.float64),
            "skipped_steps": result.skipped_steps,
            "adam_t": optimizer._t,
        }
        for name, p in model.state_dict().items():
            arrays[f"param/{name}"] = p
        for name, p in best_state.items():
            arrays[f"best/{name}"] = p
        for i, (m, v) in enumerate(zip(optimizer._m, optimizer._v)):
            arrays[f"adam_m/{i}"] = m
            arrays[f"adam_v/{i}"] = v
        atomic_save_npz(
            checkpoint_path,
            arrays,
            meta={
                "kind": _TRAIN_CKPT_KIND,
                "telemetry_run": tel.run_id,
                "telemetry_schema": SCHEMA_VERSION,
            },
        )
        if tel.enabled:
            tel.count("train.checkpoint_saves")

    if tel.enabled:
        tel.event(
            "train_start",
            samples=len(train_samples),
            epochs=cfg.epochs,
            start_epoch=start_epoch,
            lr=cfg.learning_rate,
            resumed=result.resumed,
        )
    for epoch in range(start_epoch, cfg.epochs):
        if budget is not None and budget.expired():
            result.timed_out = True
            if tel.enabled:
                tel.event("budget_expired", where="train", epoch=epoch)
            break
        epoch_loss = 0.0
        counted = 0
        for sample in train_samples:
            optimizer.zero_grad()
            loss_value = _loss_backward(model, sample, telemetry=tel)
            step_ok = check_finite(loss_value, "training loss", policy) and all(
                p.grad is None or check_finite(p.grad, "parameter gradient", policy)
                for p in optimizer.params
            )
            if not step_ok:
                # Sanitize policy: drop the poisoned step entirely so
                # NaN moments never enter Adam's state.
                result.skipped_steps += 1
                continue
            optimizer.step()
            epoch_loss += loss_value
            counted += 1
        # Average over the steps that actually ran; an all-skipped epoch
        # must read as nan, never as a spuriously perfect 0.0 "best".
        epoch_loss = epoch_loss / counted if counted else float("nan")
        result.losses.append(epoch_loss)
        _log.log(
            logging.INFO if cfg.verbose else logging.DEBUG,
            "epoch %4d  loss %.6f", epoch, epoch_loss,
        )
        if tel.enabled:
            tel.event(
                "train_epoch",
                epoch=epoch,
                loss=epoch_loss,
                steps=counted,
                skipped=result.skipped_steps,
            )
        if math.isfinite(epoch_loss) and epoch_loss < best - cfg.min_delta:
            best = epoch_loss
            best_epoch = epoch
            best_state = model.state_dict()
            stale = 0
        else:
            stale += 1
        if checkpoint_path is not None:
            save_checkpoint(epoch + 1)
        if stale >= cfg.patience:
            break
    model.load_state_dict(best_state)
    result.best_epoch = best_epoch
    result.final_loss = best
    if tel.enabled:
        tel.event(
            "train_end",
            epochs_run=len(result.losses),
            best_epoch=best_epoch,
            final_loss=best,
            skipped_steps=result.skipped_steps,
            timed_out=result.timed_out,
            resumed=result.resumed,
        )
    return result


def evaluate_r2(
    model: TimingEvaluator, samples: Sequence[DesignSample]
) -> Dict[str, Dict[str, float]]:
    """Per-design R² on all pins and on endpoints only (Table III)."""
    scores: Dict[str, Dict[str, float]] = {}
    for sample in samples:
        pred = model.predict_arrivals(sample.graph, sample.steiner_coords)
        mask_all = sample.label_mask
        mask_ends = sample.endpoint_mask
        scores[sample.name] = {
            "arrival_all": r2_score(sample.arrival_label[mask_all], pred[mask_all]),
            "arrival_ends": r2_score(sample.arrival_label[mask_ends], pred[mask_ends]),
        }
    return scores
