"""Compiled tape objectives for the timing evaluator.

Two hot paths rebuild the evaluator's closure graph from scratch on
every call:

* the refinement oracle (``core/refine.py``), which differentiates the
  Eq. (6) penalty w.r.t. the Steiner coordinates once per Algorithm 1
  iteration; and
* the trainer (``timing_model/train.py``), which differentiates the
  masked arrival MSE w.r.t. the model parameters once per sample per
  epoch.

Both objectives have a fixed op sequence per ``(graph topology, model,
smoothing gamma)``: only the input arrays change between calls.  This
module traces each objective once with the closure engine, lifts the
recorded graph into a :class:`~repro.autodiff.tape.Tape`, and caches
the result on ``graph._static`` — the same topology-identity cache the
flat STA kernels key on, cleared by ``_Oracle.invalidate()`` so a
checkpoint restore recompiles from clean state.

Replay is bitwise identical to the closure engine (tape.py replicates
its accumulation order); graphs using an op the tape compiler does not
know cache an *unsupported* marker and callers fall back to closures.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.autodiff.tape import Tape, TapeUnsupported, compile_tape
from repro.autodiff.tensor import Tensor
from repro.obs import get_telemetry
from repro.timing_model.model import TimingEvaluator


class TapeParityError(AssertionError):
    """Raised in ``kernel="tape-parity"`` mode on any bitwise mismatch."""


def assert_bitwise_equal(name: str, tape_value, closure_value) -> None:
    """Fail loudly unless the two results are bit-for-bit the same."""
    a = np.asarray(tape_value)
    b = np.asarray(closure_value)
    if a.shape != b.shape or not np.array_equal(a, b, equal_nan=True):
        raise TapeParityError(
            f"tape kernel diverged from closure reference on {name!r}: "
            f"max |delta| = {float(np.max(np.abs(a - b))) if a.shape == b.shape else 'shape mismatch'}"
        )


class _Unsupported:
    """Cached marker: this (graph, model) cannot be tape-compiled."""

    __slots__ = ("model", "congestion", "reason")

    def __init__(self, model, congestion, reason: str) -> None:
        self.model = model
        self.congestion = congestion
        self.reason = reason


class _TensorPenaltyConfig:
    """Duck-typed ``PenaltyConfig`` whose lambdas are live tape inputs.

    ``smoothed_penalty`` multiplies by ``config.lambda_wns`` /
    ``config.lambda_tns``; handing it scalar Tensors records the
    lambdas as graph leaves, so one compiled tape survives the per-
    iteration ``escalated()`` weight updates.  ``gamma`` stays a float
    — it is baked into op constants, hence part of the cache key.
    """

    def __init__(self, lambda_wns: Tensor, lambda_tns: Tensor, gamma: float) -> None:
        self.lambda_wns = lambda_wns
        self.lambda_tns = lambda_tns
        self.gamma = gamma


class CompiledObjective:
    """Eq. (6) penalty + arrival prefix, compiled for one design.

    Inputs read live on every replay: the flat Steiner coordinates, the
    two penalty weights, and every model parameter (by ``.data``
    rebinding, so ``load_state_dict`` is picked up without recompiling).
    """

    def __init__(self, model: TimingEvaluator, graph, gamma: float) -> None:
        from repro.core.penalty import smoothed_penalty

        self.model = model
        self.congestion = graph.congestion
        self.gamma = float(gamma)
        self.endpoints = graph.endpoints
        self.required = graph.required

        # ---- trace: one closure-engine forward defines the program ----
        coords_t = Tensor(np.zeros((graph.num_steiner, 2)), requires_grad=True)
        lam_w = Tensor(np.asarray(-1.0))
        lam_t = Tensor(np.asarray(-1.0))
        pcfg = _TensorPenaltyConfig(lam_w, lam_t, self.gamma)
        out = model(graph, coords_t)
        penalty, _, _ = smoothed_penalty(out["arrival"], self.endpoints, self.required, pcfg)

        inputs: Dict[str, Tensor] = {"coords": coords_t, "lam_w": lam_w, "lam_t": lam_t}
        for name, p in model.named_parameters():
            inputs[f"param/{name}"] = p
        # Only the coordinate gradient is ever read: pruning the adjoint
        # program to root -> coords paths drops every weight-gradient
        # GEMM the closure reference wastes time on (bitwise-safe; see
        # compile_tape).
        self.tape: Tape = compile_tape(
            penalty, inputs, outputs={"arrival": out["arrival"]}, grad_targets=("coords",)
        )
        self._params = [p for _, p in model.named_parameters()]
        self._n_prefix = self.tape.prefix_length("arrival")
        # (coords copy, parameter-array fingerprint) of the last completed
        # forward whose arrival-prefix buffers are still valid.  Cleared
        # before every replay and restored on success, so an interrupted
        # replay (fault injection, KeyboardInterrupt) can never leave a
        # half-written prefix marked reusable.
        self._fwd_state: Optional[Tuple[np.ndarray, Tuple[int, ...]]] = None

    # ------------------------------------------------------------------
    def _fingerprint(self) -> Tuple[int, ...]:
        return tuple(id(p.data) for p in self._params)

    def _overrides(self, coords: np.ndarray, pcfg=None) -> Dict[str, np.ndarray]:
        ov = {"coords": np.asarray(coords, dtype=np.float64)}
        if pcfg is not None:
            ov["lam_w"] = np.asarray(pcfg.lambda_wns, dtype=np.float64)
            ov["lam_t"] = np.asarray(pcfg.lambda_tns, dtype=np.float64)
        return ov

    def gradient(self, coords: np.ndarray, pcfg) -> Tuple[np.ndarray, np.ndarray, float]:
        """(dP/dcoords, arrival view, penalty value) at ``coords``.

        The arrival array is a live tape buffer — copy it to keep it
        past the next replay.
        """
        if float(pcfg.gamma) != self.gamma:
            raise ValueError(
                f"objective compiled for gamma={self.gamma}, called with {pcfg.gamma}"
            )
        tape = self.tape
        ov = self._overrides(coords, pcfg)
        state, self._fwd_state = self._fwd_state, None
        fp = self._fingerprint()
        if state is not None and state[1] == fp and np.array_equal(state[0], ov["coords"]):
            # The arrival prefix was already replayed at these exact
            # coordinates (the accept path: evaluate(c) then gradient(c)).
            # Only the penalty tail needs to run; the lambda weights are
            # plain input slots, rebound regardless of ``start``.
            tape.run_forward(ov, start=self._n_prefix)
        else:
            tape.run_forward(ov)
        tape.run_backward()
        self._fwd_state = (ov["coords"].copy(), fp)
        grad = tape.grad("coords")
        if grad is None:
            grad = np.zeros_like(np.asarray(coords, dtype=np.float64))
        return grad, tape.value("arrival"), tape.root_value()

    def evaluate(self, coords: np.ndarray) -> np.ndarray:
        """Arrival view at ``coords`` — forward prefix only, no penalty tail."""
        ov = self._overrides(coords)
        self._fwd_state = None
        self.tape.run_forward(ov, upto="arrival")
        self._fwd_state = (ov["coords"].copy(), self._fingerprint())
        return self.tape.value("arrival")


class CompiledLoss:
    """A per-sample training loss compiled to a tape.

    ``loss_fn(model, sample)`` builds the closure loss once at trace
    time; replays read the parameters live and write their gradients
    back through ``Tensor._accumulate`` — final ``p.grad`` values are
    bitwise what ``loss.backward()`` would have produced.
    """

    def __init__(self, model: TimingEvaluator, sample, loss_fn) -> None:
        self.model = model
        self.congestion = sample.graph.congestion
        self._params = list(model.named_parameters())
        loss = loss_fn(model, sample)
        inputs = {f"param/{name}": p for name, p in self._params}
        self.tape: Tape = compile_tape(loss, inputs)

    def loss_backward(self) -> float:
        """One fused forward+backward; accumulates grads, returns the loss."""
        tape = self.tape
        tape.run_forward()
        tape.run_backward()
        for name, p in self._params:
            g = tape.grad(f"param/{name}")
            if g is not None:
                p._accumulate(g)
        return tape.root_value()


# ----------------------------------------------------------------------
# Topology-keyed caches (on graph._static, like the flat STA kernels)
# ----------------------------------------------------------------------
def _span_attrs(tape: Tape) -> Dict[str, int]:
    """Attributes of a successful ``tape_compile`` span."""
    return {
        "n_instructions": tape.n_instructions,
        "n_slots": tape.n_slots,
        "slab_bytes": tape.stats["slab_bytes"],
        "slab_chunks": tape.stats["slab_chunks"],
    }


def _cache_lookup(graph, key, model, telemetry):
    tel = telemetry if telemetry is not None else get_telemetry()
    cached = graph._static.get(key)
    if cached is not None and cached.model is model and cached.congestion is graph.congestion:
        if tel.enabled:
            tel.count("tape.cache_hits")
        return cached, tel
    return None, tel


def get_compiled_objective(
    model: TimingEvaluator, graph, gamma: float, telemetry=None
) -> Optional[CompiledObjective]:
    """Cached :class:`CompiledObjective`, or ``None`` if unsupported.

    Keyed by ``(model identity, gamma)`` on the graph's topology cache;
    entries are dropped when the model or congestion field they were
    compiled against is no longer the live one (``TSteiner.optimize``
    rebinds ``graph.congestion`` after the probe stage) and by
    ``graph._static.clear()`` on checkpoint restore.
    """
    key = ("tape", id(model), float(gamma))
    cached, tel = _cache_lookup(graph, key, model, telemetry)
    if isinstance(cached, _Unsupported):
        return None
    if cached is not None:
        return cached
    if tel.enabled:
        tel.count("tape.cache_misses")
    with tel.span("tape_compile", what="objective", gamma=float(gamma)) as span:
        try:
            obj = CompiledObjective(model, graph, gamma)
        except TapeUnsupported as exc:
            if tel.enabled:
                tel.count("tape.fallbacks")
                span.annotate(unsupported=str(exc))
            graph._static[key] = _Unsupported(model, graph.congestion, str(exc))
            return None
        span.annotate(**_span_attrs(obj.tape))
    graph._static[key] = obj
    return obj


def get_compiled_loss(
    model: TimingEvaluator, sample, loss_fn, telemetry=None
) -> Optional[CompiledLoss]:
    """Cached per-sample :class:`CompiledLoss`, or ``None`` if unsupported."""
    graph = sample.graph
    key = ("tape-loss", id(model))
    cached, tel = _cache_lookup(graph, key, model, telemetry)
    if isinstance(cached, _Unsupported):
        return None
    if cached is not None:
        return cached
    if tel.enabled:
        tel.count("tape.cache_misses")
    with tel.span("tape_compile", what="loss", sample=getattr(sample, "name", "?")) as span:
        try:
            compiled = CompiledLoss(model, sample, loss_fn)
        except TapeUnsupported as exc:
            if tel.enabled:
                tel.count("tape.fallbacks")
                span.annotate(unsupported=str(exc))
            graph._static[key] = _Unsupported(model, graph.congestion, str(exc))
            return None
        span.annotate(**_span_attrs(compiled.tape))
    graph._static[key] = compiled
    return compiled
