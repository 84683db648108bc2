"""Compiled tape objectives for the timing evaluator.

Two hot paths differentiate the evaluator on every call:

* the refinement oracle (``core/refine.py``), which differentiates its
  objective w.r.t. the Steiner coordinates once per Algorithm 1
  iteration — the Eq. (6) penalty, or under MCMM the LSE merge of the
  per-scenario penalties (``ScenarioPenalty.merged_penalty``); and
* the trainer (``timing_model/train.py``), which differentiates the
  masked arrival MSE w.r.t. the model parameters once per sample per
  epoch.

Both objectives have a fixed op sequence per ``(graph content, model,
smoothing gamma)`` — plus, under MCMM, the scenario set and the
dominance pruner's active mask: only the input arrays change between
calls.  This module records each objective once
(:class:`~repro.autodiff.tensor.Trace`), compiles the record into a
:class:`~repro.autodiff.tape.Tape`, and caches the result on
``graph._static`` — the same topology-identity cache the flat STA
kernels key on.

A refinement objective is also shared across graphs: each model keeps
one *shared entry*, the objectives compiled for one design content,
keyed by a digest of every value the trace reads (the graph's arrays
and scalars, its congestion field, the netlist clock).  Every flow run
builds a fresh ``TimingGraph``, so without the entry each run would
trace and compile again; with it, only the first run on a design per
model (and process) compiles, and later runs adopt the tape.  The
entry is weakly keyed by the model and objectives hold its parameter
tensors, never the model, so dropping the graph and the model frees
every tape by reference counting alone.  ``_Oracle.invalidate()``
clears both caches, so a checkpoint restore recompiles from clean
state.

Replay is bitwise identical to the closure engine (tape.py replicates
its accumulation order).  A model whose forward uses an op the tape
compiler does not know raises
:class:`~repro.autodiff.tape.TapeUnsupported`: there is no second
gradient path to fall back to.
"""

from __future__ import annotations

import hashlib
import weakref
from dataclasses import fields
from typing import Dict, Optional, Tuple

import numpy as np

from repro.autodiff.tape import Tape, compile_tape
from repro.autodiff.tensor import Tensor, Trace
from repro.obs import get_telemetry
from repro.timing_model.model import TimingEvaluator


class _TensorPenaltyConfig:
    """Duck-typed ``PenaltyConfig`` whose lambdas are live tape inputs.

    The penalty multiplies by ``config.lambda_wns`` /
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
    """Refinement objective + arrival prefix, compiled for one design.

    The objective is the Eq. (6) penalty, or with ``merge`` (a
    :class:`~repro.mcmm.penalty.ScenarioPenalty`) the LSE merge of the
    per-scenario penalties over the scenarios ``active`` selects.
    Inputs read live on every replay: the flat Steiner coordinates, the
    two penalty weights, and every model parameter (by ``.data``
    rebinding, so ``load_state_dict`` is picked up without recompiling).
    It holds the model's parameter tensors but not the model, so the
    model's shared entry can hold it without keeping the model alive.
    """

    def __init__(
        self,
        model: TimingEvaluator,
        graph,
        gamma: float,
        merge=None,
        active: Optional[np.ndarray] = None,
    ) -> None:
        from repro.core.penalty import refinement_penalty

        self.gamma = float(gamma)

        # ---- trace: one recorded forward defines the program ----
        coords_t = Tensor(np.zeros((graph.num_steiner, 2)), requires_grad=True)
        # The lambdas are gradient-carrying leaves so that every op on
        # them is recorded: the MCMM merge subtracts a zero-slack baseline
        # that depends on the lambdas alone, which grad-free leaves would
        # bake into the tape as a constant.  grad_targets below still
        # prunes their adjoint.
        lam_w = Tensor(np.asarray(-1.0), requires_grad=True)
        lam_t = Tensor(np.asarray(-1.0), requires_grad=True)
        pcfg = _TensorPenaltyConfig(lam_w, lam_t, self.gamma)
        with Trace() as trace:
            arrival = model(graph, coords_t)["arrival"]
            penalty = refinement_penalty(arrival, graph, pcfg, merge, active)

        inputs: Dict[str, Tensor] = {"coords": coords_t, "lam_w": lam_w, "lam_t": lam_t}
        for name, p in model.named_parameters():
            inputs[f"param/{name}"] = p
        # Only the coordinate gradient is ever read: pruning the adjoint
        # program to root -> coords paths drops every weight-gradient
        # GEMM the closure reference wastes time on (bitwise-safe; see
        # compile_tape).
        self.tape: Tape = compile_tape(
            trace, penalty, inputs, outputs={"arrival": arrival}, grad_targets=("coords",)
        )
        self._params = [p for _, p in model.named_parameters()]
        self._n_prefix = self.tape.prefix_length("arrival")
        # (coords copy, parameter fingerprint) of the last completed
        # forward whose arrival-prefix buffers are still valid.  Cleared
        # before every replay and restored on success, so an interrupted
        # replay (fault injection, KeyboardInterrupt) can never leave a
        # half-written prefix marked reusable.
        self._fwd_state: Optional[Tuple[np.ndarray, bytes]] = None

    # ------------------------------------------------------------------
    def fingerprint(self) -> bytes:
        """The model's parameter bytes: results at equal coordinates and
        equal fingerprints are equal (``refine()``'s query memo keys on
        it, the arrival-prefix reuse below checks it).

        Bytes, not array identities: an optimizer step writes ``p.data``
        in place (``autodiff/optim.py``), which keeps every id and would
        leave a stale result looking valid.  ≈12 µs for the 13.7k
        parameters of a 32-hidden evaluator.
        """
        return b"".join([p.data.tobytes() for p in self._params])

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
        fp = self.fingerprint()
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
        self._fwd_state = (ov["coords"].copy(), self.fingerprint())
        return self.tape.value("arrival")


class CompiledLoss:
    """A per-sample training loss compiled to a tape.

    ``loss_fn(model, sample)`` runs once, recorded; replays read the
    parameters live and write their gradients back through
    ``Tensor._accumulate`` — final ``p.grad`` values are bitwise what
    the closure engine's ``loss.backward()`` would have produced.
    """

    def __init__(self, model: TimingEvaluator, sample, loss_fn) -> None:
        self._params = list(model.named_parameters())
        with Trace() as trace:
            loss = loss_fn(model, sample)
        inputs = {f"param/{name}": p for name, p in self._params}
        self.tape: Tape = compile_tape(trace, loss, inputs)

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
# Caches: per graph (on graph._static, like the flat STA kernels) and
# one shared entry per model
# ----------------------------------------------------------------------
#: model -> ``(design digest, {objective key: CompiledObjective})``: the
#: objectives compiled for one design content.  Compiling for another
#: content replaces the entry.
_SHARED: "weakref.WeakKeyDictionary[TimingEvaluator, Tuple[bytes, Dict]]" = (
    weakref.WeakKeyDictionary()
)

#: Graph fields the evaluator and penalty traces do not read.
_UNREAD = frozenset({"netlist", "forest", "_static"})


def release_shared(model: TimingEvaluator) -> None:
    """Drop ``model``'s shared objectives: its next lookup on a graph
    that has none cached compiles afresh."""
    _SHARED.pop(model, None)


def _feed(h, obj) -> None:
    """Hash every field of the dataclass ``obj`` the traces read."""
    for f in fields(obj):
        if f.name in _UNREAD:
            continue
        value = getattr(obj, f.name)
        h.update(f.name.encode())
        if isinstance(value, np.ndarray):
            h.update(f"{value.dtype.str}{value.shape}".encode())
            h.update(np.ascontiguousarray(value))
        elif isinstance(value, list):  # the per-level arc tables
            h.update(b"[%d]" % len(value))
            for item in value:
                _feed(h, item)
        else:
            h.update(repr(value).encode())


def _design_digest(graph) -> bytes:
    """Digest of every value an objective's trace reads from ``graph``:
    each array and scalar field (``levels``, the ``congestion`` field's
    bytes and ``gcell_size`` included) and the netlist clock
    ``ScenarioPenalty`` reads.  Computed once per graph and congestion
    binding."""
    cached = graph._static.get("tape-digest")
    if cached is not None and cached[0] is graph.congestion:
        return cached[1]
    h = hashlib.blake2b(digest_size=16)
    _feed(h, graph)
    h.update(repr(graph.netlist.clock).encode())
    digest = h.digest()
    graph._static["tape-digest"] = (graph.congestion, digest)
    return digest


def _span_attrs(tape: Tape) -> Dict[str, int]:
    """Attributes of a successful ``tape_compile`` span."""
    return {
        "n_instructions": tape.n_instructions,
        "n_slots": tape.n_slots,
        "slab_bytes": tape.stats["slab_bytes"],
        "slab_chunks": tape.stats["slab_chunks"],
    }


def _bind(graph, key, model, value) -> None:
    """Cache ``value`` on ``graph`` for ``model`` and the live congestion
    field; the model is held weakly, so the graph does not keep it alive."""
    graph._static[key] = (weakref.ref(model), graph.congestion, value)


def _cache_lookup(graph, key, model, telemetry):
    tel = telemetry if telemetry is not None else get_telemetry()
    cached = graph._static.get(key)
    if cached is not None and cached[0]() is model and cached[1] is graph.congestion:
        if tel.enabled:
            tel.count("tape.cache_hits")
        return cached[2], tel
    return None, tel


def get_compiled_objective(
    model: TimingEvaluator,
    graph,
    gamma: float,
    telemetry=None,
    merge=None,
    active: Optional[np.ndarray] = None,
) -> CompiledObjective:
    """Cached :class:`CompiledObjective` (compiled on a miss).

    Keyed by ``(model identity, gamma)`` on the graph's topology cache,
    plus the scenario set, merge temperature and active mask under MCMM
    (``merge``), so each pruner mask keeps its own tape.  A graph entry
    is stale once the model or congestion field it was bound to is no
    longer the live one (``TSteiner.optimize`` rebinds
    ``graph.congestion`` on a memoized graph).

    A graph that has no live entry adopts the model's shared objective
    for the same key when the graph's content digest matches (counted
    as ``tape.shared_hits``): every flow run builds a new graph, and a
    memoized graph gets a new congestion array, yet neither recompiles
    while the content is unchanged.  The adopted objective forgets its
    forward state, so no arrival prefix carries over from another run.
    Only a real compile counts as ``tape.cache_misses`` and books a
    ``tape_compile`` span; it becomes the model's shared entry (another
    design's compile replaces it).  ``_Oracle.invalidate()`` clears
    ``graph._static`` and the shared entry on checkpoint restore.
    A forward the tape cannot compile raises
    :class:`~repro.autodiff.tape.TapeUnsupported`.
    """
    sub = (float(gamma),)
    if merge is not None:
        sub += (merge.scenarios, merge.mcmm_gamma, None if active is None else active.tobytes())
    key = ("tape", id(model)) + sub
    cached, tel = _cache_lookup(graph, key, model, telemetry)
    if cached is not None:
        return cached
    digest = _design_digest(graph)
    entry = _SHARED.get(model)
    if entry is not None and entry[0] == digest and sub in entry[1]:
        obj = entry[1][sub]
        obj._fwd_state = None
        if tel.enabled:
            tel.count("tape.shared_hits")
        _bind(graph, key, model, obj)
        return obj
    if tel.enabled:
        tel.count("tape.cache_misses")
    with tel.span("tape_compile", what="objective", gamma=float(gamma)) as span:
        obj = CompiledObjective(model, graph, gamma, merge=merge, active=active)
        span.annotate(**_span_attrs(obj.tape))
    if entry is None or entry[0] != digest:
        entry = _SHARED[model] = (digest, {})
    entry[1][sub] = obj
    _bind(graph, key, model, obj)
    return obj


def get_compiled_loss(
    model: TimingEvaluator, sample, loss_fn, telemetry=None
) -> CompiledLoss:
    """Cached per-sample :class:`CompiledLoss` (compiled on a miss; a
    forward the tape cannot compile raises
    :class:`~repro.autodiff.tape.TapeUnsupported`)."""
    graph = sample.graph
    key = ("tape-loss", id(model))
    cached, tel = _cache_lookup(graph, key, model, telemetry)
    if cached is not None:
        return cached
    if tel.enabled:
        tel.count("tape.cache_misses")
    with tel.span("tape_compile", what="loss", sample=getattr(sample, "name", "?")) as span:
        compiled = CompiledLoss(model, sample, loss_fn)
        span.annotate(**_span_attrs(compiled.tape))
    _bind(graph, key, model, compiled)
    return compiled
