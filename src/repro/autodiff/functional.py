"""Functional building blocks for graph neural networks.

The two primitives every message-passing layer reduces to are

* :func:`gather` — read per-edge source features ``x[src]``; and
* :func:`segment_sum` / :func:`segment_mean` / :func:`segment_max` —
  scatter-reduce per-edge messages onto destination nodes.

On the backward pass the two are adjoint: the gradient of a gather is a
scatter-add and vice versa, which is what makes Steiner-point position
gradients flow from endpoint arrival-time predictions all the way back
through three rounds of broadcast/reduce message passing.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autodiff.tensor import Tensor, concatenate, where  # noqa: F401 (re-export)


def gather(x: Tensor, index: np.ndarray) -> Tensor:
    """Select rows of ``x`` by integer ``index`` (repeats allowed)."""
    idx = np.asarray(index, dtype=np.int64)
    return x[idx]


def segment_sum(x: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Sum rows of ``x`` into ``num_segments`` buckets given by ``segment_ids``.

    Empty segments produce zero rows, which is the correct neutral
    element for nodes with no incoming messages.
    """
    seg = np.asarray(segment_ids, dtype=np.int64)
    if seg.shape[0] != x.shape[0]:
        raise ValueError(
            f"segment_ids has {seg.shape[0]} entries for {x.shape[0]} rows"
        )
    out_shape = (num_segments,) + x.shape[1:]
    out_data = np.zeros(out_shape, dtype=np.float64)
    np.add.at(out_data, seg, x.data)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad[seg])

    return Tensor._make(out_data, (x,), backward, "segment_sum", ctx=(seg, num_segments))


def segment_mean(x: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Average rows of ``x`` per segment; empty segments stay zero."""
    seg = np.asarray(segment_ids, dtype=np.int64)
    counts = np.bincount(seg, minlength=num_segments).astype(np.float64)
    counts = np.maximum(counts, 1.0)
    total = segment_sum(x, seg, num_segments)
    return total * Tensor(1.0 / counts.reshape((num_segments,) + (1,) * (x.ndim - 1)))


def segment_max(x: Tensor, segment_ids: np.ndarray, num_segments: int, fill: float = 0.0) -> Tensor:
    """Max-reduce rows of ``x`` per segment.

    Gradient is routed to a single argmax row per segment (first
    occurrence), the standard subgradient choice.  Empty segments take
    ``fill`` and receive no gradient.
    """
    seg = np.asarray(segment_ids, dtype=np.int64)
    out_shape = (num_segments,) + x.shape[1:]
    out_data = np.full(out_shape, -np.inf, dtype=np.float64)
    np.maximum.at(out_data, seg, x.data)
    empty = ~np.isin(np.arange(num_segments), seg)
    out_data[empty] = fill

    # Identify one winning row per (segment, feature) slot for backward.
    winner = out_data[seg] == x.data

    def backward(grad: np.ndarray) -> None:
        contrib = np.where(winner, grad[seg], 0.0)
        # If several rows tie, split evenly to keep gradcheck happy.
        tie_counts = np.zeros(out_shape, dtype=np.float64)
        np.add.at(tie_counts, seg, winner.astype(np.float64))
        tie_counts = np.maximum(tie_counts, 1.0)
        x._accumulate(contrib / tie_counts[seg])

    return Tensor._make(out_data, (x,), backward, "segment_max", ctx=(seg, num_segments, fill))


def _detached(data: np.ndarray, parents, op: str, ctx=None) -> Tensor:
    """Non-differentiable node that a trace records with its parents.

    The closure engine treats these exactly like the plain ``Tensor``
    constants they replace: no gradient flows through.  Inside a
    :class:`~repro.autodiff.tensor.Trace`, however, the node is recorded
    with its parents and *op*, and the compiled tape re-computes
    ``data`` from live parent values on every replay — which is how
    data-dependent quantities (log-sum-exp shifts, congestion cell
    indices) stay correct when the input coordinates change.
    """
    return Tensor._make(np.asarray(data, dtype=np.float64), tuple(parents), None, op, ctx=ctx)


def detached_max(x: Tensor, axis: Optional[int] = None) -> Tensor:
    """``np.max(x.data, axis, keepdims=True)`` as a recompute node."""
    return _detached(np.max(x.data, axis=axis, keepdims=True), (x,), "detached_max", ctx=axis)


def detached_div(x: Tensor, divisor: float) -> Tensor:
    """``x.data / divisor`` with no gradient flow (recomputed on replay).

    Kept as a true division — ``x / d`` and ``x * (1 / d)`` differ in
    the last ulp for some operands, and tape parity is bitwise.
    """
    return _detached(x.data / divisor, (x,), "detached_div", ctx=float(divisor))


def detached_squeeze(x: Tensor, axis: Optional[int] = None) -> Tensor:
    """Squeeze ``axis`` (or reshape to scalar) with no gradient flow."""
    data = np.squeeze(x.data, axis=axis) if axis is not None else x.data.reshape(())
    return _detached(data, (x,), "detached_squeeze", ctx=axis)


def bilinear_parts(field: np.ndarray, cx: Tensor, cy: Tensor):
    """Data-dependent pieces of a bilinear field sample at (cx, cy).

    ``cx``/``cy`` are continuous cell coordinates.  Returns the floor
    cell corners as float tensors (``ixf``, ``iyf``) and the four
    gathered corner values (``c00``, ``c10``, ``c01``, ``c11``) — all
    detached recompute nodes: cell indices are piecewise constant in
    the positions, so no gradient flows through them, but a compiled
    tape re-derives them from the live coordinates each replay.
    """
    nx, ny = field.shape
    ix = np.clip(np.floor(cx.data).astype(np.int64), 0, max(nx - 2, 0))
    iy = np.clip(np.floor(cy.data).astype(np.int64), 0, max(ny - 2, 0))
    ix2 = np.minimum(ix + 1, nx - 1)
    iy2 = np.minimum(iy + 1, ny - 1)
    parents = (cx, cy)

    def node(data: np.ndarray, which: str) -> Tensor:
        return _detached(data, parents, "bilinear", ctx=(field, which))

    return (
        node(ix.astype(np.float64), "ixf"),
        node(iy.astype(np.float64), "iyf"),
        node(field[ix, iy], "c00"),
        node(field[ix2, iy], "c10"),
        node(field[ix, iy2], "c01"),
        node(field[ix2, iy2], "c11"),
    )


def logsumexp(x: Tensor, gamma: float = 1.0, axis: Optional[int] = None) -> Tensor:
    """Numerically-stable smoothed maximum, Eq. (5) of the paper.

    ``LSE_gamma(x) = gamma * log(sum(exp(x / gamma)))`` which upper
    bounds ``max(x)`` and converges to it as ``gamma -> 0``.

    The shift is the usual max-subtraction stabilizer.  It is data
    dependent but piecewise constant, so it carries no gradient; it is
    recorded as a detached recompute node so a compiled tape re-derives
    it from the live input instead of baking a stale constant.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    shift = detached_max(x, axis=axis)
    shifted = x * (1.0 / gamma) - detached_div(shift, gamma)
    summed = shifted.exp().sum(axis=axis)
    return summed.log() * gamma + detached_squeeze(shift, axis=axis)


def softmin_weights(values: np.ndarray, gamma: float) -> np.ndarray:
    """Non-differentiable helper: softmin weighting used in diagnostics."""
    v = np.asarray(values, dtype=np.float64)
    z = -(v - v.min()) / gamma
    w = np.exp(z)
    return w / w.sum()


def softplus(x: Tensor, beta: float = 1.0) -> Tensor:
    """Smooth approximation of relu; used for non-negative predictions.

    Uses the symmetric decomposition ``log(1+exp(s)) = s/2 + |s|/2 +
    log(1+exp(-|s|))``, which is numerically stable in both tails *and*
    has the exact gradient (sigmoid) at s = 0, where the naive
    max-based split returns a wrong subgradient.
    """
    scaled = x * beta
    stable = ((scaled.abs() * -1.0).exp() + 1.0).log()
    return (scaled * 0.5 + scaled.abs() * 0.5 + stable) * (1.0 / beta)


def mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean squared error."""
    target_t = target if isinstance(target, Tensor) else Tensor(target)
    diff = pred - target_t
    return (diff * diff).mean()


def mae_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean absolute error."""
    target_t = target if isinstance(target, Tensor) else Tensor(target)
    return (pred - target_t).abs().mean()


def huber_loss(pred: Tensor, target: Tensor, delta: float = 1.0) -> Tensor:
    """Huber loss, robust to the long-tail arrival times of deep paths."""
    target_t = target if isinstance(target, Tensor) else Tensor(target)
    diff = pred - target_t
    abs_diff = diff.abs()
    quadratic = diff * diff * 0.5
    linear = abs_diff * delta - 0.5 * delta * delta
    return where(abs_diff.data <= delta, quadratic, linear).mean()


def dropout(x: Tensor, rate: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout; identity when not training or rate == 0."""
    if not training or rate <= 0.0:
        return x
    keep = 1.0 - rate
    mask = (rng.random(x.shape) < keep).astype(np.float64) / keep
    return x * Tensor(mask)
