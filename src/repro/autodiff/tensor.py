"""Core reverse-mode autodiff tensor.

The design follows the classic tape-based approach: every operation
returns a new :class:`Tensor` holding references to its parents and a
closure that maps the output gradient to parent-gradient contributions.
Calling :meth:`Tensor.backward` topologically sorts the graph and
accumulates gradients into every tensor created with
``requires_grad=True``.

All data lives in ``float64`` numpy arrays by default.  Double precision
matters here: the adaptive-stepsize scheme of TSteiner divides two
gradient-difference norms (Eq. (9) of the paper), which is numerically
fragile in ``float32`` for nearly-converged points.

Inside a :class:`Trace` the same op code *records* instead: every result
keeps its value but no parents and no closure, and a small :class:`Node`
(op, parent nodes, shape, dtype, op parameters) describes how it was
made.  The tape compiler (``autodiff/tape.py``) builds its program from
those nodes, and each intermediate value is freed as soon as the model
code drops its tensor.
"""

from __future__ import annotations

import contextlib
import math
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

Number = Union[int, float]
ArrayLike = Union[Number, Sequence, np.ndarray, "Tensor"]

_GRAD_ENABLED = [True]


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph construction.

    Used by the refinement loop when evaluating candidate Steiner
    solutions whose gradients are not needed (accept/revert test in
    Algorithm 1) and by inference-only benchmark paths.
    """
    _GRAD_ENABLED.append(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.pop()


def is_grad_enabled() -> bool:
    return _GRAD_ENABLED[-1]


class Node:
    """How one value of a recorded trace was made.

    Op results carry their ``op``, the parent nodes in operand order,
    the result's ``shape``/``dtype``, the op parameters ``ctx`` and
    ``requires_grad`` (the op has a backward rule).  Leaves (op
    ``"leaf"``, no parents) are the tensors the trace read but did not
    build: inputs, constants and constant-folded results, whose
    ``tensor`` (and so its data) the node keeps.  A node never holds an
    op result's value.
    """

    __slots__ = ("op", "parents", "shape", "dtype", "ctx", "requires_grad", "tensor")

    def __init__(self, op, parents, shape, dtype, ctx, requires_grad, tensor=None) -> None:
        self.op = op
        self.parents: Tuple["Node", ...] = parents
        self.shape: Tuple[int, ...] = shape
        self.dtype = dtype
        self.ctx = ctx
        self.requires_grad = requires_grad
        self.tensor: Optional["Tensor"] = tensor

    @property
    def data(self) -> np.ndarray:
        """A leaf's value (op results keep none)."""
        return self.tensor.data

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def size(self) -> int:
        return math.prod(self.shape)


#: Active traces, innermost last (see :class:`Trace`).
_TRACES: List["Trace"] = []


class Trace:
    """Record the ops run inside ``with Trace() as trace:``.

    While the trace is active, :meth:`Tensor._make` gives every op
    result a :class:`Node` instead of parent links and a backward
    closure, so values are computed as usual but freed by reference
    counting once the caller drops them.  ``compile_tape`` turns the
    record into a replayable program; :meth:`node` maps a tensor the
    trace saw to its node.
    """

    def __init__(self) -> None:
        # id(tensor) -> leaf node; the node keeps the tensor (so the id
        # stays unique for the trace's lifetime).
        self._leaves: Dict[int, Node] = {}

    def __enter__(self) -> "Trace":
        _TRACES.append(self)
        return self

    def __exit__(self, *exc) -> None:
        _TRACES.remove(self)

    def node(self, t: "Tensor") -> Node:
        """``t``'s node: its op record, or its leaf node (made on first use)."""
        rec = t._rec
        if rec is not None:
            return rec
        rec = self._leaves.get(id(t))
        if rec is None:
            rec = Node("leaf", (), t.data.shape, t.data.dtype, None, t.requires_grad, t)
            self._leaves[id(t)] = rec
        return rec

    def leaf(self, t: "Tensor") -> Optional[Node]:
        """The leaf node of ``t`` if the trace read it, else ``None``."""
        return self._leaves.get(id(t))


def _as_array(value: ArrayLike) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value, dtype=np.float64)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum the leading axes numpy prepended during broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum axes that were broadcast from size one.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy-backed array that records operations for backprop."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_op", "_rec")
    __array_priority__ = 200  # numpy defers binary ops to Tensor

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: Tuple["Tensor", ...] = (),
        _backward: Optional[Callable[[np.ndarray], None]] = None,
        _op: str = "leaf",
    ) -> None:
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self.grad: Optional[np.ndarray] = None
        self._parents = _parents if self.requires_grad else ()
        self._backward = _backward
        self._op = _op
        #: The op record of a result built inside a :class:`Trace`.
        self._rec: Optional[Node] = None

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        """Return a detached copy of the underlying array."""
        return self.data.copy()

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError("item() requires a single-element tensor")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, op={self._op!r}{flag})"

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Tuple["Tensor", ...],
        backward: Optional[Callable[[np.ndarray], None]],
        op: str,
        ctx=None,
    ) -> "Tensor":
        """Build an op result — the one place every op result is made.

        ``backward=None`` makes a *detached* node: no gradient flows
        through it.  A result no parent's gradient reaches, and a
        detached one, is a constant to the closure engine.  Inside a
        :class:`Trace` the result instead gets a :class:`Node` (``ctx``
        holds the op parameters the compiler re-derives it from) and no
        parent links or closure; a detached node is recorded with its
        parents, so a compiled tape recomputes it from live values (see
        ``functional._detached``), while a constant-folded result is
        recorded as a leaf when an op reads it.
        """
        detached = backward is None
        requires = not detached and is_grad_enabled() and any(p.requires_grad for p in parents)
        if _TRACES and (requires or detached):
            trace = _TRACES[-1]
            out = Tensor(data, requires_grad=requires, _op=op)
            out._rec = Node(
                op, tuple(trace.node(p) for p in parents),
                out.data.shape, out.data.dtype, ctx, requires,
            )
            return out
        if not requires:
            return Tensor(data, _op=op)
        return Tensor(data, requires_grad=True, _parents=parents, _backward=backward, _op=op)

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(grad, dtype=np.float64, copy=True)
        else:
            self.grad += grad

    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Backpropagate from this tensor through the recorded graph."""
        if self._rec is not None:
            raise RuntimeError("backward() called on a traced tensor; compile its trace instead")
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.size != 1:
                raise RuntimeError("backward() without an explicit gradient requires a scalar output")
            seed = np.ones_like(self.data)
        else:
            seed = np.broadcast_to(_as_array(grad), self.shape).astype(np.float64)

        order: List[Tensor] = []
        visited = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(seed)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data + other_t.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other_t.requires_grad:
                other_t._accumulate(_unbroadcast(grad, other_t.shape))

        return Tensor._make(out_data, (self, other_t), backward, "add")

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad)

        return Tensor._make(-self.data, (self,), backward, "neg")

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data - other_t.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other_t.requires_grad:
                other_t._accumulate(_unbroadcast(-grad, other_t.shape))

        return Tensor._make(out_data, (self, other_t), backward, "sub")

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other) - self

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data * other_t.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other_t.data, self.shape))
            if other_t.requires_grad:
                other_t._accumulate(_unbroadcast(grad * self.data, other_t.shape))

        return Tensor._make(out_data, (self, other_t), backward, "mul")

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data / other_t.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad / other_t.data, self.shape))
            if other_t.requires_grad:
                other_t._accumulate(
                    _unbroadcast(-grad * self.data / (other_t.data**2), other_t.shape)
                )

        return Tensor._make(out_data, (self, other_t), backward, "div")

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other) / self

    def __pow__(self, exponent: Number) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data**exponent

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(out_data, (self,), backward, "pow", ctx=float(exponent))

    # ------------------------------------------------------------------
    # Elementwise functions
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data)

        return Tensor._make(out_data, (self,), backward, "exp")

    def log(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / self.data)

        return Tensor._make(np.log(self.data), (self,), backward, "log")

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * 0.5 / out_data)

        return Tensor._make(out_data, (self,), backward, "sqrt")

    def abs(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * np.sign(self.data))

        return Tensor._make(np.abs(self.data), (self,), backward, "abs")

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (1.0 - out_data**2))

        return Tensor._make(out_data, (self,), backward, "tanh")

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (self,), backward, "sigmoid")

    def relu(self) -> "Tensor":
        mask = self.data > 0

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return Tensor._make(self.data * mask, (self,), backward, "relu")

    def leaky_relu(self, negative_slope: float = 0.01) -> "Tensor":
        scale = np.where(self.data > 0, 1.0, negative_slope)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * scale)

        return Tensor._make(self.data * scale, (self,), backward, "leaky_relu", ctx=negative_slope)

    def clip(self, low: float, high: float) -> "Tensor":
        mask = (self.data > low) & (self.data < high)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return Tensor._make(np.clip(self.data, low, high), (self,), backward, "clip", ctx=(low, high))

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.shape).copy())

        return Tensor._make(out_data, (self,), backward, "sum", ctx=(axis, keepdims))

    def mean(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.size
        elif isinstance(axis, int):
            count = self.shape[axis]
        else:
            count = int(np.prod([self.shape[a] for a in axis]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = grad
            out = out_data
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
                out = np.expand_dims(out, axis)
            mask = self.data == out
            # Split gradient evenly among ties, matching subgradient choice.
            counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            self._accumulate(np.where(mask, g / counts, 0.0))

        return Tensor._make(out_data, (self,), backward, "max", ctx=(axis, keepdims))

    def min(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        return -((-self).max(axis=axis, keepdims=keepdims))

    # ------------------------------------------------------------------
    # Linear algebra and shape ops
    # ------------------------------------------------------------------
    def matmul(self, other: "Tensor") -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data @ other_t.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad @ other_t.data.T)
            if other_t.requires_grad:
                other_t._accumulate(self.data.T @ grad)

        return Tensor._make(out_data, (self, other_t), backward, "matmul")

    __matmul__ = matmul

    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.shape

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(original))

        return Tensor._make(self.data.reshape(shape), (self,), backward, "reshape")

    def transpose(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.T)

        return Tensor._make(self.data.T, (self,), backward, "transpose")

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            self._accumulate(full)

        return Tensor._make(np.array(out_data, copy=True), (self,), backward, "getitem", ctx=index)

    # ------------------------------------------------------------------
    # Comparison (non-differentiable, returns numpy)
    # ------------------------------------------------------------------
    def __lt__(self, other: ArrayLike) -> np.ndarray:
        return self.data < _as_array(other)

    def __gt__(self, other: ArrayLike) -> np.ndarray:
        return self.data > _as_array(other)

    def __le__(self, other: ArrayLike) -> np.ndarray:
        return self.data <= _as_array(other)

    def __ge__(self, other: ArrayLike) -> np.ndarray:
        return self.data >= _as_array(other)


def tensor(data: ArrayLike, requires_grad: bool = False) -> Tensor:
    """Convenience constructor mirroring ``torch.tensor``."""
    return Tensor(data, requires_grad=requires_grad)


def concatenate(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Differentiable concatenation along ``axis``."""
    items: List[Tensor] = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in items], axis=axis)
    sizes = [t.shape[axis] for t in items]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for t, start, stop in zip(items, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                slicer = [slice(None)] * grad.ndim
                slicer[axis] = slice(start, stop)
                t._accumulate(grad[tuple(slicer)])

    return Tensor._make(out_data, tuple(items), backward, "concat", ctx=axis)


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Differentiable select; ``condition`` is a plain boolean array."""
    a_t = a if isinstance(a, Tensor) else Tensor(a)
    b_t = b if isinstance(b, Tensor) else Tensor(b)
    cond = np.asarray(condition, dtype=bool)
    out_data = np.where(cond, a_t.data, b_t.data)

    def backward(grad: np.ndarray) -> None:
        if a_t.requires_grad:
            a_t._accumulate(_unbroadcast(np.where(cond, grad, 0.0), a_t.shape))
        if b_t.requires_grad:
            b_t._accumulate(_unbroadcast(np.where(cond, 0.0, grad), b_t.shape))

    return Tensor._make(out_data, (a_t, b_t), backward, "where")
