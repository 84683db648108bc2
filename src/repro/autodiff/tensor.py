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
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

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

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_op", "_ctx")
    __array_priority__ = 200  # numpy defers binary ops to Tensor

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: Tuple["Tensor", ...] = (),
        _backward: Optional[Callable[[np.ndarray], None]] = None,
        _op: str = "leaf",
        _ctx=None,
    ) -> None:
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self.grad: Optional[np.ndarray] = None
        self._parents = _parents if self.requires_grad or _parents else ()
        self._backward = _backward
        self._op = _op
        # Op parameters (axis, clip bounds, indices, ...) recorded so the
        # tape compiler (autodiff/tape.py) can re-derive the op's exact
        # semantics from the built graph; unused by the closure engine.
        self._ctx = _ctx

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
        backward: Callable[[np.ndarray], None],
        op: str,
        ctx=None,
    ) -> "Tensor":
        requires = is_grad_enabled() and any(p.requires_grad for p in parents)
        if not requires:
            return Tensor(data, _op=op, _ctx=ctx)
        return Tensor(
            data, requires_grad=True, _parents=parents, _backward=backward, _op=op, _ctx=ctx
        )

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(grad, dtype=np.float64, copy=True)
        else:
            self.grad += grad

    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Backpropagate from this tensor through the recorded graph."""
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
