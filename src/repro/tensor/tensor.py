"""A small reverse-mode autograd engine over NumPy float32 arrays.

This is the reproduction's stand-in for PyTorch's tensor library.  It is
deliberately minimal but *real*: every model in :mod:`repro.models` trains
through this engine, gradients flow through genuine float32 arithmetic, and
— crucially for the paper — every reduction and GEMM dispatches through the
kernel registry (:mod:`repro.tensor.kernels`) so that the executing device's
dialect and the active :class:`~repro.tensor.kernels.KernelPolicy` determine
the bit pattern of the result.

Design notes
------------
- Gradients are accumulated in reverse-topological order of graph
  construction, which is itself deterministic, so the engine adds no
  non-determinism of its own; all intentional non-determinism lives in the
  kernel registry and the communication layer.
- Broadcasting follows NumPy semantics; ``_unbroadcast`` folds gradient
  contributions back onto the parents' shapes.
- ``no_grad()`` scopes inference passes (metric evaluation) so they don't
  build graphs.
- A graph is single-use: ``backward()`` drops each node's closure as soon
  as it has run, so the saved operands are released during the pass, the
  nodes die by reference count when the caller drops the root, and a second
  ``backward()`` through any of them raises.  ``.grad`` stays readable on
  every node that is still referenced.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.tensor import kernels
from repro.tensor.context import current_context

Scalar = Union[int, float]


class _GradMode(threading.local):
    def __init__(self) -> None:
        self.enabled = True


_GRAD_MODE = _GradMode()


class _GradHooks(threading.local):
    def __init__(self) -> None:
        self.hooks: List[Callable[["Tensor"], None]] = []


_GRAD_HOOKS = _GradHooks()


@contextmanager
def leaf_grad_hook(hook: Callable[["Tensor"], None]) -> Iterator[None]:
    """Invoke ``hook(tensor)`` whenever a *leaf* tensor receives gradient.

    DDP uses this to observe the order in which parameter gradients become
    ready during backward — the "arrival order" that drives its
    gradient-bucket reconstruction after the first mini-batch (§3.3).
    """
    _GRAD_HOOKS.hooks.append(hook)
    try:
        yield
    finally:
        _GRAD_HOOKS.hooks.pop()


@contextmanager
def no_grad() -> Iterator[None]:
    """Disable graph construction within the scope (inference mode)."""
    prev = _GRAD_MODE.enabled
    _GRAD_MODE.enabled = False
    try:
        yield
    finally:
        _GRAD_MODE.enabled = prev


def grad_enabled() -> bool:
    """Whether autograd graph construction is currently active."""
    return _GRAD_MODE.enabled


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum a gradient over the axes that were broadcast in the forward op."""
    if grad.shape == shape:
        return grad
    # sum leading extra dims
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # sum dims that were 1 in the original shape
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """An array with an optional autograd tape entry."""

    __slots__ = ("data", "grad", "requires_grad", "_backward_fn", "_prev", "name", "__weakref__")

    def __init__(
        self,
        data: Union[np.ndarray, Sequence, Scalar],
        requires_grad: bool = False,
        _prev: Tuple["Tensor", ...] = (),
        name: Optional[str] = None,
    ) -> None:
        arr = np.asarray(data)
        if arr.dtype != np.float32:
            arr = arr.astype(np.float32)
        self.data: np.ndarray = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._backward_fn: Optional[Callable[[], None]] = None
        self._prev: Tuple[Tensor, ...] = _prev
        self.name = name

    @property
    def _backward(self) -> Optional[Callable[[], None]]:
        return self._backward_fn

    @_backward.setter
    def _backward(self, fn: Optional[Callable[[], None]]) -> None:
        # Refuse to retain backward closures on non-graph tensors: in
        # no_grad scopes the closure would otherwise keep every input of
        # the op alive, defeating inference mode's purpose.
        self._backward_fn = fn if self.requires_grad else None

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def zeros(*shape: int, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape, dtype=np.float32), requires_grad=requires_grad)

    @staticmethod
    def ones(*shape: int, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.ones(shape, dtype=np.float32), requires_grad=requires_grad)

    # ------------------------------------------------------------------
    # introspection
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

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def numpy(self) -> np.ndarray:
        return self.data

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    # ------------------------------------------------------------------
    # autograd plumbing
    # ------------------------------------------------------------------
    def _make(self, data: np.ndarray, parents: Tuple["Tensor", ...]) -> "Tensor":
        """Create the output node of an op, respecting grad mode."""
        if grad_enabled():
            for parent in parents:
                if parent.requires_grad:
                    return Tensor(data, requires_grad=True, _prev=parents)
        return Tensor(data, requires_grad=False)

    def _accumulate(self, grad: np.ndarray, owned: bool = False) -> None:
        """Add one gradient contribution.

        ``owned`` says the calling op computed ``grad`` itself and nothing
        else refers to it, so a first contribution is kept instead of
        copied; a pass-through op (a view of ``out.grad``) must leave it
        False.  A kept array is C-ordered, as the copy would have been.
        """
        if grad.dtype != np.float32:
            grad, owned = grad.astype(np.float32), True
        if self.grad is None:
            self.grad = grad if owned and grad.flags.c_contiguous else grad.copy()
        else:
            self.grad = self.grad + grad
        if _GRAD_HOOKS.hooks and self.requires_grad and not self._prev:
            for hook in _GRAD_HOOKS.hooks:
                hook(self)

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Run reverse-mode accumulation from this tensor.

        ``grad`` defaults to ones (only valid for scalar outputs, matching
        PyTorch's convention for ``loss.backward()``).  The graph is freed
        as it is traversed; backpropagating through any of its nodes again
        raises ``RuntimeError``.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar backward()")
            grad = np.ones_like(self.data)

        # leaves have no closure to run and no parents to order: only the
        # op nodes are scheduled, in the order a walk over all nodes gives
        topo: List[Tensor] = []
        visited = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)] if self._prev else []
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if node in visited:
                continue
            visited.add(node)
            if node._backward_fn is None:
                raise RuntimeError(
                    "backward() through a graph that an earlier backward() already freed"
                )
            stack.append((node, True))
            for parent in node._prev:
                if parent._prev and parent not in visited:
                    stack.append((parent, False))

        self.grad = np.asarray(grad, dtype=np.float32).reshape(self.data.shape).copy()
        # A closure holds its op's saved operands and refers to its own
        # output node: a cycle that only the cyclic collector would free.
        for node in reversed(topo):
            backward_fn = node._backward_fn
            if backward_fn is not None:
                node._backward_fn = None
                if node.grad is not None:
                    backward_fn()

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: Union["Tensor", Scalar]) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out = self._make(self.data + other_t.data, (self, other_t))

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(out.grad, self.shape))
            if other_t.requires_grad:
                other_t._accumulate(_unbroadcast(out.grad, other_t.shape))

        out._backward = _backward
        return out

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        out = self._make(-self.data, (self,))

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(-out.grad, True)

        out._backward = _backward
        return out

    def __sub__(self, other: Union["Tensor", Scalar]) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        return self + (-other_t)

    def __rsub__(self, other: Scalar) -> "Tensor":
        return Tensor(other) + (-self)

    def __mul__(self, other: Union["Tensor", Scalar]) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out = self._make(self.data * other_t.data, (self, other_t))

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(out.grad * other_t.data, self.shape), True)
            if other_t.requires_grad:
                other_t._accumulate(_unbroadcast(out.grad * self.data, other_t.shape), True)

        out._backward = _backward
        return out

    __rmul__ = __mul__

    def __truediv__(self, other: Union["Tensor", Scalar]) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out = self._make(self.data / other_t.data, (self, other_t))

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(out.grad / other_t.data, self.shape), True)
            if other_t.requires_grad:
                other_t._accumulate(
                    _unbroadcast(-out.grad * self.data / (other_t.data**2), other_t.shape), True
                )

        out._backward = _backward
        return out

    def __rtruediv__(self, other: Scalar) -> "Tensor":
        return Tensor(other) / self

    def __pow__(self, exponent: Scalar) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out = self._make(self.data**exponent, (self,))

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad * exponent * self.data ** (exponent - 1), True)

        out._backward = _backward
        return out

    # ------------------------------------------------------------------
    # matmul (dispatches through the kernel registry)
    # ------------------------------------------------------------------
    def matmul(self, other: "Tensor") -> "Tensor":
        ctx = current_context()
        out_data = kernels.matmul(self.data, other.data, dialect=ctx.dialect, policy=ctx.policy)
        out = self._make(out_data, (self, other))

        def _backward() -> None:
            g = out.grad
            if self.requires_grad:
                grad_a = kernels.matmul(
                    g, _swap_last(other.data), dialect=ctx.dialect, policy=ctx.policy
                )
                self._accumulate(_unbroadcast(grad_a, self.shape), True)
            if other.requires_grad:
                grad_b = kernels.matmul(
                    _swap_last(self.data), g, dialect=ctx.dialect, policy=ctx.policy
                )
                other._accumulate(_unbroadcast(grad_b, other.shape), True)

        out._backward = _backward
        return out

    __matmul__ = matmul

    # ------------------------------------------------------------------
    # reductions (dispatch through the kernel registry)
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        ctx = current_context()
        out_data = kernels.reduce_sum(
            self.data, axis=axis, keepdims=keepdims, dialect=ctx.dialect, policy=ctx.policy
        )
        out = self._make(np.asarray(out_data, dtype=np.float32), (self,))

        def _backward() -> None:
            if not self.requires_grad:
                return
            g = out.grad
            if axis is None:
                g = g.reshape(())
            elif not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.shape))

        out._backward = _backward
        return out

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = np.max(self.data, axis=axis, keepdims=keepdims)
        out = self._make(np.asarray(out_data, dtype=np.float32), (self,))

        def _backward() -> None:
            if not self.requires_grad:
                return
            g = out.grad
            if axis is None:
                mask = (self.data == np.max(self.data)).astype(np.float32)
                # split gradient among ties deterministically
                mask /= np.maximum(mask.sum(), 1.0)
                self._accumulate(mask * np.asarray(g).reshape(()), True)
            else:
                expanded = np.max(self.data, axis=axis, keepdims=True)
                mask = (self.data == expanded).astype(np.float32)
                mask /= np.maximum(mask.sum(axis=axis, keepdims=True), 1.0)
                gg = g if keepdims else np.expand_dims(g, axis)
                self._accumulate(mask * gg, True)

        out._backward = _backward
        return out

    # ------------------------------------------------------------------
    # shape ops
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = self._make(self.data.reshape(shape), (self,))

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad.reshape(self.shape))

        out._backward = _backward
        return out

    def transpose(self, *axes: int) -> "Tensor":
        axes_t: Optional[Tuple[int, ...]] = tuple(axes) if axes else None
        out = self._make(self.data.transpose(axes_t), (self,))

        def _backward() -> None:
            if not self.requires_grad:
                return
            if axes_t is None and out.grad.ndim == 2:
                self._accumulate(_transposed_copy(out.grad), True)
            elif axes_t is None:
                self._accumulate(out.grad.transpose())
            else:
                inverse = np.argsort(axes_t)
                self._accumulate(out.grad.transpose(inverse))

        out._backward = _backward
        return out

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, index) -> "Tensor":
        out = self._make(self.data[index], (self,))

        def _backward() -> None:
            if self.requires_grad:
                grad = np.zeros_like(self.data)
                # a basic index selects each element at most once, so the
                # scatter is a plain in-place add; only fancy indices can
                # repeat and need the unbuffered np.add.at
                parts = index if isinstance(index, tuple) else (index,)
                if all(
                    part is None or part is Ellipsis or isinstance(part, (int, np.integer, slice))
                    for part in parts
                ):
                    grad[index] += out.grad
                else:
                    np.add.at(grad, index, out.grad)
                self._accumulate(grad, True)

        out._backward = _backward
        return out

    # ------------------------------------------------------------------
    # elementwise nonlinearities
    # ------------------------------------------------------------------
    def relu(self) -> "Tensor":
        out = self._make(np.maximum(self.data, 0.0), (self,))

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad * (self.data > 0), True)

        out._backward = _backward
        return out

    def exp(self) -> "Tensor":
        out = self._make(np.exp(self.data), (self,))

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad * out.data, True)

        out._backward = _backward
        return out

    def log(self) -> "Tensor":
        out = self._make(np.log(self.data), (self,))

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad / self.data, True)

        out._backward = _backward
        return out

    def tanh(self) -> "Tensor":
        out = self._make(np.tanh(self.data), (self,))

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad * (1.0 - out.data**2), True)

        out._backward = _backward
        return out

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))
        out = self._make(out_data.astype(np.float32), (self,))

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad * out.data * (1.0 - out.data), True)

        out._backward = _backward
        return out

    def sqrt(self) -> "Tensor":
        return self**0.5


#: edge of the square tiles :func:`_transposed_copy` moves at a time: a
#: 128 x 128 float32 tile and its transposed destination stay in L2
_TRANSPOSE_TILE = 128


def _transposed_copy(a: np.ndarray) -> np.ndarray:
    """An owned C-ordered copy of the 2-D ``a.T``, made tile by tile.

    One strided copy of a large C-ordered ``a.T`` walks the source a
    column at a time and misses cache on every element (a 768 x 1024
    float32 weight gradient on a 2-vCPU x86 host: ~5 ms against ~1 ms
    tiled).  Tiles move the
    same bytes to the same places, so the result equals
    ``np.ascontiguousarray(a.T)`` bit for bit.  An array with a side
    shorter than a tile, or one that is not C-ordered, is one copy.
    """
    rows, cols = a.shape
    t = _TRANSPOSE_TILE
    if min(rows, cols) < t or not a.flags.c_contiguous:
        return a.T.copy()
    out = np.empty((cols, rows), dtype=a.dtype)
    for i in range(0, rows, t):
        for j in range(0, cols, t):
            out[j : j + t, i : i + t] = a[i : i + t, j : j + t].T
    return out


def _swap_last(arr: np.ndarray) -> np.ndarray:
    """Transpose the last two axes (batched matmul transpose)."""
    return arr.swapaxes(-1, -2)
