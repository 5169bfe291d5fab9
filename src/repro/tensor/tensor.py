"""The :class:`Tensor` autograd core.

Reverse-mode automatic differentiation over numpy arrays.  The graph is a
DAG of tensors; each non-leaf tensor stores its parents and a closure that
propagates its output gradient to them.  ``backward()`` runs a topological
sweep from a scalar loss.

Device accounting: when a tensor is created with (or inherits) a
``device``, the raw numpy buffer is registered with the device's memory
ledger.  Activation lifetime is then modeled faithfully by Python object
lifetime — saved activations stay referenced by backward closures until
the graph is released, exactly as a framework keeps activations until
``backward()`` completes.

Rule for new ops: a backward closure captures its inputs (and arrays
saved from the forward), never its own output tensor.  Edges then only
point from a tensor to its parents, so the graph has no reference
cycles and dropping the last reference to the loss frees every
activation by refcount.  The trainer relies on this: it releases each
micro-batch's graph with a plain ``del`` and never runs the cyclic
collector (``tests/core/test_deterministic_release.py``).
"""

from __future__ import annotations

import contextlib
from typing import Callable, Sequence

import numpy as np

from repro.config import FLOAT_DTYPE
from repro.errors import AutogradError

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Context manager disabling graph construction (inference mode)."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after a broadcasted forward op."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(
        i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1
    )
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy-backed tensor with reverse-mode autograd.

    Args:
        data: array-like; converted to the library float dtype when it is
            floating point (integer arrays keep their dtype — useful for
            index tensors).
        requires_grad: track gradients through this tensor.
        device: optional :class:`repro.device.SimulatedGPU`; the buffer is
            registered with its ledger (possibly raising
            :class:`~repro.errors.DeviceOutOfMemoryError`).
    """

    __slots__ = ("data", "grad", "requires_grad", "device", "_parents",
                 "_backward_fn", "__weakref__")

    def __init__(
        self,
        data,
        *,
        requires_grad: bool = False,
        device=None,
        _parents: tuple["Tensor", ...] = (),
        _backward_fn: Callable[[np.ndarray], None] | None = None,
    ) -> None:
        arr = np.asarray(data)
        if np.issubdtype(arr.dtype, np.floating) and arr.dtype != FLOAT_DTYPE:
            arr = arr.astype(FLOAT_DTYPE)
        self.data = arr
        self.grad: np.ndarray | None = None  # guarded-by: owner-thread (autograd graphs are never shared across threads)
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self.device = device
        self._parents = _parents if self.requires_grad else ()
        self._backward_fn = _backward_fn if self.requires_grad else None
        if device is not None:
            device.track(self.data)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def nbytes(self) -> int:
        return int(self.data.nbytes)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """The underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """A new tensor sharing data, cut from the graph."""
        return Tensor(self.data, device=self.device)

    # ------------------------------------------------------------------
    # Graph construction helper
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward_fn: Callable[[np.ndarray], None],
    ) -> "Tensor":
        requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        device = next((p.device for p in parents if p.device is not None), None)
        return Tensor(
            data,
            requires_grad=requires,
            device=device,
            _parents=tuple(p for p in parents if p.requires_grad),
            _backward_fn=backward_fn if requires else None,
        )

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = grad.astype(self.data.dtype, copy=True)
            if self.device is not None:
                # Gradient buffers live on the device too (they are what
                # makes backward the memory peak of real training).
                self.device.track(self.grad)
        else:
            self.grad += grad

    # ------------------------------------------------------------------
    # Backward
    # ------------------------------------------------------------------
    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor.

        Args:
            grad: seed gradient; defaults to 1 for scalar tensors.
        """
        if not self.requires_grad:
            raise AutogradError("backward() on a tensor without grad")
        if grad is None:
            if self.size != 1:
                raise AutogradError(
                    "backward() without an explicit gradient requires a "
                    f"scalar tensor, got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        # Backward closures propagate whatever sits in ``node.grad``; stash
        # grads left over from earlier backward() calls so each pass
        # propagates only its own seed, then merge the stash back (PyTorch
        # retain_graph accumulation semantics).
        stash = [(node, node.grad) for node in topo if node.grad is not None]
        for node, _ in stash:
            node.grad = None

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)

        for node, old in stash:
            node.grad = old if node.grad is None else node.grad + old

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def _coerce(self, other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data + other.data

        def backward_fn(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.shape))

        return Tensor._make(out_data, (self, other), backward_fn)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward_fn(grad: np.ndarray) -> None:
            self._accumulate(-grad)

        return Tensor._make(-self.data, (self,), backward_fn)

    def __sub__(self, other) -> "Tensor":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Tensor":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data * other.data

        def backward_fn(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * self.data, other.shape))

        return Tensor._make(out_data, (self, other), backward_fn)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data / other.data

        def backward_fn(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(
                        -grad * self.data / (other.data**2), other.shape
                    )
                )

        return Tensor._make(out_data, (self, other), backward_fn)

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise AutogradError("only scalar exponents are supported")
        out_data = self.data**exponent

        def backward_fn(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(out_data, (self,), backward_fn)

    def __matmul__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data @ other.data

        def backward_fn(grad: np.ndarray) -> None:
            if self.requires_grad:
                g = grad @ np.swapaxes(other.data, -1, -2)
                self._accumulate(_unbroadcast(g, self.shape))
            if other.requires_grad:
                g = np.swapaxes(self.data, -1, -2) @ grad
                other._accumulate(_unbroadcast(g, other.shape))

        return Tensor._make(out_data, (self, other), backward_fn)

    # ------------------------------------------------------------------
    # Shape ops
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        original = self.shape

        def backward_fn(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(original))

        return Tensor._make(out_data, (self,), backward_fn)

    def transpose(self, *axes: int) -> "Tensor":
        axes_ = tuple(axes) if axes else tuple(range(self.ndim))[::-1]
        out_data = self.data.transpose(axes_)
        inverse = np.argsort(axes_)

        def backward_fn(grad: np.ndarray) -> None:
            self._accumulate(grad.transpose(inverse))

        return Tensor._make(out_data, (self,), backward_fn)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, key) -> "Tensor":
        out_data = self.data[key]

        def backward_fn(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            np.add.at(full, key, grad)
            self._accumulate(full)

        return Tensor._make(out_data, (self,), backward_fn)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward_fn(grad: np.ndarray) -> None:
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            self._accumulate(np.broadcast_to(g, self.shape).copy())

        return Tensor._make(out_data, (self,), backward_fn)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        count = (
            self.size
            if axis is None
            else np.prod(
                [self.shape[a] for a in np.atleast_1d(axis)]
            )
        )
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(count))

    def max(self, axis: int, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)
        argmax = np.expand_dims(self.data.argmax(axis=axis), axis=axis)

        def backward_fn(grad: np.ndarray) -> None:
            g = grad if keepdims else np.expand_dims(grad, axis=axis)
            full = np.zeros_like(self.data)
            np.put_along_axis(full, argmax, g, axis=axis)
            self._accumulate(full)

        return Tensor._make(out_data, (self,), backward_fn)

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def relu(self) -> "Tensor":
        mask = self.data > 0
        out_data = self.data * mask

        def backward_fn(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return Tensor._make(out_data, (self,), backward_fn)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward_fn(grad: np.ndarray) -> None:
            self._accumulate(grad * (1.0 - out_data**2))

        return Tensor._make(out_data, (self,), backward_fn)

    def sigmoid(self) -> "Tensor":
        # Overflow-safe: exponentiate only negative magnitudes.
        positive = self.data >= 0
        z = np.exp(-np.abs(self.data))
        out_data = np.where(positive, 1.0 / (1.0 + z), z / (1.0 + z))

        def backward_fn(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (self,), backward_fn)

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward_fn(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data)

        return Tensor._make(out_data, (self,), backward_fn)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward_fn(grad: np.ndarray) -> None:
            self._accumulate(grad / self.data)

        return Tensor._make(out_data, (self,), backward_fn)

    def leaky_relu(self, negative_slope: float = 0.2) -> "Tensor":
        mask = self.data > 0
        scale = np.where(mask, 1.0, negative_slope).astype(self.data.dtype)
        out_data = self.data * scale

        def backward_fn(grad: np.ndarray) -> None:
            self._accumulate(grad * scale)

        return Tensor._make(out_data, (self,), backward_fn)
