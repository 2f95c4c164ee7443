"""The :class:`Tensor` type and its reverse-mode autograd machinery.

Design notes
------------
* A ``Tensor`` wraps a NumPy array (``.data``) and, when gradients are
  enabled and required, a backward closure plus references to its parents.
* ``backward()`` runs an iterative topological sort (no recursion limits on
  deep LSTM graphs) and accumulates gradients into ``.grad``.
* Broadcasting follows NumPy semantics; ``_unbroadcast`` reduces an upstream
  gradient back to a parent's shape, which makes every binary op correct for
  arbitrary broadcast patterns (property-tested with hypothesis).
* Dtypes are preserved: float32 for training-speed paths, float64 for the
  numeric gradient checks.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np
from repro.utils.rng import fallback_rng

Scalar = Union[int, float]
TensorLike = Union["Tensor", np.ndarray, Scalar, Sequence]

# Grad mode is per-thread: the thread runtime evaluates under no_grad() on
# the server actor while worker threads are mid-forward, and a process-wide
# flag would sever their graphs.  Every thread starts with grads enabled.
_grad_state = threading.local()


def is_grad_enabled() -> bool:
    """Return whether autograd graph recording is active on this thread."""
    return getattr(_grad_state, "enabled", True)


@contextlib.contextmanager
def no_grad():
    """Context manager disabling graph recording (evaluation / inference).

    Scoped to the calling thread; concurrent threads keep their own mode.
    """
    previous = is_grad_enabled()
    _grad_state.enabled = False
    try:
        yield
    finally:
        _grad_state.enabled = previous


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` (shape of a broadcast result) back to ``shape``.

    Sums over leading axes added by broadcasting and over axes of size one.
    """
    if grad.shape == shape:
        return grad
    # Sum away leading dimensions that were prepended by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, size in enumerate(shape) if size == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """An N-dimensional array with reverse-mode automatic differentiation.

    Parameters
    ----------
    data:
        Array-like payload; coerced to a NumPy array (default float32 for
        floating input).
    requires_grad:
        Whether gradients should be accumulated into this tensor by
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(
        self,
        data: TensorLike,
        requires_grad: bool = False,
        _parents: Tuple["Tensor", ...] = (),
        _backward: Optional[Callable[[], None]] = None,
        name: Optional[str] = None,
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if arr.dtype == np.float64 and not isinstance(data, (np.ndarray, np.generic)):
            # Python floats / lists default to float32 to match DL practice;
            # NumPy arrays and scalars keep their dtype (float64 matters for
            # the numeric gradient checks).
            arr = arr.astype(np.float32)
        self.data: np.ndarray = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad: bool = bool(requires_grad)
        self._backward: Optional[Callable[[], None]] = _backward
        self._parents: Tuple["Tensor", ...] = _parents
        self.name = name

    # ------------------------------------------------------------------ #
    # basic introspection
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        """Shape of the underlying array."""
        return self.data.shape

    @property
    def ndim(self) -> int:
        """Number of dimensions."""
        return self.data.ndim

    @property
    def size(self) -> int:
        """Total number of elements."""
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        """Dtype of the underlying array."""
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        """Transpose of a 2-D tensor (alias for :meth:`transpose`)."""
        return self.transpose()

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy); treat as read-only."""
        return self.data

    def item(self) -> float:
        """Return the value of a single-element tensor as a Python float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else self._item_err()

    @staticmethod
    def _item_err() -> float:
        raise ValueError("item() is only valid for single-element tensors")

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but detached from the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        """Return a detached deep copy."""
        return Tensor(self.data.copy(), requires_grad=False)

    def astype(self, dtype) -> "Tensor":
        """Return a detached cast copy."""
        return Tensor(self.data.astype(dtype), requires_grad=False)

    def zero_grad(self) -> None:
        """Clear the accumulated gradient."""
        self.grad = None

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({np.array2string(self.data, precision=4, threshold=8)}{grad_flag})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------ #
    # autograd plumbing
    # ------------------------------------------------------------------ #
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Tuple["Tensor", ...],
        backward: Callable[[], None],
    ) -> "Tensor":
        """Build an op result, recording the graph only when useful.

        ``data`` is an op's own output, so none of ``__init__``'s input
        coercion applies: the slots are filled directly.
        """
        requires = is_grad_enabled() and any(p.requires_grad for p in parents)
        out = Tensor.__new__(Tensor)
        out.data = data if isinstance(data, np.ndarray) else np.asarray(data)
        out.grad = None
        out.name = None
        out.requires_grad = requires
        out._parents = parents if requires else ()
        out._backward = backward if requires else None
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` into ``self.grad`` (allocating on first use)."""
        if grad.dtype != self.data.dtype:
            grad = grad.astype(self.data.dtype)
        if self.grad is None:
            self.grad = grad.copy() if grad.base is not None else grad
        else:
            self.grad = self.grad + grad

    def backward(self, grad: Optional[Union[np.ndarray, "Tensor"]] = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        Parameters
        ----------
        grad:
            Seed gradient.  Defaults to ``ones_like(self)``; the common case
            is a scalar loss where the seed is simply 1.0.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            seed = np.ones_like(self.data)
        elif isinstance(grad, Tensor):
            seed = np.asarray(grad.data, dtype=self.data.dtype)
        else:
            seed = np.asarray(grad, dtype=self.data.dtype)
        if seed.shape != self.data.shape:
            seed = np.broadcast_to(seed, self.data.shape).astype(self.data.dtype)

        topo: List[Tensor] = []
        visited = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
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
                if id(parent) not in visited and parent._parents:
                    stack.append((parent, False))
                elif id(parent) not in visited:
                    # leaf: still record once so ordering set stays consistent
                    visited.add(id(parent))

        self._accumulate(seed)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward()

    # ------------------------------------------------------------------ #
    # elementwise arithmetic
    # ------------------------------------------------------------------ #
    @staticmethod
    def _coerce(other: TensorLike, like: "Tensor") -> "Tensor":
        if isinstance(other, Tensor):
            return other
        arr = np.asarray(other, dtype=like.data.dtype)
        return Tensor(arr)

    def __add__(self, other: TensorLike) -> "Tensor":
        other = Tensor._coerce(other, self)
        out_data = self.data + other.data

        def _backward() -> None:
            if self.requires_grad or self._parents:
                self._accumulate(_unbroadcast(out.grad, self.data.shape))
            if other.requires_grad or other._parents:
                other._accumulate(_unbroadcast(out.grad, other.data.shape))

        out = Tensor._make(out_data, (self, other), _backward)
        return out

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def _backward() -> None:
            self._accumulate(-out.grad)

        out = Tensor._make(-self.data, (self,), _backward)
        return out

    def __sub__(self, other: TensorLike) -> "Tensor":
        other = Tensor._coerce(other, self)
        out_data = self.data - other.data

        def _backward() -> None:
            if self.requires_grad or self._parents:
                self._accumulate(_unbroadcast(out.grad, self.data.shape))
            if other.requires_grad or other._parents:
                other._accumulate(_unbroadcast(-out.grad, other.data.shape))

        out = Tensor._make(out_data, (self, other), _backward)
        return out

    def __rsub__(self, other: TensorLike) -> "Tensor":
        return Tensor._coerce(other, self).__sub__(self)

    def __mul__(self, other: TensorLike) -> "Tensor":
        other = Tensor._coerce(other, self)
        out_data = self.data * other.data

        def _backward() -> None:
            if self.requires_grad or self._parents:
                self._accumulate(_unbroadcast(out.grad * other.data, self.data.shape))
            if other.requires_grad or other._parents:
                other._accumulate(_unbroadcast(out.grad * self.data, other.data.shape))

        out = Tensor._make(out_data, (self, other), _backward)
        return out

    __rmul__ = __mul__

    def __truediv__(self, other: TensorLike) -> "Tensor":
        other = Tensor._coerce(other, self)
        out_data = self.data / other.data

        def _backward() -> None:
            if self.requires_grad or self._parents:
                self._accumulate(_unbroadcast(out.grad / other.data, self.data.shape))
            if other.requires_grad or other._parents:
                g = -out.grad * self.data / (other.data * other.data)
                other._accumulate(_unbroadcast(g, other.data.shape))

        out = Tensor._make(out_data, (self, other), _backward)
        return out

    def __rtruediv__(self, other: TensorLike) -> "Tensor":
        return Tensor._coerce(other, self).__truediv__(self)

    def __pow__(self, exponent: Scalar) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("Tensor ** only supports scalar exponents")
        out_data = self.data**exponent

        def _backward() -> None:
            self._accumulate(out.grad * exponent * self.data ** (exponent - 1))

        out = Tensor._make(out_data, (self,), _backward)
        return out

    def __matmul__(self, other: TensorLike) -> "Tensor":
        other = Tensor._coerce(other, self)
        out_data = self.data @ other.data

        def _backward() -> None:
            a, b, g = self.data, other.data, out.grad
            if self.requires_grad or self._parents:
                if a.ndim == 1 and b.ndim == 1:
                    ga = g * b  # dot product: scalar grad times the other vector
                elif b.ndim == 1:
                    ga = g[..., None] * b  # out[...,i] = sum_j a[...,i,j] b[j]
                else:
                    ga = g @ b.swapaxes(-1, -2)
                self._accumulate(_unbroadcast(ga, a.shape))
            if other.requires_grad or other._parents:
                if a.ndim == 1 and b.ndim == 1:
                    gb = g * a
                elif a.ndim == 1:
                    gb = np.einsum("i,...j->...ij", a, g)
                elif b.ndim == 1:
                    gb = (a.swapaxes(-1, -2) @ g[..., None])[..., 0]
                else:
                    gb = a.swapaxes(-1, -2) @ g
                other._accumulate(_unbroadcast(gb, b.shape))

        out = Tensor._make(out_data, (self, other), _backward)
        return out

    # comparisons produce detached boolean/float tensors (no gradients)
    def __gt__(self, other: TensorLike) -> "Tensor":
        other_data = other.data if isinstance(other, Tensor) else other
        return Tensor(self.data > other_data)

    def __lt__(self, other: TensorLike) -> "Tensor":
        other_data = other.data if isinstance(other, Tensor) else other
        return Tensor(self.data < other_data)

    def __ge__(self, other: TensorLike) -> "Tensor":
        other_data = other.data if isinstance(other, Tensor) else other
        return Tensor(self.data >= other_data)

    def __le__(self, other: TensorLike) -> "Tensor":
        other_data = other.data if isinstance(other, Tensor) else other
        return Tensor(self.data <= other_data)

    # ------------------------------------------------------------------ #
    # unary math
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        """Elementwise exponential."""
        out_data = np.exp(self.data)

        def _backward() -> None:
            self._accumulate(out.grad * out_data)

        out = Tensor._make(out_data, (self,), _backward)
        return out

    def log(self) -> "Tensor":
        """Elementwise natural logarithm."""
        out_data = np.log(self.data)

        def _backward() -> None:
            self._accumulate(out.grad / self.data)

        out = Tensor._make(out_data, (self,), _backward)
        return out

    def sqrt(self) -> "Tensor":
        """Elementwise square root."""
        out_data = np.sqrt(self.data)

        def _backward() -> None:
            self._accumulate(out.grad * 0.5 / out_data)

        out = Tensor._make(out_data, (self,), _backward)
        return out

    def tanh(self) -> "Tensor":
        """Elementwise hyperbolic tangent."""
        out_data = np.tanh(self.data)

        def _backward() -> None:
            self._accumulate(out.grad * (1.0 - out_data * out_data))

        out = Tensor._make(out_data, (self,), _backward)
        return out

    def sigmoid(self) -> "Tensor":
        """Elementwise logistic sigmoid (numerically stable)."""
        x = self.data
        out_data = np.empty_like(x)
        positive = x >= 0
        out_data[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
        ex = np.exp(x[~positive])
        out_data[~positive] = ex / (1.0 + ex)

        def _backward() -> None:
            self._accumulate(out.grad * out_data * (1.0 - out_data))

        out = Tensor._make(out_data, (self,), _backward)
        return out

    def relu(self) -> "Tensor":
        """Elementwise rectified linear unit (:func:`~repro.tensor.functional.relu_with_mask`)."""
        out_data, mask = relu_with_mask(self.data)

        def _backward() -> None:
            self._accumulate(out.grad * mask)

        out = Tensor._make(out_data, (self,), _backward)
        return out

    def abs(self) -> "Tensor":
        """Elementwise absolute value (subgradient 0 at 0)."""
        out_data = np.abs(self.data)

        def _backward() -> None:
            self._accumulate(out.grad * np.sign(self.data))

        out = Tensor._make(out_data, (self,), _backward)
        return out

    def clip(self, low: float, high: float) -> "Tensor":
        """Clamp values into ``[low, high]``; gradient is 1 inside, 0 outside."""
        mask = (self.data >= low) & (self.data <= high)
        out_data = np.clip(self.data, low, high)

        def _backward() -> None:
            self._accumulate(out.grad * mask)

        out = Tensor._make(out_data, (self,), _backward)
        return out

    # ------------------------------------------------------------------ #
    # reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Sum over ``axis`` (all axes when ``None``)."""
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def _backward() -> None:
            g = out.grad
            if not keepdims and axis is not None:
                axes = (axis,) if isinstance(axis, int) else tuple(axis)
                axes = tuple(a % self.data.ndim for a in axes)
                shape = [1 if i in axes else s for i, s in enumerate(self.data.shape)]
                g = g.reshape(shape)
            self._accumulate(np.broadcast_to(g, self.data.shape).astype(self.data.dtype))

        out = Tensor._make(np.asarray(out_data), (self,), _backward)
        return out

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Arithmetic mean over ``axis`` (all axes when ``None``)."""
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.data.shape[a % self.data.ndim] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Maximum over ``axis``; gradient splits equally among ties."""
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def _backward() -> None:
            g = out.grad
            expanded = out_data
            if not keepdims and axis is not None:
                axes = (axis,) if isinstance(axis, int) else tuple(axis)
                axes = tuple(a % self.data.ndim for a in axes)
                shape = [1 if i in axes else s for i, s in enumerate(self.data.shape)]
                g = g.reshape(shape)
                expanded = out_data.reshape(shape)
            elif axis is None:
                expanded = np.asarray(out_data).reshape((1,) * self.data.ndim)
                g = np.asarray(g).reshape((1,) * self.data.ndim)
            mask = (self.data == expanded).astype(self.data.dtype)
            counts = mask.sum(
                axis=axis if axis is not None else None,
                keepdims=True if axis is not None else False,
            )
            if axis is None:
                counts = np.asarray(counts).reshape((1,) * self.data.ndim)
            self._accumulate(mask * g / counts)

        out = Tensor._make(np.asarray(out_data), (self,), _backward)
        return out

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Population variance (ddof=0) over ``axis``, differentiable."""
        mu = self.mean(axis=axis, keepdims=True)
        centered = self - mu
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    # ------------------------------------------------------------------ #
    # shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, *shape) -> "Tensor":
        """Return a reshaped view of the same data (differentiable)."""
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)

        def _backward() -> None:
            self._accumulate(out.grad.reshape(self.data.shape))

        out = Tensor._make(out_data, (self,), _backward)
        return out

    def transpose(self, *axes) -> "Tensor":
        """Permute dimensions (defaults to full reversal, NumPy-style)."""
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        perm = axes if axes else tuple(reversed(range(self.data.ndim)))
        out_data = self.data.transpose(perm)
        inverse = tuple(np.argsort(perm))

        def _backward() -> None:
            self._accumulate(out.grad.transpose(inverse))

        out = Tensor._make(out_data, (self,), _backward)
        return out

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def _backward() -> None:
            g = np.zeros_like(self.data)
            np.add.at(g, index, out.grad)
            self._accumulate(g)

        out = Tensor._make(np.asarray(out_data), (self,), _backward)
        return out

    def pad2d(self, padding: int) -> "Tensor":
        """Zero-pad the last two axes of an (N, C, H, W) tensor."""
        if padding == 0:
            return self
        pad_width = [(0, 0)] * (self.data.ndim - 2) + [(padding, padding)] * 2
        out_data = np.pad(self.data, pad_width)

        def _backward() -> None:
            sl = [slice(None)] * (self.data.ndim - 2) + [
                slice(padding, -padding),
                slice(padding, -padding),
            ]
            self._accumulate(out.grad[tuple(sl)])

        out = Tensor._make(out_data, (self,), _backward)
        return out


# ---------------------------------------------------------------------- #
# creation helpers
# ---------------------------------------------------------------------- #
def tensor(data: TensorLike, requires_grad: bool = False, dtype=None) -> Tensor:
    """Create a tensor from array-like data."""
    arr = np.asarray(data.data if isinstance(data, Tensor) else data)
    if dtype is not None:
        arr = arr.astype(dtype)
    elif arr.dtype == np.float64:
        arr = arr.astype(np.float32)
    return Tensor(arr, requires_grad=requires_grad)


def zeros(*shape, requires_grad: bool = False, dtype=np.float32) -> Tensor:
    """All-zero tensor."""
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    return Tensor(np.zeros(shape, dtype=dtype), requires_grad=requires_grad)


def ones(*shape, requires_grad: bool = False, dtype=np.float32) -> Tensor:
    """All-one tensor."""
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    return Tensor(np.ones(shape, dtype=dtype), requires_grad=requires_grad)


def full(shape, value: float, requires_grad: bool = False, dtype=np.float32) -> Tensor:
    """Constant-filled tensor."""
    return Tensor(np.full(shape, value, dtype=dtype), requires_grad=requires_grad)


def arange(*args, dtype=np.float32) -> Tensor:
    """``np.arange`` wrapped in a tensor."""
    return Tensor(np.arange(*args).astype(dtype))


def randn(*shape, rng: Optional[np.random.Generator] = None, requires_grad: bool = False, dtype=np.float32) -> Tensor:
    """Standard-normal tensor drawn from ``rng`` (new default_rng if None)."""
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    gen = rng if rng is not None else fallback_rng()
    return Tensor(gen.standard_normal(shape).astype(dtype), requires_grad=requires_grad)


def uniform(*shape, low: float = 0.0, high: float = 1.0, rng: Optional[np.random.Generator] = None, requires_grad: bool = False, dtype=np.float32) -> Tensor:
    """Uniform tensor on ``[low, high)``."""
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    gen = rng if rng is not None else fallback_rng()
    return Tensor(gen.uniform(low, high, shape).astype(dtype), requires_grad=requires_grad)


def zeros_like(t: Tensor, requires_grad: bool = False) -> Tensor:
    """Zero tensor with the shape/dtype of ``t``."""
    return Tensor(np.zeros_like(t.data), requires_grad=requires_grad)


def ones_like(t: Tensor, requires_grad: bool = False) -> Tensor:
    """One tensor with the shape/dtype of ``t``."""
    return Tensor(np.ones_like(t.data), requires_grad=requires_grad)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` (differentiable)."""
    tensors = list(tensors)
    if not tensors:
        raise ValueError("concat requires at least one tensor")
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def _backward() -> None:
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad or t._parents:
                sl = [slice(None)] * out_data.ndim
                sl[axis] = slice(int(start), int(stop))
                t._accumulate(out.grad[tuple(sl)])

    out = Tensor._make(out_data, tuple(tensors), _backward)
    return out


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis`` (differentiable)."""
    tensors = list(tensors)
    if not tensors:
        raise ValueError("stack requires at least one tensor")
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def _backward() -> None:
        slices = np.moveaxis(out.grad, axis, 0)
        for t, g in zip(tensors, slices):
            if t.requires_grad or t._parents:
                t._accumulate(np.ascontiguousarray(g))

    out = Tensor._make(out_data, tuple(tensors), _backward)
    return out


# last: ``functional`` imports ``Tensor`` from this module
from repro.tensor.functional import relu_with_mask  # noqa: E402
