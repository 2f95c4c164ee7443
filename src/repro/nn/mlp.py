"""Multi-layer perceptron, the fast benchmark workhorse.

The benches that sweep 5 algorithms x 3 worker counts x 2 BN modes use an
MLP (optionally with BatchNorm1d, so Async-BN is still exercised) because a
scaled ResNet would take hours in pure NumPy; the examples also run the
ResNets directly.

Every worker step on an MLP runs :meth:`MLP.train_forward` and
:meth:`MLP.train_backward`, a fused NumPy kernel pinned bit for bit to the
autograd path.  It is written at its NumPy call floor: ufuncs and their
reductions called directly, in place where the step owns the array, the
flat gradient's length and the batch's row index kept on the model, and
the ReLU as ``F.relu_with_mask``'s branch-free AND (``np.where``
mispredicts on every fresh batch's mask).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.nn.activations import ReLU
from repro.nn.container import Sequential
from repro.nn.linear import Linear
from repro.nn.module import Module, Parameter
from repro.nn.norm import BatchNorm1d
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor
from repro.utils.rng import fallback_rng


class MLP(Module):
    """Fully-connected classifier ``sizes[0] -> ... -> sizes[-1]``.

    Parameters
    ----------
    sizes:
        Layer widths including input and output, e.g. ``(192, 128, 64, 10)``.
    batch_norm:
        Insert BatchNorm1d after every hidden linear layer (needed by the
        BN / Async-BN experiments).
    rng:
        Generator for weight initialization.
    """

    def __init__(
        self,
        sizes: Sequence[int],
        batch_norm: bool = False,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        sizes = tuple(int(s) for s in sizes)
        if len(sizes) < 2:
            raise ValueError("MLP needs at least input and output sizes")
        if any(s <= 0 for s in sizes):
            raise ValueError("all layer sizes must be positive")
        self.sizes = sizes
        self.batch_norm = batch_norm
        gen = rng if rng is not None else fallback_rng()
        layers, hidden = [], []
        for i in range(len(sizes) - 2):
            linear = Linear(sizes[i], sizes[i + 1], bias=not batch_norm, rng=gen)
            norm = BatchNorm1d(sizes[i + 1]) if batch_norm else None
            layers += [linear] + ([norm] if batch_norm else []) + [ReLU()]
            hidden.append((linear, norm))
        self.body = Sequential(*layers, Linear(sizes[-2], sizes[-1], rng=gen))
        # the kernel's walk over ``body``: (linear, batch norm or None) per hidden layer
        self._hidden = tuple(hidden)
        # the kernel's flat gradient length (counted on first use: a count
        # here would be redone once the next module is built) and its last
        # batch's row index
        self._size = 0
        self._rows = np.arange(0)

    def forward(self, x: Tensor) -> Tensor:
        """Classify flattened input; accepts (N, D) or (N, C, H, W)."""
        if x.data.ndim > 2:
            x = x.reshape(x.data.shape[0], -1)
        return self.body(x)

    # ------------------------------------------------------------------ #
    # fused training kernel: the worker's step with no autograd graph
    # ------------------------------------------------------------------ #
    def train_forward(self, inputs: np.ndarray, targets: np.ndarray) -> Tuple[float, object]:
        """:meth:`Module.train_forward` as one NumPy pass, bit-identical to it.

        The floating-point operations and their order are those of
        ``F.linear``, ``F.batch_norm``, ``Tensor.relu`` and
        ``F.cross_entropy``; only the graph objects are gone.  Batch norm,
        ReLU and the log-softmax run through the same array helpers as those
        (``F.batch_stats``, ``F.batch_norm_affine``, ``F.relu_with_mask``,
        ``F.class_log_probs``); the rest calls ufuncs directly and works in
        place in the step's own temporaries.  Each BN layer records its
        batch statistics (and its EMA, unless external) exactly as in
        ``forward``.
        """
        self.train()
        x = np.asarray(inputs)
        if x.ndim > 2:
            x = x.reshape(x.shape[0], -1)
        add = np.add
        saved = []
        for linear, norm in self._hidden:
            h = x @ linear.weight.data.T
            if linear.bias is not None:
                add(h, linear.bias.data, h)
            bn_saved = None
            if norm is not None:
                count = h.shape[0]
                mean, var, centred = F.batch_stats(h, _AXES, _VIEW, count)
                h, x_hat, inv_std = F.batch_norm_affine(
                    centred, var, norm.gamma.data, norm.beta.data, _VIEW, norm.eps, h.dtype
                )
                norm.record_batch_stats(mean, var)
                bn_saved = (x_hat, inv_std, count)
            out, mask = F.relu_with_mask(h)
            saved.append((x, bn_saved, mask))
            x = out
        head = self.body[-1]
        logits = x @ head.weight.data.T
        add(logits, head.bias.data, logits)
        targets, logp = F.class_log_probs(logits, targets)
        n = targets.shape[0]
        rows = self._rows
        if rows.shape[0] != n:
            rows = self._rows = np.arange(n)
        picked = logp[rows, targets]
        np.negative(picked, picked)
        # ndarray.mean's arithmetic: the sum in the logits' dtype, divided in float64, rounded back
        loss = logits.dtype.type(add.reduce(picked) / np.float64(n))
        return float(loss), (saved, x, logp, rows, targets)

    def train_backward(self, pending, seed: float) -> np.ndarray:
        """:meth:`Module.train_backward` for :meth:`train_forward`'s ``pending``.

        Gradients go straight into one float64 vector in ``named_parameters``
        order, filled from the last parameter back.
        """
        saved, x, logp, rows, targets = pending
        mul, reduce = np.multiply, np.add.reduce
        # cross_entropy's backward: (softmax - onehot) * (seed / n)
        g = np.exp(logp)
        g[rows, targets] -= 1.0
        mul(g, logp.dtype.type(seed) / rows.shape[0], g)
        if not self._size:
            self._size = self.num_parameters()
        flat = np.empty(self._size, dtype=np.float64)
        head = self.body[-1]
        end = _put_linear_grads(flat, flat.size, head, x, g)
        w = head.weight.data
        for (linear, norm), (x, bn_saved, mask) in zip(reversed(self._hidden), reversed(saved)):
            g = g @ w
            mul(g, mask, g)
            if norm is not None:
                x_hat, inv_std, count = bn_saved
                g64 = g.astype(np.float64)
                end = _put(flat, end, norm.beta, reduce(g64, 0))
                end = _put(flat, end, norm.gamma, reduce(mul(g64, x_hat), 0))
                dx = F.batch_norm_input_grad(g64, x_hat, inv_std, norm.gamma.data, _AXES, _VIEW, count, True)
                g = dx.astype(g.dtype, copy=False)
            end = _put_linear_grads(flat, end, linear, x, g)
            w = linear.weight.data
        return flat

    def extra_repr(self) -> str:
        return f"sizes={self.sizes}, batch_norm={self.batch_norm}"


_AXES, _VIEW = (0,), (1, -1)


def _put(flat: np.ndarray, end: int, param: Parameter, grad: np.ndarray) -> int:
    """Write ``param``'s gradient (cast to its dtype) just before ``end``."""
    start = end - param.data.size
    # through a view: a transposed weight gradient is not copied to be flattened
    flat[start:end].reshape(grad.shape)[...] = grad.astype(param.data.dtype, copy=False)
    return start


def _put_linear_grads(flat: np.ndarray, end: int, linear: Linear, x: np.ndarray, g: np.ndarray) -> int:
    """``F.linear``'s bias and weight gradients for input ``x``, output gradient ``g``."""
    if linear.bias is not None:
        end = _put(flat, end, linear.bias, np.add.reduce(g, 0))
    return _put(flat, end, linear.weight, (x.T @ g).T)
