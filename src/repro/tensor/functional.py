"""Neural-network primitives with hand-written forward/backward passes.

These are the performance-critical fused ops that a naive composition of
:class:`~repro.tensor.tensor.Tensor` primitives would make slow or
numerically fragile:

* :func:`softmax` / :func:`log_softmax` / :func:`cross_entropy` — max-shifted
  for stability; cross-entropy fuses log-softmax with NLL so its backward is
  the classic ``(softmax - onehot) / N``.
* :func:`conv2d` — im2col forward (strided window view, single GEMM) and
  col2im backward (per-kernel-offset strided accumulation), the standard
  CPU-efficient formulation.
* :func:`max_pool2d` / :func:`avg_pool2d` — window views with argmax
  scatter / uniform spread backward.
* :func:`batch_norm` — returns batch mean/var so the distributed layer can
  ship them to the parameter server (Algorithm 1, lines 6-7).
* :func:`relu_with_mask` — ``np.where(x > 0, x, 0.0)`` bit for bit, as a
  bitwise AND: ``np.where`` picks each element by a branch, which
  mispredicts on every fresh batch's mask.

The array-level helpers (:func:`relu_with_mask`, :func:`class_log_probs`,
:func:`batch_stats`, :func:`batch_norm_affine`, :func:`batch_norm_input_grad`)
are shared with the fused MLP training kernel
(:meth:`repro.nn.mlp.MLP.train_forward`), so both run the same operations
in the same order.  They call ufuncs and their reductions directly, with
positional outputs into temporaries they own, instead of the
``ndarray.sum``/``max``/operator wrappers: on the worker's small arrays the
wrappers cost as much as the arithmetic.

Every backward here is covered by central-difference gradient checks in
``tests/tensor/test_gradcheck.py``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.tensor.tensor import Tensor
from repro.utils.rng import fallback_rng

__all__ = [
    "linear",
    "softmax",
    "log_softmax",
    "cross_entropy",
    "nll_loss",
    "mse_loss",
    "conv2d",
    "max_pool2d",
    "avg_pool2d",
    "global_avg_pool2d",
    "batch_norm",
    "dropout",
    "relu_with_mask",
]


# ---------------------------------------------------------------------- #
# dense / losses
# ---------------------------------------------------------------------- #
def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` (PyTorch weight layout).

    One autograd node doing the floating-point operations of the composed
    transpose -> matmul -> add chain in the same order, so results are
    bit-identical to it for vector and matrix ``x``.  The weight gradient
    is ``(x.T @ g).T``, not ``g.T @ x``: BLAS may sum the latter in another
    order.  Leading axes of a higher-rank ``x`` are flattened into the
    batch for the weight and bias gradients.
    """
    w = weight.data
    if w.ndim != 2 or (bias is not None and bias.data.shape != w.shape[:1]):
        raise ValueError("linear expects an (out, in) weight and an (out,) bias")
    out_data = x.data @ w.T
    if bias is not None:
        out_data = out_data + bias.data

    def _backward() -> None:
        g = out.grad
        if x.requires_grad or x._parents:
            x._accumulate(g @ w)
        rows = g.reshape(-1, w.shape[0])
        if weight.requires_grad or weight._parents:
            weight._accumulate((x.data.reshape(-1, w.shape[1]).T @ rows).T)
        if bias is not None and (bias.requires_grad or bias._parents):
            bias._accumulate(rows.sum(axis=0))

    parents = (x, weight) if bias is None else (x, weight, bias)
    out = Tensor._make(out_data, parents, _backward)
    return out


#: the same-width integer view :func:`relu_with_mask` ANDs each float dtype through
_RELU_BITS = {np.dtype(np.float32): np.int32, np.dtype(np.float64): np.int64}


def relu_with_mask(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(np.where(x > 0, x, 0.0) as x.dtype, x > 0)``, bit for bit, with no branch.

    ``np.where`` picks every element by a branch, which mispredicts on
    each fresh batch's mask.  For float32 and float64 ``x`` the output is
    instead ``x``'s bits ANDed with the mask sign-extended to the same
    width (all ones where ``x > 0``, zero elsewhere): ``x`` where ``x > 0``
    and +0.0 everywhere else, -0.0, NaN and -inf included.  Any other dtype
    (and a 0-d ``x``) takes ``np.where``.  ``x`` is not written.
    """
    mask = x > 0
    bits = _RELU_BITS.get(x.dtype)
    if bits is None or not x.ndim:
        return np.where(mask, x, 0.0).astype(x.dtype, copy=False), mask
    out = mask.astype(bits)
    np.negative(out, out)
    np.bitwise_and(out, x.view(bits), out)
    return out.view(x.dtype), mask


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable softmax along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    ex = np.exp(shifted)
    probs = ex / ex.sum(axis=axis, keepdims=True)

    def _backward() -> None:
        g = out.grad
        dot = (g * probs).sum(axis=axis, keepdims=True)
        x._accumulate(probs * (g - dot))

    out = Tensor._make(probs.astype(x.data.dtype), (x,), _backward)
    return out


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable log-softmax along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    logp = shifted - logsumexp
    probs = np.exp(logp)

    def _backward() -> None:
        g = out.grad
        x._accumulate(g - probs * g.sum(axis=axis, keepdims=True))

    out = Tensor._make(logp.astype(x.data.dtype), (x,), _backward)
    return out


def class_log_probs(logits: np.ndarray, targets) -> Tuple[np.ndarray, np.ndarray]:
    """``(targets, logp)``: checked int64 labels and the row log-softmax of ``logits``.

    The array-level front half of :func:`cross_entropy`, shared with the
    fused MLP training kernel (:meth:`repro.nn.mlp.MLP.train_forward`).
    int64 ``targets`` are used as given, not copied; ``logits`` is not written.
    """
    targets = np.asarray(targets).astype(np.int64, copy=False).reshape(-1)
    if logits.ndim != 2:
        raise ValueError(f"cross_entropy expects 2-D logits, got shape {logits.shape}")
    n, num_classes = logits.shape
    if targets.shape[0] != n:
        raise ValueError(f"targets length {targets.shape[0]} != batch size {n}")
    if np.minimum.reduce(targets) < 0 or np.maximum.reduce(targets) >= num_classes:
        raise ValueError("targets out of range for the logit width")
    shifted = np.subtract(logits, np.maximum.reduce(logits, 1, None, None, True))
    total = np.add.reduce(np.exp(shifted), 1, None, None, True)
    np.subtract(shifted, np.log(total, total), shifted)  # shifted - logsumexp
    return targets, shifted


def cross_entropy(logits: Tensor, targets: np.ndarray, reduction: str = "mean") -> Tensor:
    """Softmax cross-entropy against integer class ``targets``.

    Parameters
    ----------
    logits:
        ``(N, C)`` unnormalized scores.
    targets:
        ``(N,)`` integer labels in ``[0, C)`` (NumPy array or Tensor).
    reduction:
        ``"mean"`` (default), ``"sum"`` or ``"none"``.
    """
    if isinstance(targets, Tensor):
        targets = targets.data
    targets, logp = class_log_probs(logits.data, targets)
    n = targets.shape[0]
    rows = np.arange(n)
    losses = -logp[rows, targets]

    if reduction == "mean":
        value = losses.mean()
    elif reduction == "sum":
        value = losses.sum()
    elif reduction == "none":
        value = losses
    else:
        raise ValueError(f"unknown reduction {reduction!r}")

    probs = np.exp(logp)

    def _backward() -> None:
        g = out.grad
        base = probs.copy()
        base[rows, targets] -= 1.0
        if reduction == "mean":
            grad = base * (np.asarray(g).reshape(()) / n)
        elif reduction == "sum":
            grad = base * np.asarray(g).reshape(())
        else:
            grad = base * np.asarray(g).reshape(n, 1)
        logits._accumulate(grad.astype(logits.data.dtype, copy=False))

    out = Tensor._make(np.asarray(value, dtype=logits.data.dtype), (logits,), _backward)
    return out


def nll_loss(logp: Tensor, targets: np.ndarray, reduction: str = "mean") -> Tensor:
    """Negative log-likelihood over precomputed log-probabilities."""
    if isinstance(targets, Tensor):
        targets = targets.data
    targets = np.asarray(targets).astype(np.int64).reshape(-1)
    n = logp.data.shape[0]
    picked = logp[np.arange(n), targets]
    if reduction == "mean":
        return -picked.mean()
    if reduction == "sum":
        return -picked.sum()
    if reduction == "none":
        return -picked
    raise ValueError(f"unknown reduction {reduction!r}")


def mse_loss(pred: Tensor, target, reduction: str = "mean") -> Tensor:
    """Mean squared error between ``pred`` and ``target``."""
    if not isinstance(target, Tensor):
        target = Tensor(np.asarray(target, dtype=pred.data.dtype))
    diff = pred - target
    sq = diff * diff
    if reduction == "mean":
        return sq.mean()
    if reduction == "sum":
        return sq.sum()
    if reduction == "none":
        return sq
    raise ValueError(f"unknown reduction {reduction!r}")


# ---------------------------------------------------------------------- #
# convolution
# ---------------------------------------------------------------------- #
def _window_view(x: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """Return a (N, C, KH, KW, OH, OW) strided window view of ``x``."""
    n, c, h, w = x.shape
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    sn, sc, sh, sw = x.strides
    shape = (n, c, kh, kw, oh, ow)
    strides = (sn, sc, sh, sw, sh * stride, sw * stride)
    return np.lib.stride_tricks.as_strided(x, shape=shape, strides=strides)


def _col2im_add(
    grad_cols: np.ndarray, x_shape: Tuple[int, ...], kh: int, kw: int, stride: int
) -> np.ndarray:
    """Scatter-add (N, C, KH, KW, OH, OW) gradients back to (N, C, H, W)."""
    n, c, h, w = x_shape
    oh = grad_cols.shape[4]
    ow = grad_cols.shape[5]
    dx = np.zeros(x_shape, dtype=grad_cols.dtype)
    for i in range(kh):
        hi = i + stride * oh
        for j in range(kw):
            wj = j + stride * ow
            dx[:, :, i:hi:stride, j:wj:stride] += grad_cols[:, :, i, j, :, :]
    return dx


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2-D cross-correlation of ``x`` (N, C, H, W) with ``weight`` (F, C, KH, KW).

    Implemented as im2col + one GEMM (forward) and per-offset strided
    accumulation (backward), the standard CPU-efficient formulation.
    """
    if x.data.ndim != 4:
        raise ValueError(f"conv2d expects 4-D input, got shape {x.shape}")
    if weight.data.ndim != 4:
        raise ValueError(f"conv2d expects 4-D weight, got shape {weight.shape}")
    n, c, h, w = x.data.shape
    f, wc, kh, kw = weight.data.shape
    if wc != c:
        raise ValueError(f"input channels {c} != weight channels {wc}")
    if padding < 0 or stride < 1:
        raise ValueError("padding must be >= 0 and stride >= 1")

    xp = np.pad(x.data, ((0, 0), (0, 0), (padding, padding), (padding, padding))) if padding else x.data
    hp, wp = xp.shape[2], xp.shape[3]
    if hp < kh or wp < kw:
        raise ValueError("kernel larger than (padded) input")
    oh = (hp - kh) // stride + 1
    ow = (wp - kw) // stride + 1

    cols = _window_view(xp, kh, kw, stride)  # (N, C, KH, KW, OH, OW), view
    # GEMM: (N*OH*OW, C*KH*KW) @ (C*KH*KW, F)
    cols_mat = np.ascontiguousarray(cols.transpose(0, 4, 5, 1, 2, 3)).reshape(
        n * oh * ow, c * kh * kw
    )
    w_mat = weight.data.reshape(f, c * kh * kw)
    out_mat = cols_mat @ w_mat.T
    out_data = out_mat.reshape(n, oh, ow, f).transpose(0, 3, 1, 2)
    if bias is not None:
        out_data = out_data + bias.data.reshape(1, f, 1, 1)
    out_data = np.ascontiguousarray(out_data.astype(x.data.dtype))

    def _backward() -> None:
        g = out.grad  # (N, F, OH, OW)
        g_mat = g.transpose(0, 2, 3, 1).reshape(n * oh * ow, f)
        if weight.requires_grad or weight._parents:
            gw = (g_mat.T @ cols_mat).reshape(f, c, kh, kw)
            weight._accumulate(gw.astype(weight.data.dtype))
        if bias is not None and (bias.requires_grad or bias._parents):
            bias._accumulate(g.sum(axis=(0, 2, 3)).astype(bias.data.dtype))
        if x.requires_grad or x._parents:
            gcols_mat = g_mat @ w_mat  # (N*OH*OW, C*KH*KW)
            gcols = gcols_mat.reshape(n, oh, ow, c, kh, kw).transpose(0, 3, 4, 5, 1, 2)
            dxp = _col2im_add(gcols, (n, c, hp, wp), kh, kw, stride)
            if padding:
                dxp = dxp[:, :, padding:-padding, padding:-padding]
            x._accumulate(dxp.astype(x.data.dtype))

    parents = (x, weight) if bias is None else (x, weight, bias)
    out = Tensor._make(out_data, parents, _backward)
    return out


# ---------------------------------------------------------------------- #
# pooling
# ---------------------------------------------------------------------- #
def max_pool2d(x: Tensor, kernel_size: int, stride: Optional[int] = None) -> Tensor:
    """Max pooling over (kernel_size, kernel_size) windows."""
    stride = stride or kernel_size
    n, c, h, w = x.data.shape
    kh = kw = kernel_size
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    cols = _window_view(x.data, kh, kw, stride)  # view
    flat = np.ascontiguousarray(cols.transpose(0, 1, 4, 5, 2, 3)).reshape(
        n, c, oh, ow, kh * kw
    )
    arg = flat.argmax(axis=-1)
    out_data = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]

    def _backward() -> None:
        g = out.grad
        gflat = np.zeros_like(flat)
        np.put_along_axis(gflat, arg[..., None], g[..., None], axis=-1)
        gcols = gflat.reshape(n, c, oh, ow, kh, kw).transpose(0, 1, 4, 5, 2, 3)
        x._accumulate(_col2im_add(gcols, (n, c, h, w), kh, kw, stride).astype(x.data.dtype))

    out = Tensor._make(out_data.astype(x.data.dtype), (x,), _backward)
    return out


def avg_pool2d(x: Tensor, kernel_size: int, stride: Optional[int] = None) -> Tensor:
    """Average pooling over (kernel_size, kernel_size) windows."""
    stride = stride or kernel_size
    n, c, h, w = x.data.shape
    kh = kw = kernel_size
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    cols = _window_view(x.data, kh, kw, stride)
    out_data = cols.mean(axis=(2, 3))

    def _backward() -> None:
        g = out.grad / (kh * kw)
        gcols = np.broadcast_to(g[:, :, None, None, :, :], (n, c, kh, kw, oh, ow))
        x._accumulate(_col2im_add(gcols, (n, c, h, w), kh, kw, stride).astype(x.data.dtype))

    out = Tensor._make(out_data.astype(x.data.dtype), (x,), _backward)
    return out


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Mean over the spatial axes: (N, C, H, W) -> (N, C)."""
    return x.mean(axis=(2, 3))


# ---------------------------------------------------------------------- #
# batch normalization
# ---------------------------------------------------------------------- #
# The array-level pieces of :func:`batch_norm`, shared with the fused MLP
# training kernel (:meth:`repro.nn.mlp.MLP.train_forward`).
def batch_stats(x: np.ndarray, axes, view, count: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(mean, var, x - mean)`` over ``axes``, in float64.

    One centred array serves the variance and ``x_hat``.  These are
    ``ndarray.mean`` and ``ndarray.var`` with ``dtype=float64`` step for
    step (sum / n; sum of squared deviations from that mean / n), minus the
    second centring pass ``var`` would make on its own.
    """
    add, div = np.add, np.true_divide
    # one exact widening serves the sum and the centring (same sums, same order)
    centred = x.astype(np.float64)
    mean = add.reduce(centred, axes)
    div(mean, count, mean)
    np.subtract(centred, mean.reshape(view), centred)
    var = add.reduce(np.multiply(centred, centred), axes)
    div(var, count, var)
    return mean, var, centred


def batch_norm_affine(centred, var, gamma, beta, view, eps: float, dtype) -> Tuple[np.ndarray, ...]:
    """``(gamma * x_hat + beta as dtype, x_hat, inv_std)`` from centred input.

    ``x_hat`` is written over ``centred``.
    """
    inv_std = np.add(var, eps)
    np.sqrt(inv_std, inv_std)
    np.true_divide(1.0, inv_std, inv_std)
    x_hat = np.multiply(centred, inv_std.reshape(view), centred)
    out = np.multiply(gamma.reshape(view), x_hat)
    np.add(out, beta.reshape(view), out)
    return out.astype(dtype), x_hat, inv_std


def batch_norm_input_grad(g, x_hat, inv_std, gamma, axes, view, count: int, training: bool) -> np.ndarray:
    """The float64 input gradient for float64 upstream gradient ``g``.

    Built in place in ``g`` (the caller's to give up) and one scratch array;
    the operations and their order are those of
    ``inv_std * (gxh - sum_gxh / count - x_hat * sum_gxh_xh / count)``
    with ``gxh = g * gamma``, ``gamma`` widened to float64.
    """
    add, sub, mul, div = np.add, np.subtract, np.multiply, np.true_divide
    gxh = mul(g, gamma.reshape(view), g)
    if training:
        # d/dx of normalization with batch statistics
        sum_gxh = add.reduce(gxh, axes, None, None, True)
        scratch = mul(gxh, x_hat)
        sum_gxh_xh = add.reduce(scratch, axes, None, None, True)
        sub(gxh, div(sum_gxh, count, sum_gxh), gxh)
        mul(x_hat, sum_gxh_xh, scratch)
        div(scratch, count, scratch)
        sub(gxh, scratch, gxh)
    mul(gxh, inv_std.reshape(view), gxh)
    return gxh


def batch_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: Optional[np.ndarray] = None,
    running_var: Optional[np.ndarray] = None,
    training: bool = True,
    eps: float = 1e-5,
) -> Tuple[Tensor, np.ndarray, np.ndarray]:
    """Batch normalization over the channel axis.

    Supports ``(N, C)`` and ``(N, C, H, W)`` inputs.  In training mode the
    batch statistics are used and returned (so the distributed worker can
    ship them to the server per Algorithm 1); in eval mode the provided
    running statistics are used.

    Returns
    -------
    (out, batch_mean, batch_var):
        ``batch_mean``/``batch_var`` are per-channel float64 arrays; in eval
        mode they echo the running statistics.
    """
    if x.data.ndim == 2:
        axes: Tuple[int, ...] = (0,)
        view = (1, -1)
    elif x.data.ndim == 4:
        axes = (0, 2, 3)
        view = (1, -1, 1, 1)
    else:
        raise ValueError(f"batch_norm expects 2-D or 4-D input, got shape {x.shape}")

    count = x.data.size // x.data.shape[1]
    if training:
        mean, var, centred = batch_stats(x.data, axes, view, count)
    else:
        if running_mean is None or running_var is None:
            raise ValueError("eval-mode batch_norm requires running statistics")
        mean = np.asarray(running_mean, dtype=np.float64)
        var = np.asarray(running_var, dtype=np.float64)
        centred = x.data - mean.reshape(view)
    out_data, x_hat, inv_std = batch_norm_affine(centred, var, gamma.data, beta.data, view, eps, x.data.dtype)

    def _backward() -> None:
        g = out.grad.astype(np.float64)
        if gamma.requires_grad or gamma._parents:
            gamma._accumulate((g * x_hat).sum(axis=axes).astype(gamma.data.dtype))
        if beta.requires_grad or beta._parents:
            beta._accumulate(g.sum(axis=axes).astype(beta.data.dtype))
        if x.requires_grad or x._parents:
            dx = batch_norm_input_grad(g, x_hat, inv_std, gamma.data, axes, view, count, training)
            x._accumulate(dx.astype(x.data.dtype, copy=False))

    out = Tensor._make(out_data, (x, gamma, beta), _backward)
    return out, mean, var


def dropout(x: Tensor, p: float, training: bool = True, rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout with keep-probability ``1 - p``."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    gen = rng if rng is not None else fallback_rng()
    mask = (gen.random(x.data.shape) >= p).astype(x.data.dtype) / (1.0 - p)
    out_data = x.data * mask

    def _backward() -> None:
        x._accumulate(out.grad * mask)

    out = Tensor._make(out_data, (x,), _backward)
    return out
