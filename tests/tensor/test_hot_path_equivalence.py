"""Bit-for-bit oracle for the worker's forward/backward hot path.

The references below are the formulations the library used before the hot
path was rewritten: ``x @ w.transpose() + b`` composed from ``Tensor``
primitives, batch statistics from ``ndarray.mean`` / ``ndarray.var``,
``np.where(...).astype(...)`` for ReLU, flat gradients by
ravel / astype / concatenate.  Every comparison is ``np.array_equal``: the
rewrite may drop Python objects, not change a floating-point operation or
the order of one.  The references are computed in this process, so the
test does not depend on the NumPy or BLAS build.
"""

import numpy as np
import pytest

from repro import nn
from repro.nn.module import Parameter, get_flat_grads
from repro.nn.norm import bn_layers
from repro.optim import SGD
from repro.tensor import Tensor
from repro.tensor import functional as F

EPS = 1e-5


def assert_identical(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected)


# ---------------------------------------------------------------------- #
# references
# ---------------------------------------------------------------------- #
def ref_linear(x: Tensor, w: Tensor, b=None) -> Tensor:
    out = x @ w.transpose()
    if b is not None:
        out = out + b
    return out


def _bn_axes(ndim):
    return ((0,), (1, -1)) if ndim == 2 else ((0, 2, 3), (1, -1, 1, 1))


def ref_bn_forward(x, gamma, beta, training, running_mean=None, running_var=None):
    """``(out, mean, var, ctx)`` on arrays; ``ctx`` feeds :func:`ref_bn_backward`."""
    axes, view = _bn_axes(x.ndim)
    if training:
        mean = x.mean(axis=axes, dtype=np.float64)
        var = x.var(axis=axes, dtype=np.float64)
    else:
        mean = np.asarray(running_mean, dtype=np.float64)
        var = np.asarray(running_var, dtype=np.float64)
    inv_std = 1.0 / np.sqrt(var + EPS)
    x_hat = (x - mean.reshape(view)) * inv_std.reshape(view)
    out = (gamma.reshape(view) * x_hat + beta.reshape(view)).astype(x.dtype)
    return out, mean, var, (x_hat, inv_std, training)


def ref_bn_backward(g, x, gamma, ctx):
    """``(dx, dgamma, dbeta)`` for upstream gradient ``g``."""
    x_hat, inv_std, training = ctx
    axes, view = _bn_axes(x.ndim)
    count = int(np.prod([x.shape[a] for a in axes]))
    g = g.astype(np.float64)
    dgamma = (g * x_hat).sum(axis=axes).astype(gamma.dtype)
    dbeta = g.sum(axis=axes).astype(gamma.dtype)
    gxh = g * gamma.reshape(view).astype(np.float64)
    if training:
        sum_gxh = gxh.sum(axis=axes, keepdims=True)
        sum_gxh_xh = (gxh * x_hat).sum(axis=axes, keepdims=True)
        dx = inv_std.reshape(view) * (gxh - sum_gxh / count - x_hat * sum_gxh_xh / count)
    else:
        dx = gxh * inv_std.reshape(view)
    return dx.astype(x.dtype), dgamma, dbeta


def ref_relu_forward(x):
    mask = x > 0
    return np.where(mask, x, 0.0).astype(x.dtype), mask


def ref_cross_entropy(logits, targets):
    """Mean softmax cross-entropy: ``(loss, dlogits)`` on arrays."""
    n = logits.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    loss = np.asarray((-logp[np.arange(n), targets]).mean(), dtype=logits.dtype)
    base = np.exp(logp)
    base[np.arange(n), targets] -= 1.0
    dlogits = (base * (np.asarray(1.0, dtype=logits.dtype).reshape(()) / n)).astype(logits.dtype)
    return loss, dlogits


def ref_flat_grads(params):
    return np.concatenate([p.grad.ravel().astype(np.float64) for p in params])


# ---------------------------------------------------------------------- #
# F.linear
# ---------------------------------------------------------------------- #
def _linear_case(rng, x_shape, dtype, bias):
    x = rng.standard_normal(x_shape).astype(dtype)
    w = rng.standard_normal((5, x_shape[-1])).astype(dtype)
    b = rng.standard_normal(5).astype(dtype) if bias else None
    return x, w, b


def _run_linear(fn, x, w, b, seed_grad):
    xt = Tensor(x.copy(), requires_grad=True)
    wt = Tensor(w.copy(), requires_grad=True)
    bt = Tensor(b.copy(), requires_grad=True) if b is not None else None
    out = fn(xt, wt, bt)
    out.backward(seed_grad)
    grads = [xt.grad, wt.grad] + ([bt.grad] if bt is not None else [])
    return out.data, grads


@pytest.mark.parametrize("bias", [True, False])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("x_shape", [(64, 192), (7, 3), (1, 4), (3,)])
def test_linear_matches_composed_reference(rng, x_shape, dtype, bias):
    x, w, b = _linear_case(rng, x_shape, dtype, bias)
    seed_grad = rng.standard_normal(x_shape[:-1] + (5,)).astype(dtype)
    out, grads = _run_linear(F.linear, x, w, b, seed_grad)
    ref_out, ref_grads = _run_linear(ref_linear, x, w, b, seed_grad)
    assert_identical(out, ref_out)
    assert len(grads) == len(ref_grads)
    for grad, ref_grad in zip(grads, ref_grads):
        assert_identical(grad, ref_grad)


@pytest.mark.parametrize("bias", [True, False])
def test_linear_batched_input_matches_composed_reference(rng, bias):
    # Rank > 2: forward, input and bias gradients are the same NumPy calls on
    # either side.  The weight gradient is one GEMM over the flattened batch
    # in the library and a sum of per-batch GEMMs in the reference, i.e. the
    # same products added in another order: a few ulp, bounded from the dtype.
    x, w, b = _linear_case(rng, (4, 6, 3), np.float32, bias)
    seed_grad = rng.standard_normal((4, 6, 5)).astype(np.float32)
    out, grads = _run_linear(F.linear, x, w, b, seed_grad)
    ref_out, ref_grads = _run_linear(ref_linear, x, w, b, seed_grad)
    assert_identical(out, ref_out)
    assert_identical(grads[0], ref_grads[0])
    terms = 4 * 6
    scale = np.abs(x).max() * np.abs(seed_grad).max() * terms
    np.testing.assert_allclose(grads[1], ref_grads[1], rtol=0, atol=terms * np.finfo(np.float32).eps * scale)
    assert grads[1].dtype == ref_grads[1].dtype and grads[1].shape == ref_grads[1].shape
    if bias:
        assert_identical(grads[2], ref_grads[2])


@pytest.mark.parametrize("bias", [True, False])
def test_linear_layer_matches_composed_reference(rng, bias):
    layer = nn.Linear(192, 64, bias=bias, rng=np.random.default_rng(3))
    x = rng.standard_normal((64, 192)).astype(np.float32)
    seed_grad = rng.standard_normal((64, 64)).astype(np.float32)
    layer(Tensor(x)).backward(seed_grad)
    b = layer.bias.data if bias else None
    _, ref_grads = _run_linear(ref_linear, x, layer.weight.data, b, seed_grad)
    assert_identical(layer.weight.grad, ref_grads[1])
    if bias:
        assert_identical(layer.bias.grad, ref_grads[2])
    assert_identical(get_flat_grads(layer), ref_flat_grads(layer.parameters()))


def test_linear_accumulates_into_a_shared_weight(rng):
    """Two uses of one weight: the accumulation order must not change."""
    x1, w, b = _linear_case(rng, (9, 4), np.float32, True)
    x2 = rng.standard_normal((9, 4)).astype(np.float32)

    def run(fn):
        wt, bt = Tensor(w.copy(), requires_grad=True), Tensor(b.copy(), requires_grad=True)
        h = fn(Tensor(x1), wt, bt).relu() + fn(Tensor(x2), wt, bt).tanh()
        h.sum().backward()
        return wt.grad, bt.grad

    for grad, ref_grad in zip(run(F.linear), run(ref_linear)):
        assert_identical(grad, ref_grad)


# ---------------------------------------------------------------------- #
# F.batch_norm / relu
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("x_shape", [(64, 64), (5, 3), (6, 3, 4, 4)])
def test_batch_norm_matches_mean_var_reference(rng, x_shape, dtype, training):
    channels = x_shape[1]
    x = (rng.standard_normal(x_shape) * 3.0 + 1.5).astype(dtype)
    gamma = rng.standard_normal(channels).astype(np.float32)
    beta = rng.standard_normal(channels).astype(np.float32)
    running_mean = rng.standard_normal(channels)
    running_var = rng.uniform(0.5, 2.0, channels)
    seed_grad = rng.standard_normal(x_shape).astype(dtype)

    xt = Tensor(x.copy(), requires_grad=True)
    gt, bt = Parameter(gamma.copy()), Parameter(beta.copy())
    out, mean, var = F.batch_norm(
        xt, gt, bt, running_mean=running_mean, running_var=running_var, training=training, eps=EPS
    )
    out.backward(seed_grad)

    ref_out, ref_mean, ref_var, ctx = ref_bn_forward(x, gamma, beta, training, running_mean, running_var)
    ref_dx, ref_dgamma, ref_dbeta = ref_bn_backward(seed_grad, x, gamma, ctx)
    assert_identical(out.data, ref_out)
    assert_identical(mean, ref_mean)
    assert_identical(var, ref_var)
    assert mean.dtype == np.float64 and var.dtype == np.float64
    assert_identical(xt.grad, ref_dx)
    assert_identical(gt.grad, ref_dgamma)
    assert_identical(bt.grad, ref_dbeta)


@pytest.mark.parametrize("layer_cls, x_shape", [(nn.BatchNorm1d, (32, 6)), (nn.BatchNorm2d, (8, 6, 3, 3))])
def test_bn_layer_exports_reference_statistics(rng, layer_cls, x_shape):
    layer = layer_cls(6)
    x = rng.standard_normal(x_shape).astype(np.float32)
    axes, _ = _bn_axes(len(x_shape))
    layer(Tensor(x))
    assert_identical(layer.last_batch_mean, x.mean(axis=axes, dtype=np.float64))
    assert_identical(layer.last_batch_var, x.var(axis=axes, dtype=np.float64))
    layer.eval()
    out = layer(Tensor(x))
    ref_out, _, _, _ = ref_bn_forward(
        x, layer.gamma.data, layer.beta.data, False, layer.running_mean, layer.running_var
    )
    assert_identical(out.data, ref_out)


@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int64])
def test_relu_matches_where_astype_reference(rng, dtype):
    x = (rng.standard_normal((16, 9)) * 4).astype(dtype)
    xt = Tensor(x.copy(), requires_grad=True)
    out = xt.relu()
    ref_out, mask = ref_relu_forward(x)
    assert_identical(out.data, ref_out)
    if np.issubdtype(dtype, np.floating):
        seed_grad = rng.standard_normal(x.shape).astype(dtype)
        out.backward(seed_grad)
        assert_identical(xt.grad, seed_grad * mask)


# ---------------------------------------------------------------------- #
# the worker's training stream: MLP(192, 64, 10) + BN
# ---------------------------------------------------------------------- #
def _task(rng, samples=1024):
    inputs = rng.standard_normal((samples, 192)).astype(np.float32)
    targets = (inputs @ rng.standard_normal((192, 10)).astype(np.float32)).argmax(axis=1)
    return inputs, targets.astype(np.int64)


def _reference_step(params, inputs, targets):
    """One forward/backward in the reference formulations.

    Leaves gradients on ``params`` (w1, gamma, beta, w2, b2) and returns
    ``(loss, batch_mean, batch_var)``.
    """
    w1, gamma, beta, w2, b2 = params
    z1 = ref_linear(Tensor(inputs), w1)
    bn_out, mean, var, ctx = ref_bn_forward(z1.data, gamma.data, beta.data, training=True)
    act, mask = ref_relu_forward(bn_out)
    act_t = Tensor(act, requires_grad=True)
    logits = ref_linear(act_t, w2, b2)
    loss, dlogits = ref_cross_entropy(logits.data, targets)
    logits.backward(dlogits)
    d_bn_out = act_t.grad * mask
    dz1, gamma.grad, beta.grad = ref_bn_backward(d_bn_out, z1.data, gamma.data, ctx)
    z1.backward(dz1)
    return loss, mean, var


def test_mlp_bn_training_stream_is_bit_identical():
    steps, batch = 240, 64
    inputs, targets = _task(np.random.default_rng(11))
    model = nn.MLP((192, 64, 10), batch_norm=True, rng=np.random.default_rng(5))
    (bn,) = bn_layers(model)
    ref_params = [Parameter(p.data.copy()) for p in model.parameters()]
    opt = SGD(model.parameters(), lr=0.05, momentum=0.9)
    ref_opt = SGD(ref_params, lr=0.05, momentum=0.9)

    loss = ref_loss = None
    for step in range(steps):
        lo = (step * batch) % len(inputs)
        x, y = inputs[lo : lo + batch], targets[lo : lo + batch]

        model.train()
        model.zero_grad()
        loss = F.cross_entropy(model(Tensor(x)), y)
        loss.backward()
        flat = get_flat_grads(model)

        ref_opt.zero_grad()
        ref_loss, ref_mean, ref_var = _reference_step(ref_params, x, y)

        assert flat.dtype == np.float64
        assert np.array_equal(flat, ref_flat_grads(ref_params)), f"gradient stream diverged at step {step}"
        assert_identical(loss.data, ref_loss)
        assert_identical(bn.last_batch_mean, ref_mean)
        assert_identical(bn.last_batch_var, ref_var)
        opt.step()
        ref_opt.step()

    for param, ref_param in zip(model.parameters(), ref_params):
        assert_identical(param.data, ref_param.data)
    assert float(loss.data) == float(ref_loss)
    assert float(loss.data) < 1.0  # the stream being compared is a model that learns
