"""The fused predictor kernel against the autograd ``nn.LSTM`` oracle.

One set of weights is copied into :class:`SeriesLSTM` and into
``nn.LSTM(num_layers=2)`` + ``nn.Linear`` + ``optim.SGD(momentum=0.9,
max_grad_norm=1.0)``; forward outputs, every parameter gradient, the
parameters after two optimiser steps and the autoregressive rollout must
agree to the float32 tolerance pinned here.  Bit-identity is not promised
(the kernel batches the input projections and sums gradients with one
matmul), so the tolerance is the contract.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.core.predictors.series_lstm import SeriesLSTM
from repro.optim import SGD
from repro.tensor import functional as F
from repro.tensor import no_grad
from repro.tensor.tensor import Tensor

RTOL, ATOL = 1e-4, 1e-5


class Oracle(nn.Module):
    """What ``core/predictors`` ran before the kernel: the autograd model."""

    def __init__(self, kernel: SeriesLSTM) -> None:
        super().__init__()
        rng = np.random.default_rng(0)  # overwritten below
        self.lstm = nn.LSTM(kernel.input_size, kernel.hidden_size, num_layers=2, rng=rng)
        self.head = nn.Linear(kernel.hidden_size, 1, rng=rng)
        for param, value in zip(self.parameters(), kernel.params):
            assert param.data.shape == value.shape
            param.data = value.copy()

    def forward(self, x: np.ndarray) -> Tensor:
        outs, _ = self.lstm(Tensor(x[None].astype(np.float32)))
        steps, hidden = outs.data.shape[1:]
        return self.head(outs.reshape(steps, hidden)).reshape(steps)

    def rollout(self, window: np.ndarray, k: int):
        with no_grad():
            outs, state = self.lstm(Tensor(window.reshape(1, -1, 1).astype(np.float32)))
            nxt = self.head(outs[:, -1, :])
            preds = [float(nxt.data[0, 0])]
            for _ in range(k - 1):
                outs, state = self.lstm(nxt.reshape(1, 1, 1), state)
                nxt = self.head(outs[:, -1, :])
                preds.append(float(nxt.data[0, 0]))
        return preds


def make_pair(hidden, input_size, seed, lr=0.05):
    rng = np.random.default_rng(seed)
    kernel = SeriesLSTM(input_size, hidden, rng, max_steps=16, lr=lr, momentum=0.9)
    oracle = Oracle(kernel)
    optimizer = SGD(oracle.parameters(), lr=lr, momentum=0.9, max_grad_norm=1.0)
    return kernel, oracle, optimizer


def close(actual, expected):
    np.testing.assert_allclose(actual, expected, rtol=RTOL, atol=ATOL)


def loss_and_dy(kind, target):
    """(oracle loss tensor builder, kernel dL/dy) for the two predictors' losses."""
    steps = len(target)
    if kind == "sequence":  # loss predictor: MSE over every step
        return (lambda p: F.mse_loss(p, target)), lambda y: 2.0 * (y - target) / steps
    dy = np.zeros(steps, dtype=np.float32)  # step predictor: MSE on the last step

    def last_step(y):
        dy[-1] = 2.0 * (y[-1] - target[-1])
        return dy

    return (lambda p: F.mse_loss(p[-1:], target[-1:])), last_step


shapes = dict(
    hidden=st.sampled_from([4, 16]),
    input_size=st.sampled_from([1, 3]),
    steps=st.integers(2, 16),
    seed=st.integers(0, 2**16),
)


def test_initial_weights_are_the_autograd_models_for_a_seed():
    kernel = SeriesLSTM(3, 8, np.random.default_rng(11), max_steps=4, lr=0.1, momentum=0.9)
    rng = np.random.default_rng(11)
    lstm = nn.LSTM(3, 8, num_layers=2, rng=rng)
    head = nn.Linear(8, 1, rng=rng)
    expected = [p.data for p in lstm.parameters()] + [p.data for p in head.parameters()]
    assert len(expected) == len(kernel.params) == 8
    for value, param in zip(kernel.params, expected):
        np.testing.assert_array_equal(value, param)


@settings(max_examples=12, deadline=None)
@given(**shapes)
def test_forward_matches_the_oracle(hidden, input_size, steps, seed):
    kernel, oracle, _ = make_pair(hidden, input_size, seed)
    x = np.random.default_rng(seed + 1).standard_normal((steps, input_size)).astype(np.float32)
    with no_grad():
        expected = oracle(x).data
    close(kernel.forward(x), expected)


@settings(max_examples=12, deadline=None)
@given(kind=st.sampled_from(["sequence", "last"]), **shapes)
def test_every_gradient_matches_the_oracle(kind, hidden, input_size, steps, seed):
    kernel, oracle, optimizer = make_pair(hidden, input_size, seed)
    rng = np.random.default_rng(seed + 1)
    x = rng.standard_normal((steps, input_size)).astype(np.float32)
    target = rng.standard_normal(steps).astype(np.float32)
    oracle_loss, kernel_dy = loss_and_dy(kind, target)

    optimizer.zero_grad()
    oracle_loss(oracle(x)).backward()
    kernel.backward(kernel_dy(kernel.forward(x)))

    for grad, param in zip(kernel.grads, oracle.parameters()):
        close(grad, param.grad)


@settings(max_examples=12, deadline=None)
@given(kind=st.sampled_from(["sequence", "last"]), clip=st.booleans(), **shapes)
def test_two_optimiser_steps_match_the_oracle(kind, clip, hidden, input_size, steps, seed):
    kernel, oracle, optimizer = make_pair(hidden, input_size, seed)
    rng = np.random.default_rng(seed + 1)
    x = rng.standard_normal((steps, input_size)).astype(np.float32)
    # residuals of ~8 push the gradient norm past the clip, ~0.01 keep it under
    with no_grad():
        start = oracle(x).data
    target = start + (8.0 if clip else 0.01 * rng.standard_normal(steps).astype(np.float32))
    oracle_loss, kernel_dy = loss_and_dy(kind, target)

    for _ in range(2):  # the second step exercises the velocity buffer
        optimizer.zero_grad()
        oracle_loss(oracle(x)).backward()
        norm = np.sqrt(sum(float((p.grad.astype(np.float64) ** 2).sum()) for p in oracle.parameters()))
        assert (norm > 1.0) == clip
        optimizer.step()
        kernel.backward(kernel_dy(kernel.forward(x)))
        kernel.step()

    for value, param in zip(kernel.params, oracle.parameters()):
        close(value, param.data)


@settings(max_examples=12, deadline=None)
@given(
    hidden=st.sampled_from([4, 16]),
    steps=st.integers(2, 16),
    k=st.integers(1, 8),
    seed=st.integers(0, 2**16),
)
def test_rollout_matches_the_oracle(hidden, steps, k, seed):
    kernel, oracle, _ = make_pair(hidden, 1, seed)
    window = np.random.default_rng(seed + 1).standard_normal(steps)
    close(kernel.rollout(window, k), oracle.rollout(window, k))


def test_rollout_from_a_shared_prefix_equals_the_full_rollout():
    kernel, _, _ = make_pair(8, 1, 5)
    window = np.random.default_rng(6).standard_normal(7).astype(np.float32)
    state = kernel.encode(window[:-1, None])
    for last in (window[-1], window[-1] + 0.5):
        tail = kernel.rollout_from(state, float(last), 4)
        assert tail == kernel.rollout(np.append(window[:-1], last), 4)


def test_instances_do_not_share_scratch():
    a, _, _ = make_pair(4, 1, 1)
    b, _, _ = make_pair(4, 1, 1)
    x = np.ones((3, 1), dtype=np.float32)
    ya = a.forward(x).copy()
    b.forward(-x)
    np.testing.assert_array_equal(a.forward(x), ya)
    assert not np.shares_memory(a.forward(x), b.forward(x))

    # the per-step views and the halved-θ copy are built per instance on the
    # first forward: interleaved training of kernels with different seeds
    # and widths (the first two fold the ½ into θ, the third does not) must
    # give, bit for bit, what each gives when it runs alone
    def kernels():
        return [
            SeriesLSTM(1, hidden, np.random.default_rng(seed), max_steps=8, lr=0.05, momentum=0.9)
            for hidden, seed in ((16, 1), (8, 2), (128, 3))
        ]

    def train(kernel, seed):
        rng = np.random.default_rng(seed)
        for steps in (3, 8, 1, 5):
            x = rng.standard_normal((steps, 1)).astype(np.float32)
            y = kernel.forward(x).copy()
            kernel.backward(rng.standard_normal(steps).astype(np.float32))
            yield y, [g.copy() for g in kernel.grads]
            kernel.step()
            yield kernel.forward(x).copy(), [p.copy() for p in kernel.params]

    alone = [list(train(kernel, i)) for i, kernel in enumerate(kernels())]
    interleaved = [train(kernel, i) for i, kernel in enumerate(kernels())]
    for step in range(len(alone[0])):
        for runs, expected in zip(interleaved, alone):
            y, arrays = next(runs)
            np.testing.assert_array_equal(y, expected[step][0])
            for got, want in zip(arrays, expected[step][1]):
                np.testing.assert_array_equal(got, want)


def test_validation():
    with pytest.raises(ValueError):
        SeriesLSTM(0, 4, np.random.default_rng(0), max_steps=4, lr=0.1, momentum=0.9)
    kernel = SeriesLSTM(3, 4, np.random.default_rng(0), max_steps=4, lr=0.1, momentum=0.9)
    with pytest.raises(ValueError):
        kernel.forward(np.zeros((5, 3), dtype=np.float32))
    with pytest.raises(ValueError):
        kernel.rollout_from(kernel.encode(np.zeros((0, 3))), 0.0, 2)
    kernel.forward(np.zeros((3, 3), dtype=np.float32))
    with pytest.raises(ValueError):
        kernel.backward(np.zeros(2))
