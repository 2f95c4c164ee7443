"""The predictor kernel is pinned bit for bit to its previous form.

:class:`FrozenSeriesLSTM` below is a verbatim copy of ``SeriesLSTM``'s
forward, cell, backward, optimiser step and rollout as they stood before
the kernel was restructured for speed (per-step views built once, the
sigmoid's ½ folded into a scaled copy of the weights).  Both run in the
same process over one seeded stream, and every output, gradient, weight
vector and rollout must be ``np.array_equal``.  A committed digest would
not do: OpenBLAS picks its kernels per CPU, so the reference has to run
beside the kernel on the same machine.

:class:`FrozenLossPredictor` does the same one level up: it is the loss
predictor's call sequence over the frozen kernel, one plain window pass per
weight version, and every forecast, ``l_delay`` and sensitivity of the live
predictor must equal it with ``==``.
"""

import math
from collections import deque

import numpy as np
import pytest

from repro.core.predictors import LSTMLossPredictor, series_lstm
from repro.core.predictors.base import _RunningNorm
from repro.core.predictors.series_lstm import SeriesLSTM

MAX_GRAD_NORM = 1.0


class FrozenSeriesLSTM:
    """The reference: the kernel's previous arithmetic, on its own scratch."""

    def __init__(self, kernel: SeriesLSTM) -> None:
        hs = self.hidden_size = kernel.hidden_size
        self.input_size = kernel.input_size
        self.lr, self.momentum = kernel.lr, kernel.momentum
        self._shapes = [p.shape for p in kernel.params]
        self._theta = np.concatenate([p.ravel() for p in kernel.params])
        self._grad = np.zeros_like(self._theta)
        self._velocity = np.zeros_like(self._theta)
        self._update = np.empty_like(self._theta)
        self.params = self._carve(self._theta)
        self.grads = self._carve(self._grad)
        self._scale = np.repeat(np.float32([0.5, 0.5, 1.0, 0.5]), hs)
        self._shift = np.repeat(np.float32([0.5, 0.5, 0.0, 0.5]), hs)
        steps = kernel.max_steps
        self._x = np.empty((steps, self.input_size), dtype=np.float32)
        self._y = np.empty(steps, dtype=np.float32)
        self._dy = np.empty(steps, dtype=np.float32)
        self._gates = [np.empty((steps, 4 * hs), dtype=np.float32) for _ in range(2)]
        self._c = [np.empty((steps, hs), dtype=np.float32) for _ in range(2)]
        self._tanh_c = [np.empty((steps, hs), dtype=np.float32) for _ in range(2)]
        self._h = [np.empty((steps, hs), dtype=np.float32) for _ in range(2)]
        self._local = np.empty((steps, 4, hs), dtype=np.float32)
        self._dgates = np.empty((steps, 4, hs), dtype=np.float32)
        self._dh_out = [np.empty((steps, hs), dtype=np.float32) for _ in range(2)]
        self._dc_dh = np.empty((steps, hs), dtype=np.float32)
        self._vec = [np.empty(hs, dtype=np.float32) for _ in range(4)]
        self._wide = np.empty(4 * hs, dtype=np.float32)
        self._zero = np.zeros(hs, dtype=np.float32)
        self._steps = 0

    def _carve(self, flat):
        views, offset = [], 0
        for shape in self._shapes:
            size = math.prod(shape)
            views.append(flat[offset : offset + size].reshape(shape))
            offset += size
        return views

    def forward(self, x):
        steps = len(x)
        self._steps = steps
        inputs = self._x[:steps]
        inputs[...] = x
        for layer in range(2):
            inputs = self._forward_layer(layer, inputs)
        y = self._y[:steps]
        np.dot(inputs, self.params[6][0], out=y)
        y += self.params[7]
        return y

    def _forward_layer(self, layer, inputs):
        w_ih, w_hh, bias = self.params[3 * layer : 3 * layer + 3]
        steps = len(inputs)
        gates = self._gates[layer][:steps]
        np.dot(inputs, w_ih.T, out=gates)
        gates += bias
        cells, tanh_cells, hidden = self._c[layer], self._tanh_c[layer], self._h[layer]
        recurrent, cell = self._wide, self._cell
        h_prev = c_prev = self._zero
        for t in range(steps):
            z = gates[t]
            np.dot(w_hh, h_prev, out=recurrent)
            z += recurrent
            c, h = cells[t], hidden[t]
            cell(z, c_prev, c, tanh_cells[t], h)
            c_prev, h_prev = c, h
        return hidden[:steps]

    def _cell(self, z, c_prev, c, tanh_c, h):
        hs = self.hidden_size
        scale, tmp = self._scale, self._vec[0]
        z *= scale
        np.tanh(z, out=z)
        z *= scale
        z += self._shift
        np.multiply(z[:hs], z[2 * hs : 3 * hs], out=tmp)
        np.multiply(z[hs : 2 * hs], c_prev, out=c)
        c += tmp
        np.tanh(c, out=tanh_c)
        np.multiply(z[3 * hs :], tanh_c, out=h)

    def backward(self, dy):
        steps = self._steps
        grads = self.grads
        dy32 = self._dy[:steps]
        dy32[...] = dy
        top = self._h[1][:steps]
        np.dot(dy32, top, out=grads[6][0])
        grads[7][0] = dy32.sum()
        dh_out = self._dh_out[1][:steps]
        np.multiply(dy32[:, None], self.params[6], out=dh_out)
        self._backward_layer(1, self._h[0][:steps], dh_out, self._dh_out[0][:steps])
        self._backward_layer(0, self._x[:steps], self._dh_out[0][:steps], None)

    def _backward_layer(self, layer, inputs, dh_out, d_inputs):
        w_ih, w_hh, _ = self.params[3 * layer : 3 * layer + 3]
        g_ih, g_hh, g_bias = self.grads[3 * layer : 3 * layer + 3]
        hs = self.hidden_size
        steps = len(inputs)
        gates = self._gates[layer][:steps].reshape(steps, 4, hs)
        cells = self._c[layer][:steps]
        tanh_cells = self._tanh_c[layer][:steps]
        hidden = self._h[layer][:steps]
        i_gate, f_gate, g_gate, o_gate = gates[:, 0], gates[:, 1], gates[:, 2], gates[:, 3]

        local = self._local[:steps]
        np.subtract(1.0, gates, out=local)
        local *= gates
        cell_row = local[:, 2]
        np.multiply(g_gate, g_gate, out=cell_row)
        np.subtract(1.0, cell_row, out=cell_row)
        cell_row *= i_gate
        local[:, 0] *= g_gate
        local[1:, 1] *= cells[:-1]
        local[0, 1] = 0.0
        local[:, 3] *= tanh_cells
        dc_dh = self._dc_dh[:steps]
        np.multiply(tanh_cells, tanh_cells, out=dc_dh)
        np.subtract(1.0, dc_dh, out=dc_dh)
        dc_dh *= o_gate

        dgates = self._dgates[:steps]
        dh, dc, dc_next, dh_rec = self._vec
        last = steps - 1
        for t in range(last, -1, -1):
            if t == last:
                dh_t = dh_out[t]
                np.multiply(dh_t, dc_dh[t], out=dc)
            else:
                dh_t = dh
                np.add(dh_out[t], dh_rec, out=dh_t)
                np.multiply(dh_t, dc_dh[t], out=dc)
                dc += dc_next
            dz = dgates[t]
            local_t = local[t]
            np.multiply(local_t, dc, out=dz)
            np.multiply(local_t[3], dh_t, out=dz[3])
            if t:
                np.multiply(dc, f_gate[t], out=dc_next)
                np.dot(dz.reshape(-1), w_hh, out=dh_rec)

        flat = dgates.reshape(steps, 4 * hs)
        np.dot(flat.T, inputs, out=g_ih)
        if steps > 1:
            np.dot(flat[1:].T, hidden[:-1], out=g_hh)
        else:
            g_hh[...] = 0.0
        np.sum(flat, axis=0, out=g_bias)
        if d_inputs is not None:
            np.dot(flat, w_ih, out=d_inputs)

    def step(self):
        grad = self._grad
        grad64 = grad.astype(np.float64)
        norm = math.sqrt(float(np.dot(grad64, grad64)))
        if norm > MAX_GRAD_NORM:
            grad *= MAX_GRAD_NORM / norm
        velocity = self._velocity
        velocity *= self.momentum
        velocity += grad
        np.multiply(velocity, self.lr, out=self._update)
        self._theta -= self._update

    def encode(self, x):
        if len(x) == 0:
            return [self._zero.copy() for _ in range(4)]
        self.forward(x)
        last = self._steps - 1
        return [buf[layer][last].copy() for layer in range(2) for buf in (self._h, self._c)]

    def advance(self, state, x):
        z, tanh_c = self._wide, self._vec[1]
        inp = np.asarray(x, dtype=np.float32)
        for layer in range(2):
            w_ih, w_hh, bias = self.params[3 * layer : 3 * layer + 3]
            h, c = state[2 * layer], state[2 * layer + 1]
            np.dot(w_ih, inp, out=z)
            z += bias
            z += np.dot(w_hh, h)
            self._cell(z, c, c, tanh_c, h)
            inp = h
        return float(np.dot(self.params[6][0], inp) + self.params[7][0])

    def rollout_from(self, state, last, k):
        state = [a.copy() for a in state]
        preds = []
        value = last
        for _ in range(k):
            value = self.advance(state, (value,))
            preds.append(value)
        return preds

    def rollout(self, window, k):
        series = np.asarray(window, dtype=np.float32)
        return self.rollout_from(self.encode(series[:-1, None]), float(series[-1]), k)


def make_pair(hidden, input_size, max_steps, seed):
    kernel = SeriesLSTM(
        input_size, hidden, np.random.default_rng(seed), max_steps=max_steps, lr=0.05, momentum=0.9
    )
    return kernel, FrozenSeriesLSTM(kernel)


def assert_same(kernel, frozen):
    for live, ref in zip(kernel.params, frozen.params):
        assert np.array_equal(live, ref)


def drive(kernel, frozen, rng, rounds):
    """Forward -> backward -> step over every window length, ``rounds`` times."""
    for _ in range(rounds):
        for steps in range(1, kernel.max_steps + 1):
            x = rng.standard_normal((steps, kernel.input_size)).astype(np.float32)
            y = kernel.forward(x)
            assert np.array_equal(y, frozen.forward(x))
            # residuals from ~0.01 to ~8: some steps clip the gradient norm
            dy = (rng.standard_normal(steps) * 10.0 ** rng.uniform(-2, 1)).astype(np.float32)
            if rng.random() < 0.5:  # the step predictor's last-step-only loss
                dy[:-1] = 0.0
            kernel.backward(dy)
            frozen.backward(dy)
            for live, ref in zip(kernel.grads, frozen.grads):
                assert np.array_equal(live, ref)
            kernel.step()
            frozen.step()
            assert_same(kernel, frozen)


@pytest.mark.parametrize("fold", [None, True, False])
@pytest.mark.parametrize(
    "hidden, input_size, max_steps",
    [(16, 1, 10), (16, 3, 5), (64, 1, 16), (64, 3, 8), (128, 1, 8), (128, 3, 8)],
)
def test_forward_backward_step_stream_is_bit_identical(hidden, input_size, max_steps, fold, monkeypatch):
    # fold=None lets the kernel choose whether to halve a copy of θ; True
    # and False force either path at every width (raising=False: a kernel
    # without the choice runs all three the same way)
    if fold is not None:
        limit = 10**9 if fold else 0
        monkeypatch.setattr(series_lstm, "_FOLD_FLOATS_PER_STEP", limit, raising=False)
    kernel, frozen = make_pair(hidden, input_size, max_steps, seed=hidden + input_size)
    rng = np.random.default_rng(hidden * 7 + input_size)
    drive(kernel, frozen, rng, rounds=3)

    # the stream left the weights far from their initial draw; the trained
    # models must still agree on single-step and rolled-out predictions
    for steps in (0, 1, max_steps):
        prefix = rng.standard_normal((steps, input_size)).astype(np.float32)
        state, ref_state = kernel.encode(prefix), frozen.encode(prefix)
        for live, ref in zip(state, ref_state):
            assert np.array_equal(live, ref)
        x = rng.standard_normal(input_size).astype(np.float32)
        assert kernel.advance(state, x) == frozen.advance(ref_state, x)
        for live, ref in zip(state, ref_state):
            assert np.array_equal(live, ref)
        if input_size == 1:
            last = float(rng.standard_normal())
            assert kernel.rollout_from(state, last, 6) == frozen.rollout_from(ref_state, last, 6)


@pytest.mark.parametrize("hidden, max_steps", [(16, 10), (64, 16), (128, 8)])
def test_rollouts_after_training_are_bit_identical(hidden, max_steps):
    kernel, frozen = make_pair(hidden, 1, max_steps, seed=hidden)
    rng = np.random.default_rng(hidden + 1)
    drive(kernel, frozen, rng, rounds=1)
    for steps in range(1, max_steps + 1):
        window = rng.standard_normal(steps).astype(np.float32)
        k = int(rng.integers(1, 12))
        assert kernel.rollout(window, k) == frozen.rollout(window, k)
        state = kernel.encode(window[:-1, None])
        ref_state = frozen.encode(window[:-1, None])
        for last in (float(window[-1]), float(window[-1]) + 1e-3):
            assert kernel.rollout_from(state, last, k) == frozen.rollout_from(ref_state, last, k)


@pytest.mark.parametrize("fold", [True, False])
@pytest.mark.parametrize("hidden, input_size, max_steps", [(16, 1, 10), (16, 3, 5), (64, 1, 16), (128, 3, 8)])
def test_shuffled_window_lengths_with_a_rollout_before_each_backward(
    hidden, input_size, max_steps, fold, monkeypatch
):
    """Window lengths in every order, a rollout between each pass and its backward.

    The kernel builds its views once per window length, so a length is
    re-read after longer and shorter passes.  The rollout runs where
    ``LSTMLossPredictor`` runs it, after the pass that BPTT then reads, on
    scratch that the pass and BPTT also use.
    """
    monkeypatch.setattr(series_lstm, "_FOLD_FLOATS_PER_STEP", 10**9 if fold else 0)
    kernel, frozen = make_pair(hidden, input_size, max_steps, seed=hidden + 11)
    rng = np.random.default_rng(hidden + input_size + 11)
    lengths = np.concatenate([rng.permutation(np.arange(1, max_steps + 1)) for _ in range(3)])
    for steps in lengths:
        x = rng.standard_normal((steps, input_size)).astype(np.float32)
        assert np.array_equal(kernel.forward(x), frozen.forward(x))
        t = int(rng.integers(steps))
        state = kernel.final_state(t)
        ref_state = [buf[layer][t].copy() for layer in range(2) for buf in (frozen._h, frozen._c)]
        if input_size == 1:
            last, k = float(rng.standard_normal()), int(rng.integers(1, 8))
            assert kernel.rollout_from(state, last, k) == frozen.rollout_from(ref_state, last, k)
        else:
            x_next = rng.standard_normal(input_size).astype(np.float32)
            assert kernel.advance(state, x_next) == frozen.advance(ref_state, x_next)
        dy = (rng.standard_normal(steps) * 10.0 ** rng.uniform(-2, 1)).astype(np.float32)
        kernel.backward(dy)
        frozen.backward(dy)
        for live, ref in zip(kernel.grads, frozen.grads):
            assert np.array_equal(live, ref)
        kernel.step()
        frozen.step()
        assert_same(kernel, frozen)


def test_weights_changed_after_forward_are_read_by_the_next_forward():
    """``step`` between two forwards, and a write into ``params``, both show up."""
    kernel, frozen = make_pair(16, 1, 6, seed=3)
    rng = np.random.default_rng(4)
    drive(kernel, frozen, rng, rounds=1)
    x = rng.standard_normal((6, 1)).astype(np.float32)
    for live, ref in zip(kernel.params, frozen.params):
        live *= 1.5
        ref *= 1.5
    assert np.array_equal(kernel.forward(x), frozen.forward(x))
    # a rollout right after a step, with no forward in between
    kernel.backward(np.ones(6, dtype=np.float32))
    frozen.backward(np.ones(6, dtype=np.float32))
    kernel.step()
    frozen.step()
    state = [np.full(16, 0.1, dtype=np.float32) for _ in range(4)]
    assert kernel.rollout_from(state, 0.3, 5) == frozen.rollout_from(state, 0.3, 5)


class FrozenLossPredictor:
    """``LSTMLossPredictor``'s call sequence over the frozen kernel.

    One plain ``window``-step pass per weight version, run by ``observe``
    after its training step over the last ``window`` losses: the next
    ``observe`` trains on its outputs, ``predict_next`` returns its last
    output, and ``predict_delay`` rolls out from its state after step
    ``window - 2`` (all but the last step while the history is shorter).
    """

    def __init__(self, live) -> None:
        self.model = FrozenSeriesLSTM(live.model)  # before ``live`` has trained
        self.window, self.train_every = live.window, live.train_every
        self.rollout_cap = live.rollout_cap
        self._history = deque(maxlen=live.window + 1)
        self._norm = _RunningNorm()
        self._observed = 0
        self._pred = self._delay_prefix = None

    def observe(self, loss):
        loss = float(loss)
        self._norm.update(loss)
        self._history.append(self._norm.normalize(loss))
        self._observed += 1
        series = np.array(self._history, dtype=np.float32)
        if len(series) >= 3 and self._observed % self.train_every == 0:
            self.model.backward((self._pred - series[1:]) * (2.0 / len(self._pred)))
            self.model.step()
        if len(series) < 2:
            return
        window = series[-self.window :, None]
        self._pred = self.model.forward(window)
        step = len(window) - 2
        self._delay_prefix = [buf[layer][step].copy() for layer in range(2) for buf in (self.model._h, self.model._c)]

    def predict_next(self):
        if self._delay_prefix is None:
            return None
        return self._norm.denormalize(float(self._pred[-1]))

    def predict_delay(self, loss, k):
        if k <= 0:
            return 0.0
        if self._delay_prefix is None:
            return float(loss) * k
        steps = min(int(k), self.rollout_cap)
        preds = self.model.rollout_from(self._delay_prefix, self._norm.normalize(float(loss)), steps)
        values = [self._norm.denormalize(z) for z in preds]
        total = float(sum(values))
        if k > steps:
            total += values[-1] * (k - steps)
        return total

    def delay_sensitivity(self, loss, k, eps=1e-3):
        hi = self.predict_delay(loss + eps, k)
        lo = self.predict_delay(loss - eps, k)
        return (hi - lo) / (2 * eps)


def loss_stream(rng, n):
    """A decaying, noisy loss curve with the occasional spike."""
    t = np.arange(n)
    curve = 2.3 * np.exp(-t / 25.0) + 0.1 + 0.05 * rng.standard_normal(n)
    curve[rng.random(n) < 0.05] *= 1.8
    return np.abs(curve)


@pytest.mark.parametrize("train_every", [1, 3])
@pytest.mark.parametrize("hidden, window", [(16, 10), (64, 16), (8, 2)])
def test_loss_predictor_matches_its_unstacked_call_sequence(hidden, window, train_every):
    rollout_cap = 6
    live = LSTMLossPredictor(
        hidden_size=hidden, window=window, train_every=train_every, rollout_cap=rollout_cap, seed=hidden
    )
    frozen = FrozenLossPredictor(live)
    rng = np.random.default_rng(hidden + train_every)
    # cold start: nothing observed yet
    assert live.predict_next() is None and frozen.predict_next() is None
    assert live.predict_delay(2.0, 3) == frozen.predict_delay(2.0, 3)
    for loss in loss_stream(rng, 3 * window + 7):
        forecast = live.predict_next()
        assert forecast == frozen.predict_next()
        assert live.predict_next() == forecast  # asking twice changes nothing
        live.observe(loss)
        frozen.observe(loss)
        # k = 0, inside the cap, at it and beyond it
        for k in (0, int(rng.integers(1, rollout_cap)), rollout_cap, rollout_cap + int(rng.integers(1, 9))):
            assert live.predict_delay(loss, k) == frozen.predict_delay(loss, k)
        k = int(rng.integers(1, rollout_cap + 4))
        assert live.delay_sensitivity(loss, k) == frozen.delay_sensitivity(loss, k)
    for live_p, ref_p in zip(live.model.params, frozen.model.params):
        assert np.array_equal(live_p, ref_p)


@pytest.mark.parametrize("fold", [True, False])
@pytest.mark.parametrize("hidden, input_size, max_steps", [(16, 1, 10), (16, 3, 5), (128, 1, 8)])
def test_state_after_each_step_is_the_frozen_pass_state(hidden, input_size, max_steps, fold, monkeypatch):
    """``final_state(t)`` is the frozen pass's ``[h, c]`` after step ``t``, bit for bit."""
    monkeypatch.setattr(series_lstm, "_FOLD_FLOATS_PER_STEP", 10**9 if fold else 0)
    kernel, frozen = make_pair(hidden, input_size, max_steps, seed=hidden + 5)
    rng = np.random.default_rng(hidden + max_steps)
    drive(kernel, frozen, rng, rounds=1)  # weights away from their initial draw
    for steps in (1, 2, max_steps):
        x = rng.standard_normal((steps, input_size)).astype(np.float32)
        kernel.forward(x)
        frozen.forward(x)
        for t in range(steps):
            ref = [buf[layer][t] for layer in range(2) for buf in (frozen._h, frozen._c)]
            for live, want in zip(kernel.final_state(t), ref):
                assert np.array_equal(live, want)
        for t in (-1, steps):
            with pytest.raises(ValueError):
                kernel.final_state(t)


def test_backward_needs_a_pass():
    kernel, _ = make_pair(16, 1, 4, seed=0)
    with pytest.raises(ValueError):
        kernel.backward(np.zeros(2, dtype=np.float32))
    with pytest.raises(ValueError):
        kernel.final_state(0)
