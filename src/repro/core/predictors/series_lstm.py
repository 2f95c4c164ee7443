"""Fused numpy kernel for the predictors' tiny recurrent models.

Both server-side predictors are "two LSTM layers followed by a linear
layer" (Sections 4.3-4.4) over a window of at most a few dozen steps of a
scalar or three-dimensional series.  At that size an autograd graph costs
far more than the arithmetic it records, so :class:`SeriesLSTM` writes the
same model out by hand in float32: one stacked-gate matmul per cell step
(PyTorch ``[input, forget, cell, output]`` layout), back-propagation
through time over the cached window, and momentum SGD with a global
gradient-norm clip.

The general-purpose :class:`repro.nn.LSTM` is the oracle:
``tests/core/test_series_lstm.py`` copies one set of weights into both and
compares outputs, gradients, optimiser steps and rollouts at
``rtol=1e-4, atol=1e-5``.  Bit-identity with autograd is *not* promised:
the input projections are batched over the window, gradients are summed
by one matmul rather than accumulated step by step, and the logistic is
evaluated as ``0.5 * tanh(0.5 x) + 0.5`` — the same maths in a different
float32 summation order.

All scratch lives on the instance (thread, gossip and sim cells share a
process), so one instance must not be driven from two threads at once.
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np

from repro.nn import init

#: ``[h, c]`` of the lower layer, then of the upper layer, each ``(hidden,)``
State = List[np.ndarray]

#: global gradient-norm clip of :meth:`SeriesLSTM.step`
_MAX_GRAD_NORM = 1.0


class SeriesLSTM:
    """Two LSTM layers + linear head mapping ``(T, input_size)`` to ``(T,)``.

    Parameters
    ----------
    input_size, hidden_size:
        Feature width of the series and LSTM width.
    rng:
        Draws the initial weights with the same calls in the same order as
        ``nn.LSTM(input_size, hidden_size, num_layers=2, rng=rng)`` followed
        by ``nn.Linear(hidden_size, 1, rng=rng)``.
    max_steps:
        Longest window :meth:`forward` accepts (sizes the scratch buffers).
    lr, momentum:
        Hyper-parameters of :meth:`step`, as in ``optim.SGD``.
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        rng: np.random.Generator,
        max_steps: int,
        lr: float,
        momentum: float,
    ) -> None:
        if input_size <= 0 or hidden_size <= 0 or max_steps <= 0:
            raise ValueError("input_size, hidden_size and max_steps must be positive")
        if lr <= 0 or momentum < 0:
            raise ValueError("lr must be positive and momentum non-negative")
        hs = hidden_size
        self.input_size = input_size
        self.hidden_size = hs
        self.max_steps = max_steps
        self.lr = float(lr)
        self.momentum = float(momentum)

        drawn = []
        for in_size in (input_size, hs):
            bias = np.zeros(4 * hs, dtype=np.float32)
            bias[hs : 2 * hs] = 1.0  # forget-gate bias, as nn.LSTMCell
            drawn += [
                init.lecun_uniform((4 * hs, in_size), rng),
                init.lecun_uniform((4 * hs, hs), rng),
                bias,
            ]
        drawn += [init.he_normal((1, hs), rng), np.zeros(1, dtype=np.float32)]
        self._shapes = [a.shape for a in drawn]
        # one flat vector each for weights, gradients and velocity, so the
        # optimiser is a handful of whole-vector operations
        self._theta = np.concatenate([a.ravel() for a in drawn])
        self._grad = np.zeros_like(self._theta)
        self._velocity = np.zeros_like(self._theta)
        self._update = np.empty_like(self._theta)
        #: views in ``lstm.parameters() + head.parameters()`` order:
        #: ``w_ih, w_hh, bias`` per layer, then the head's weight and bias
        self.params = self._carve(self._theta)
        self.grads = self._carve(self._grad)

        # sigmoid(x) = 0.5 * tanh(0.5 x) + 0.5 on the i, f, o rows; tanh on g
        self._scale = np.repeat(np.float32([0.5, 0.5, 1.0, 0.5]), hs)
        self._shift = np.repeat(np.float32([0.5, 0.5, 0.0, 0.5]), hs)

        steps = max_steps
        self._x = np.empty((steps, input_size), dtype=np.float32)
        self._y = np.empty(steps, dtype=np.float32)
        self._dy = np.empty(steps, dtype=np.float32)
        # per layer: gate activations, cell state, tanh(cell), hidden state,
        # and the backward pass's local derivatives / gate gradients
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
        self._zero = np.zeros(hs, dtype=np.float32)  # h and c before the first step
        self._steps = 0

    def _carve(self, flat: np.ndarray) -> List[np.ndarray]:
        views, offset = [], 0
        for shape in self._shapes:
            size = math.prod(shape)
            views.append(flat[offset : offset + size].reshape(shape))
            offset += size
        return views

    # ------------------------------------------------------------------ #
    # forward
    # ------------------------------------------------------------------ #
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Per-step outputs ``(T,)`` for a ``(T, input_size)`` window from a zero state.

        The returned array is scratch: it is overwritten by the next call,
        and the activations it leaves behind are what :meth:`backward` reads.
        """
        steps = len(x)
        if not 0 < steps <= self.max_steps:
            raise ValueError(f"window of {steps} steps, kernel sized for 1..{self.max_steps}")
        self._steps = steps
        inputs = self._x[:steps]
        inputs[...] = x
        for layer in range(2):
            inputs = self._forward_layer(layer, inputs)
        y = self._y[:steps]
        np.dot(inputs, self.params[6][0], out=y)
        y += self.params[7]
        return y

    def _forward_layer(self, layer: int, inputs: np.ndarray) -> np.ndarray:
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

    def _cell(self, z, c_prev, c, tanh_c, h) -> None:
        """One cell step from gate pre-activations ``z`` (overwritten in place).

        Writes the new cell state, its tanh and the new hidden state into
        ``c``, ``tanh_c`` and ``h``; ``c`` may be ``c_prev`` itself.
        """
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

    # ------------------------------------------------------------------ #
    # backward + optimiser
    # ------------------------------------------------------------------ #
    def backward(self, dy: np.ndarray) -> None:
        """Gradients of a loss with ``dL/dy = dy`` into :attr:`grads` (BPTT).

        Must follow the :meth:`forward` call whose window it differentiates.
        """
        steps = self._steps
        if len(dy) != steps:
            raise ValueError(f"dy has {len(dy)} steps, the cached window {steps}")
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

    def _backward_layer(self, layer, inputs, dh_out, d_inputs) -> None:
        """BPTT through one layer; ``dh_out`` is dL/dh from above, per step."""
        w_ih, w_hh, _ = self.params[3 * layer : 3 * layer + 3]
        g_ih, g_hh, g_bias = self.grads[3 * layer : 3 * layer + 3]
        hs = self.hidden_size
        steps = len(inputs)
        gates = self._gates[layer][:steps].reshape(steps, 4, hs)
        cells = self._c[layer][:steps]
        tanh_cells = self._tanh_c[layer][:steps]
        hidden = self._h[layer][:steps]
        i_gate, f_gate, g_gate, o_gate = gates[:, 0], gates[:, 1], gates[:, 2], gates[:, 3]

        # everything that depends on the forward activations alone, for all
        # steps at once: local[t] turns (dc, dc, dc, dh) into gate gradients
        local = self._local[:steps]
        np.subtract(1.0, gates, out=local)
        local *= gates  # s(1-s) on the sigmoid rows
        cell_row = local[:, 2]
        np.multiply(g_gate, g_gate, out=cell_row)
        np.subtract(1.0, cell_row, out=cell_row)  # 1 - tanh^2 on the cell row
        cell_row *= i_gate
        local[:, 0] *= g_gate
        local[1:, 1] *= cells[:-1]
        local[0, 1] = 0.0  # c_prev is zero at the first step
        local[:, 3] *= tanh_cells
        dc_dh = self._dc_dh[:steps]  # dc/dh through h = o * tanh(c)
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

    def step(self) -> None:
        """Momentum SGD on :attr:`grads` with ``optim.SGD``'s global norm clip."""
        grad = self._grad
        grad64 = grad.astype(np.float64)
        norm = math.sqrt(float(np.dot(grad64, grad64)))
        if norm > _MAX_GRAD_NORM:
            grad *= _MAX_GRAD_NORM / norm
        velocity = self._velocity
        velocity *= self.momentum
        velocity += grad
        np.multiply(velocity, self.lr, out=self._update)
        self._theta -= self._update

    # ------------------------------------------------------------------ #
    # autoregressive rollout (scalar series only)
    # ------------------------------------------------------------------ #
    def encode(self, x: np.ndarray) -> State:
        """Final ``[h, c]`` of both layers after a ``(T, input_size)`` prefix.

        An empty prefix gives the zero state.
        """
        if len(x) == 0:
            return [self._zero.copy() for _ in range(4)]
        self.forward(x)
        last = self._steps - 1
        return [buf[layer][last].copy() for layer in range(2) for buf in (self._h, self._c)]

    def advance(self, state: State, x: Sequence[float]) -> float:
        """Feed one ``(input_size,)`` step, updating ``state`` in place; returns the output."""
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

    def rollout_from(self, state: State, last: float, k: int) -> List[float]:
        """``k`` autoregressive forecasts after feeding ``last`` into a copy of ``state``."""
        if self.input_size != 1:
            raise ValueError("rollout feeds the output back as the input: input_size must be 1")
        state = [a.copy() for a in state]
        preds: List[float] = []
        value = last
        for _ in range(k):
            value = self.advance(state, (value,))
            preds.append(value)
        return preds

    def rollout(self, window: np.ndarray, k: int) -> List[float]:
        """Autoregressive ``k``-step forecast from a ``(T,)`` window (``T >= 1``)."""
        series = np.asarray(window, dtype=np.float32)
        return self.rollout_from(self.encode(series[:-1, None]), float(series[-1]), k)
