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

The arithmetic is pinned bit for bit to an earlier, plainer form of this
kernel: ``tests/core/test_series_lstm_bits.py`` keeps a frozen copy of it
and runs both over one seeded stream with ``np.array_equal``.  The two
differ only in the Python around the same BLAS and ufunc calls:

* **Views built once.**  A hidden-16 cell step is one GEMV and ten ufunc
  calls of ~0.4 µs each, so the ~0.1 µs it takes to slice a gate row or a
  time step out of a buffer is a visible share.  The per-step views over
  the fixed scratch buffers (gate block and its four gates, previous
  state, cell, tanh(cell) and hidden state; the backward pass's
  equivalents) are built into tuples once, and the time loops unpack
  them.  They are built on first use, not in ``__init__``: the predictors
  are constructed per run, and many never run a long window.
* **The sigmoid's ½ folded into the weights.**  The gate pre-activations
  go through ``tanh(0.5 z)`` on the i, f, o rows.  Scaling by 0.5 or 1.0
  is exact in binary floating point (barring subnormals), and so is every
  rounding of a sum or product of exactly halved terms, so ``x @ (s W)``
  equals ``s (x @ W)`` bit for bit for the same BLAS call.  A pass can
  therefore multiply θ by the row pattern (one ufunc over the whole
  vector, redone on every pass so a write to :attr:`params` between calls
  is never missed) and skip the cell loop's first ``z *= scale``.  That
  trades one pass over θ for one ufunc call per cell step, so it
  is decided once per pass, from θ's size against ``max_steps`` (see
  ``_FOLD_FLOATS_PER_STEP``): the hidden-16 predictors fold, the paper's
  64/128 do not.  :meth:`backward` and :meth:`advance` always read the
  unscaled :attr:`params`.

A pass runs one window.  Moving a product between a GEMV and a GEMM (a
layer wavefront, or one GEMM over stacked windows) is *not* bit-identical:
the same row differs in its last bits in practice.  Nor does a GEMM's row
depend on its own inputs alone: the state a pass holds after step ``t`` can
differ in its last bits from the final state of a ``t + 1``-step pass over
the same inputs, because the input projection's GEMM rounds a row
according to how many rows it has.  A caller that needs a prefix's state
and a longer window's outputs therefore reads both from one pass
(:meth:`final_state` takes the step).

All scratch lives on the instance (thread, gossip and sim cells share a
process), so one instance must not be driven from two threads at once.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from repro.nn import init

#: ``[h, c]`` of the lower layer, then of the upper layer, each ``(hidden,)``
State = List[np.ndarray]

#: global gradient-norm clip of :meth:`SeriesLSTM.step`
_MAX_GRAD_NORM = 1.0

#: fold the sigmoid's ½ into a scaled copy of θ only if θ has at most this
#: many floats per window step.  The copy costs ≈ 0.35–0.45 ns per float per
#: pass; it saves one ≈ 0.4 µs ufunc call per cell step, two cell steps (one
#: per layer) per window step: break-even at ≈ 2 000 floats per step (2-core
#: Xeon, OpenBLAS 0.3.31).  Hidden 16 over a 10-step window is 328 per step
#: and folds; the paper's hidden 64 over 16 steps (3 124) and 128 over 8
#: (24 912) would pay more for the copy than the fold saves.
_FOLD_FLOATS_PER_STEP = 2000


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
        # per layer: gate pre-activations (then activations), cell state,
        # tanh(cell) and hidden state of every step of the last pass
        self._gates = [np.empty((steps, 4 * hs), dtype=np.float32) for _ in range(2)]
        self._c = [np.empty((steps, hs), dtype=np.float32) for _ in range(2)]
        self._tanh_c = [np.empty((steps, hs), dtype=np.float32) for _ in range(2)]
        self._h = [np.empty((steps, hs), dtype=np.float32) for _ in range(2)]
        self._zero = np.zeros(hs, dtype=np.float32)  # h and c before the first step
        # the backward pass's local derivatives and gate gradients
        self._local = np.empty((steps, 4, hs), dtype=np.float32)
        self._dgates = np.empty((steps, 4, hs), dtype=np.float32)
        self._dh_out = [np.empty((steps, hs), dtype=np.float32) for _ in range(2)]
        self._dc_dh = np.empty((steps, hs), dtype=np.float32)
        self._vec = [np.empty(hs, dtype=np.float32) for _ in range(4)]
        self._wide = np.empty(4 * hs, dtype=np.float32)
        self._recurrent = np.empty(4 * hs, dtype=np.float32)
        # built on first use (module docstring): per layer the forward and
        # backward passes' per-step views, and θ with the i, f, o rows halved
        self._forward_views: Optional[list] = None
        self._backward_views: Optional[list] = None
        self._scaled_theta: Optional[np.ndarray] = None
        self._steps = 0  # length of the last pass; 0 before the first

    def _carve(self, flat: np.ndarray) -> List[np.ndarray]:
        views, offset = [], 0
        for shape in self._shapes:
            size = math.prod(shape)
            views.append(flat[offset : offset + size].reshape(shape))
            offset += size
        return views

    def _halved_params(self) -> List[np.ndarray]:
        """θ with the i, f, o rows of both layers halved, refreshed from :attr:`params`."""
        if self._scaled_theta is None:
            self._row_scale = np.ones_like(self._theta)
            for view in self._carve(self._row_scale)[:6]:  # both layers' w_ih, w_hh, bias
                view.T[...] = self._scale
            self._scaled_theta = np.empty_like(self._theta)
            self._halved = self._carve(self._scaled_theta)
        np.multiply(self._theta, self._row_scale, out=self._scaled_theta)
        return self._halved

    # ------------------------------------------------------------------ #
    # forward
    # ------------------------------------------------------------------ #
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Per-step outputs ``(T,)`` for a ``(T, input_size)`` window from a zero state.

        The returned array is scratch, overwritten by the next pass; the
        activations left behind are what :meth:`final_state` and
        :meth:`backward` read.
        """
        steps = len(x)
        if not 0 < steps <= self.max_steps:
            raise ValueError(f"window of {steps} steps, kernel sized for 1..{self.max_steps}")
        if self._forward_views is None:
            self._forward_views = self._build_forward_views()
        if self._theta.size <= _FOLD_FLOATS_PER_STEP * self.max_steps:
            params, pre = self._halved_params(), None  # the halved weights already scale z
        else:
            params, pre = self.params, self._scale
        inputs = self._x[:steps]
        inputs[...] = x
        for layer in range(2):
            w_ih, w_hh, bias = params[3 * layer : 3 * layer + 3]
            gates = self._gates[layer][:steps]
            np.dot(inputs, w_ih.T, out=gates)
            gates += bias
            self._forward_layer(self._forward_views[layer][:steps], w_hh, pre)
            inputs = self._h[layer][:steps]
        y = self._y[:steps]
        np.dot(inputs, self.params[6][0], out=y)
        y += self.params[7]
        self._steps = steps
        return y

    def _build_forward_views(self) -> list:
        hs, zero = self.hidden_size, self._zero
        return [
            [
                (z, *z.reshape(4, hs), hidden[t - 1] if t else zero, cells[t - 1] if t else zero,
                 cells[t], tanh_cells[t], hidden[t])
                for t, z in enumerate(gates)
            ]
            for gates, cells, tanh_cells, hidden in zip(self._gates, self._c, self._tanh_c, self._h)
        ]

    def _forward_layer(self, views, w_hh, pre) -> None:
        # _cell, inlined, with its first multiply skipped when the halved
        # weights already gave z its halved i, f, o rows
        scale, shift, tmp, recurrent = self._scale, self._shift, self._vec[0], self._recurrent
        for z, i, f, g, o, h_prev, c_prev, c, tanh_c, h in views:
            np.dot(w_hh, h_prev, out=recurrent)
            z += recurrent
            if pre is not None:
                z *= pre
            np.tanh(z, out=z)
            z *= scale
            z += shift
            np.multiply(i, g, out=tmp)
            np.multiply(f, c_prev, out=c)
            c += tmp
            np.tanh(c, out=tanh_c)
            np.multiply(o, tanh_c, out=h)

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

    def final_state(self, step: int) -> State:
        """Fresh ``[h, c]`` of both layers after step ``step`` (from 0) of the last pass."""
        if not 0 <= step < self._steps:
            raise ValueError(f"step {step} of a {self._steps}-step pass")
        return [buf[layer][step].copy() for layer in range(2) for buf in (self._h, self._c)]

    # ------------------------------------------------------------------ #
    # backward + optimiser
    # ------------------------------------------------------------------ #
    def backward(self, dy: np.ndarray) -> None:
        """Gradients of a loss with ``dL/dy = dy`` into :attr:`grads` (BPTT).

        Must follow the :meth:`forward` call it differentiates.
        """
        steps = self._steps
        if not steps:
            raise ValueError("backward before any forward pass")
        if len(dy) != steps:
            raise ValueError(f"dy has {len(dy)} steps, the cached window {steps}")
        if self._backward_views is None:
            self._backward_views = self._build_backward_views()
        grads = self.grads
        dy32 = self._dy[:steps]
        dy32[...] = dy
        np.dot(dy32, self._h[1][:steps], out=grads[6][0])
        grads[7][0] = dy32.sum()
        np.multiply(dy32[:, None], self.params[6], out=self._dh_out[1][:steps])
        self._backward_layer(1, self._h[0][:steps], self._dh_out[0][:steps])
        self._backward_layer(0, self._x[:steps], None)

    def _build_backward_views(self) -> list:
        hs = self.hidden_size
        return [
            [(dh_out[t], self._dc_dh[t], dz, self._local[t], self._local[t, 3], dz[3],
              gates[t, hs : 2 * hs], dz.reshape(-1))
             for t, dz in enumerate(self._dgates)]
            for dh_out, gates in zip(self._dh_out, self._gates)
        ]

    def _backward_layer(self, layer, inputs, d_inputs) -> None:
        """BPTT through one layer; ``_dh_out[layer]`` holds dL/dh from above, per step."""
        w_ih, w_hh, _ = self.params[3 * layer : 3 * layer + 3]
        g_ih, g_hh, g_bias = self.grads[3 * layer : 3 * layer + 3]
        hs = self.hidden_size
        steps = len(inputs)
        views = self._backward_views[layer]
        gates = self._gates[layer][:steps].reshape(steps, 4, hs)
        cells, tanh_cells = self._c[layer][:steps], self._tanh_c[layer][:steps]
        hidden = self._h[layer][:steps]
        i_gate, g_gate, o_gate = gates[:, 0], gates[:, 2], gates[:, 3]

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

        dh, dc, dc_next, dh_rec = self._vec
        last = steps - 1
        for t in range(last, -1, -1):
            dh_above, dc_dh_t, dz, local_t, local_o, dz_o, f_t, dz_flat = views[t]
            if t == last:
                dh_t = dh_above
                np.multiply(dh_t, dc_dh_t, out=dc)
            else:
                dh_t = dh
                np.add(dh_above, dh_rec, out=dh_t)
                np.multiply(dh_t, dc_dh_t, out=dc)
                dc += dc_next
            np.multiply(local_t, dc, out=dz)
            np.multiply(local_o, dh_t, out=dz_o)
            if t:
                np.multiply(dc, f_t, out=dc_next)
                np.dot(dz_flat, w_hh, out=dh_rec)

        flat = self._dgates[:steps].reshape(steps, 4 * hs)
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
        return self.final_state(len(x) - 1)

    def advance(self, state: State, x: Sequence[float]) -> float:
        """Feed one ``(input_size,)`` step, updating ``state`` in place; returns the output."""
        z, recurrent, tanh_c = self._wide, self._recurrent, self._vec[1]
        inp = np.asarray(x, dtype=np.float32)
        for layer in range(2):
            w_ih, w_hh, bias = self.params[3 * layer : 3 * layer + 3]
            h, c = state[2 * layer], state[2 * layer + 1]
            np.dot(w_ih, inp, out=z)
            z += bias
            np.dot(w_hh, h, out=recurrent)
            z += recurrent
            self._cell(z, c, c, tanh_c, h)
            inp = h
        return float(np.dot(self.params[6][0], inp) + self.params[7][0])

    def rollout_from(self, state: State, last: float, k: int) -> List[float]:
        """``k`` autoregressive forecasts after feeding ``last`` into a copy of ``state``."""
        return self._roll([a.copy() for a in state], last, k)

    def rollout(self, window: np.ndarray, k: int) -> List[float]:
        """Autoregressive ``k``-step forecast from a ``(T,)`` window (``T >= 1``)."""
        series = np.asarray(window, dtype=np.float32)
        # encode hands back fresh arrays, so the rollout may advance them in place
        return self._roll(self.encode(series[:-1, None]), float(series[-1]), k)

    def _roll(self, state: State, value: float, k: int) -> List[float]:
        if self.input_size != 1:
            raise ValueError("rollout feeds the output back as the input: input_size must be 1")
        preds: List[float] = []
        for _ in range(k):
            value = self.advance(state, (value,))
            preds.append(value)
        return preds
