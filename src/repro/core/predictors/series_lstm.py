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

* **Views built once, ufuncs called bare.**  A hidden-16 cell step is one
  GEMV and nine ufunc calls of ≈ 0.3 µs each, so the ≈ 0.1 µs it takes to
  slice a gate row or a time step out of a buffer is a visible share, and
  so is ``np.multiply(a, b, out=c)`` against a locally bound
  ``mul(a, b, c)``.  The per-step views over the fixed scratch buffers
  (gate block and its four gates, previous state, cell, tanh(cell) and
  hidden state; BPTT's equivalents) are built into tuples once.  So is,
  once per window length, everything a pass and its BPTT slice out before
  their time loops (input, gate, hidden and output rows; BPTT's gate,
  cell, ``local``, ``dc_dh`` and ``flat`` slices and reshapes, and its
  steps in the order it walks them).  The ``local``, ``dc_dh`` and ``flat``
  slices are built once for both layers, and a window's walk is a slice of
  one per-layer list of joined steps built with the per-step views.  The
  rollout's :meth:`advance` runs the pass's own cell loop, one step long,
  over views of its scratch built once.  All of these are built on first use: the predictors
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
* **BPTT's last step peeled.**  It has no later step to carry back, so it
  runs before the time loop, and each step in the loop first carries the
  step after it back through that step's forget gate and ``w_hh``: the
  same products in the same order, with no branch per step.

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
#: many floats per window step.  The fold saves one positional ufunc call,
#: ≈ 0.35–0.45 µs, per cell step, two cell steps (one per layer) per window
#: step.  The copy costs ≈ 0.15–0.25 ns per float per pass while θ fits in L2
#: and ≈ 0.45 ns at hidden 128: break-even near 3 000 floats per step at
#: hidden 16 and 2 000 at hidden 128 (2-core Xeon, OpenBLAS 0.3.31).  At the
#: paper's hidden 64 over 16 steps (3 124 per step) a folded pass only ties
#: (205 against 206 µs), and a pass + BPTT + step is ≈ 2 % slower folded: the
#: copy's 200 KB also crowd BPTT out of the cache.  So hidden 16 over 10 or 5
#: steps (328, 682 per step) folds, and the paper's 64/16 and 128 over 8
#: (24 912) do not.
_FOLD_FLOATS_PER_STEP = 2000

#: ``np.dot`` without its ``__array_function__`` dispatch: the same C function,
#: ≈ 0.15 µs less per call (of ≈ 0.7 µs for a hidden-16 GEMV).  NumPy's
#: dispatchers expose it as ``_implementation``; without it, ``np.dot`` itself.
_dot = getattr(np.dot, "_implementation", np.dot)


def _pass_weights(params: List[np.ndarray]) -> list:
    """Per layer ``(w_ih.T, w_hh, bias)``, as a pass reads them."""
    return [(params[3 * layer].T, *params[3 * layer + 1 : 3 * layer + 3]) for layer in range(2)]


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
        # built on first use (module docstring): per-step views (with the
        # weights as a pass reads them and the rollout's views), per window
        # length the views a pass and its BPTT read, and θ with the i, f, o
        # rows halved
        self._step_views: Optional[tuple] = None
        self._pass_views: List[Optional[tuple]] = [None] * (steps + 1)
        self._bptt_views: List[Optional[tuple]] = [None] * (steps + 1)
        self._scaled_theta: Optional[np.ndarray] = None
        self._steps = 0  # length of the last pass; 0 before the first

    def _carve(self, flat: np.ndarray) -> List[np.ndarray]:
        views, offset = [], 0
        for shape in self._shapes:
            size = math.prod(shape)
            views.append(flat[offset : offset + size].reshape(shape))
            offset += size
        return views

    def _halved_weights(self) -> list:
        """:func:`_pass_weights` of θ with the i, f, o rows halved, refreshed from ``params``."""
        if self._scaled_theta is None:
            self._row_scale = np.ones_like(self._theta)
            for view in self._carve(self._row_scale)[:6]:  # both layers' w_ih, w_hh, bias
                view.T[...] = self._scale
            self._scaled_theta = np.empty_like(self._theta)
            self._halved = _pass_weights(self._carve(self._scaled_theta))
        np.multiply(self._theta, self._row_scale, self._scaled_theta)
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
        inputs, layers, y, head_w, head_b = self._pass_views[steps] or self._build_pass_views(steps)
        if self._theta.size <= _FOLD_FLOATS_PER_STEP * self.max_steps:
            weights, pre = self._halved_weights(), None  # the halved weights already scale z
        else:
            weights, pre = self._weights, self._scale
        dot, add = _dot, np.add
        inputs[...] = x
        for (w_ih_t, w_hh, bias), (gates, views, hidden) in zip(weights, layers):
            dot(inputs, w_ih_t, gates)
            add(gates, bias, gates)
            self._forward_layer(views, w_hh, pre)
            inputs = hidden
        dot(inputs, head_w, y)
        add(y, head_b, y)
        self._steps = steps
        return y

    def _build_step_views(self) -> tuple:
        """Per layer and step: the forward cell's views, BPTT's, and its forget gate and flat dz.

        Builds the pass's unscaled weights and the rollout's views with them.
        """
        hs, zero = self.hidden_size, self._zero
        self._weights = _pass_weights(self.params)
        self._rollout_views = (self._wide, *self._wide.reshape(4, hs))  # z and its four gates
        self._step_views = tuple(
            (
                [(z, *z.reshape(4, hs), hidden[t - 1] if t else zero, cells[t - 1] if t else zero,
                  cells[t], tanh_cells[t], hidden[t]) for t, z in enumerate(gates)],
                [(dh_out[t], self._dc_dh[t], dz, self._local[t], self._local[t, 3], dz[3])
                 for t, dz in enumerate(self._dgates)],
                [(gates[t, hs : 2 * hs], dz.reshape(-1)) for t, dz in enumerate(self._dgates)],
            )
            for gates, cells, tanh_cells, hidden, dh_out
            in zip(self._gates, self._c, self._tanh_c, self._h, self._dh_out)
        )
        # per layer, BPTT's step views and each step's joined with the next
        # step's forget gate and dz: a window's walk is a slice of the latter
        self._bptt_steps = tuple(
            (at, [at[t] + after[t + 1] for t in range(len(at) - 1)]) for _, at, after in self._step_views
        )
        return self._step_views

    def _build_pass_views(self, steps: int) -> tuple:
        """``forward``'s views of a ``steps``-long window.

        Its input rows; per layer its gate rows, per-step cell views and
        hidden rows; its outputs and the head's weight and bias.
        """
        per_step = self._step_views or self._build_step_views()
        layers = tuple(
            (gates[:steps], tuple(cell[:steps]), hidden[:steps])
            for gates, (cell, _, _), hidden in zip(self._gates, per_step, self._h)
        )
        views = (self._x[:steps], layers, self._y[:steps], self.params[6][0], self.params[7])
        self._pass_views[steps] = views
        return views

    def _forward_layer(self, views, w_hh, pre) -> None:
        """The cell over ``views``, a pass's steps or a rollout's one step.

        ``z`` holds the input projection plus bias and is overwritten by
        the gates; ``c`` may be ``c_prev`` itself.  ``pre`` halves the i, f,
        o rows of ``z`` first, unless the halved weights already did.
        """
        dot, add, mul, tanh = _dot, np.add, np.multiply, np.tanh
        scale, shift, tmp, recurrent = self._scale, self._shift, self._vec[0], self._recurrent
        for z, i, f, g, o, h_prev, c_prev, c, tanh_c, h in views:
            dot(w_hh, h_prev, recurrent)
            add(z, recurrent, z)
            if pre is not None:
                mul(z, pre, z)
            tanh(z, z)
            mul(z, scale, z)
            add(z, shift, z)
            mul(i, g, tmp)
            mul(f, c_prev, c)
            add(c, tmp, c)
            tanh(c, tanh_c)
            mul(o, tanh_c, h)

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
        dy32, dy_col, top, dh_top, layers = self._bptt_views[steps] or self._build_bptt_views(steps)
        grads = self.grads
        dy32[...] = dy
        _dot(dy32, top, grads[6][0])
        grads[7][0] = dy32.sum()
        np.multiply(dy_col, self.params[6], dh_top)
        for views in layers:
            self._backward_layer(*views)

    def _build_bptt_views(self, steps: int) -> tuple:
        """``backward``'s views for a ``steps``-long window, the upper layer first."""
        hs, last = self.hidden_size, steps - 1
        # the same scratch serves both layers, so its views are shared
        local, dc_dh = self._local[:steps], self._dc_dh[:steps]
        local_rows = (local, local[:, 0], local[:, 2], local[1:, 1])
        local_f0, local_o = local[0, 1], local[:, 3]
        flat = self._dgates[:steps].reshape(steps, 4 * hs)
        flat_views = (flat, flat.T, flat[1:].T if steps > 1 else None)
        layers = []
        for layer in (1, 0):
            gates = self._gates[layer][:steps].reshape(steps, 4, hs)
            cells, hidden = self._c[layer][:steps], self._h[layer][:steps]
            at, chain = self._bptt_steps[layer]
            layers.append((
                *self.params[3 * layer : 3 * layer + 2], *self.grads[3 * layer : 3 * layer + 3],
                gates, gates[:, 0], gates[:, 2], gates[:, 3], *local_rows, cells[:-1], local_f0, local_o,
                self._tanh_c[layer][:steps], dc_dh, at[last], chain[:last][::-1],
                *flat_views, hidden[:-1],
                self._x[:steps] if layer == 0 else self._h[0][:steps],
                self._dh_out[0][:steps] if layer == 1 else None,
            ))
        dy32 = self._dy[:steps]
        views = (dy32, dy32[:, None], self._h[1][:steps], self._dh_out[1][:steps], layers)
        self._bptt_views[steps] = views
        return views

    def _backward_layer(
        self, w_ih, w_hh, g_ih, g_hh, g_bias, gates, i_gate, g_gate, o_gate, local, local_i, cell_row,
        local_f, c_prev, local_f0, local_o, tanh_cells, dc_dh, last, earlier, flat, flat_t, rec_t,
        h_prev, inputs, d_inputs,
    ) -> None:
        """BPTT through one layer, over its views from :meth:`_build_bptt_views`.

        ``_dh_out[layer]`` holds dL/dh from above, per step.
        """
        add, sub, mul, dot = np.add, np.subtract, np.multiply, _dot
        # everything that depends on the forward activations alone, for all
        # steps at once: local[t] turns (dc, dc, dc, dh) into gate gradients
        sub(1.0, gates, local)
        mul(local, gates, local)  # s(1-s) on the sigmoid rows
        mul(g_gate, g_gate, cell_row)
        sub(1.0, cell_row, cell_row)  # 1 - tanh^2 on the cell row
        mul(cell_row, i_gate, cell_row)
        mul(local_i, g_gate, local_i)
        mul(local_f, c_prev, local_f)
        local_f0[...] = 0.0  # c_prev is zero at the first step
        mul(local_o, tanh_cells, local_o)
        mul(tanh_cells, tanh_cells, dc_dh)  # dc/dh through h = o * tanh(c)
        sub(1.0, dc_dh, dc_dh)
        mul(dc_dh, o_gate, dc_dh)

        # the last step has no gradient from later steps; every other step
        # first carries the step after it back through its forget gate and w_hh
        dh, dc, dc_next, dh_rec = self._vec
        dh_above, dc_dh_t, dz, local_t, local_o_t, dz_o = last
        mul(dh_above, dc_dh_t, dc)
        mul(local_t, dc, dz)
        mul(local_o_t, dh_above, dz_o)
        for dh_above, dc_dh_t, dz, local_t, local_o_t, dz_o, f_next, dz_next in earlier:
            mul(dc, f_next, dc_next)
            dot(dz_next, w_hh, dh_rec)
            add(dh_above, dh_rec, dh)
            mul(dh, dc_dh_t, dc)
            add(dc, dc_next, dc)
            mul(local_t, dc, dz)
            mul(local_o_t, dh, dz_o)

        dot(flat_t, inputs, g_ih)
        if rec_t is not None:
            dot(rec_t, h_prev, g_hh)
        else:
            g_hh[...] = 0.0
        add.reduce(flat, 0, None, g_bias)  # np.sum(flat, axis=0) without its wrapper
        if d_inputs is not None:
            dot(flat, w_ih, d_inputs)

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
        if self._step_views is None:
            self._build_step_views()
        z, i, f, g, o = self._rollout_views
        dot, add, tanh_c = _dot, np.add, self._vec[1]
        inp = np.asarray(x, dtype=np.float32)
        for (w_ih_t, w_hh, bias), h, c in zip(self._weights, state[0::2], state[1::2]):
            dot(w_ih_t.T, inp, z)
            add(z, bias, z)
            self._forward_layer(((z, i, f, g, o, h, c, c, tanh_c, h),), w_hh, self._scale)
            inp = h
        return float(dot(self.params[6][0], inp) + self.params[7][0])

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
