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

* **One stacked pass over up to three windows.**  :meth:`forward_stack`
  runs K ≤ 3 windows over one θ (the loss predictor's three windows of a
  weight version, see ``LSTMLossPredictor``); :meth:`forward` and
  :meth:`encode` are its K = 1 case, and there is no other forward loop.
  Each window keeps its own input-projection GEMM and its own GEMV per
  cell step, so the BLAS calls are the ones K single passes would make.
  What K windows share is the ufunc calls: the scratch is gate-major,
  ``(steps, 4, K, hidden)`` for the gates and ``(steps, K, hidden)`` for
  cell, tanh(cell) and hidden state, so one gate block of all K windows is
  one contiguous operand and a cell step costs ten ufunc calls for the
  stack instead of ten per window.  (A window-major ``(K, steps, ·)``
  layout makes those operands strided and saves nothing.)  Windows may
  differ in length: they run longest first, so the windows still running
  at a step are the first slots, and only their GEMVs run; the ufuncs keep
  covering all K slots, where an ended window's slot churns finite
  leftovers that nothing reads.  Elementwise ufuncs give the same bits on
  any layout, and the BLAS calls see the same shapes with a wider row
  stride, which changes no bit (the oracle checks it).  :meth:`backward`
  differentiates the pass's last window in place.
* **Views built once.**  A hidden-16 cell step is one GEMV and ten ufunc
  calls of ~0.4 µs each, so the ~0.1 µs it takes to slice a gate row or a
  time step out of a buffer is a visible share.  The per-step views over
  the fixed scratch buffers (gate block and its four gates, cell,
  tanh(cell), hidden, previous state, the GEMVs' operands; the backward
  pass's equivalents) are built into tuples once per K, and each tuple of
  window lengths gets its slices once too; the time loops unpack them.
  With K = 1 the views are flat vectors, NumPy's cheapest operands.  All of
  it is built on first use, not in ``__init__``: the predictors are
  constructed per run, and many never run a long window.
* **The sigmoid's ½ folded into the weights.**  The gate pre-activations
  go through ``tanh(0.5 z)`` on the i, f, o rows.  Scaling by 0.5 or 1.0
  is exact in binary floating point (barring subnormals), and so is every
  rounding of a sum or product of exactly halved terms, so ``x @ (s W)``
  equals ``s (x @ W)`` bit for bit for the same BLAS call.  A pass can
  therefore multiply θ by the row pattern (one ufunc over the whole
  vector, redone on every pass so a write to :attr:`params` between calls
  is never missed) and skip the cell loop's first ``z *= scale``.  That
  trades one pass over θ for one ufunc call per stacked cell step, so it
  is decided once per pass, from θ's size against ``max_steps`` (see
  ``_FOLD_FLOATS_PER_STEP``): the hidden-16 predictors fold, the paper's
  64/128 do not.  One refresh serves all K windows, but so does the call
  it saves, so K does not move the break-even.
  :meth:`backward` and :meth:`advance` always read the unscaled
  :attr:`params`.

Moving a product between a GEMV and a GEMM (a layer wavefront, or one
GEMM over stacked windows) is *not* bit-identical: the same row differs in
its last bits in practice, so the kernel keeps one GEMV per window per
cell step.

All scratch lives on the instance (thread, gossip and sim cells share a
process), so one instance must not be driven from two threads at once.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn import init

#: ``[h, c]`` of the lower layer, then of the upper layer, each ``(hidden,)``
State = List[np.ndarray]

#: global gradient-norm clip of :meth:`SeriesLSTM.step`
_MAX_GRAD_NORM = 1.0

#: most windows one :meth:`SeriesLSTM.forward_stack` runs over one θ (the
#: loss predictor's three); the scratch buffers are sized for this many
_MAX_WINDOWS = 3

#: fold the sigmoid's ½ into a scaled copy of θ only if θ has at most this
#: many floats per window step.  The copy costs ≈ 0.35–0.45 ns per float per
#: pass; it saves one ≈ 0.4 µs ufunc call per cell step, two cell steps (one
#: per layer) per window step: break-even at ≈ 2 000 floats per step (2-core
#: Xeon, OpenBLAS 0.3.31).  A stacked pass saves that call once per step for
#: all its windows, so K does not enter: counting ``K * max_steps`` steps
#: folded the paper's hidden-64 three-window pass, and it ran slower.  Hidden
#: 16 over a 10-step window is 328 per step and folds; the paper's hidden 64
#: over 16 steps (3 124) and 128 over 8 (24 912) would pay more for the copy
#: than the fold saves.
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

        steps, wide = max_steps, _MAX_WINDOWS
        self._x = np.empty((wide, steps, input_size), dtype=np.float32)
        self._y = np.empty((wide, steps), dtype=np.float32)
        self._dy = np.empty(steps, dtype=np.float32)
        self._proj = np.empty((steps, 4 * hs), dtype=np.float32)  # one window's input GEMM
        # per layer and flat, viewed per pass as (steps, 4, K, hs) gates and
        # (steps, K, hs) cell state, tanh(cell) and hidden state.  Zeroed, so
        # the slots of windows that have ended only ever hold finite values.
        self._gates = [np.zeros(steps * 4 * wide * hs, dtype=np.float32) for _ in range(2)]
        self._c = [np.zeros(steps * wide * hs, dtype=np.float32) for _ in range(2)]
        self._tanh_c = [np.zeros(steps * wide * hs, dtype=np.float32) for _ in range(2)]
        self._h = [np.zeros(steps * wide * hs, dtype=np.float32) for _ in range(2)]
        self._rec = np.zeros((wide, 4 * hs), dtype=np.float32)  # one GEMV output per window
        self._tmp = np.empty((wide, hs), dtype=np.float32)
        self._zeros = np.zeros((wide, hs), dtype=np.float32)  # h and c before the first step
        self._zero = self._zeros[0]
        # the backward pass's local derivatives and gate gradients
        self._local = np.empty((steps, 4, hs), dtype=np.float32)
        self._dgates = np.empty((steps, 4, hs), dtype=np.float32)
        self._dh_out = [np.empty((steps, hs), dtype=np.float32) for _ in range(2)]
        self._dc_dh = np.empty((steps, hs), dtype=np.float32)
        self._vec = [np.empty(hs, dtype=np.float32) for _ in range(4)]
        self._wide = np.empty(4 * hs, dtype=np.float32)
        self._recurrent = np.empty(4 * hs, dtype=np.float32)
        # built on first use (module docstring): per K the pass's layout and
        # per-step views, per tuple of window lengths the pass's slices, and
        # θ with the i, f, o rows halved
        self._layouts: Dict[int, _Layout] = {}
        self._plans: Dict[Tuple[int, ...], _Plan] = {}
        self._scaled_theta: Optional[np.ndarray] = None
        self._biases = [self.params[2].reshape(4, hs), self.params[5].reshape(4, hs)]
        # the plan of the last pass
        self._pass: Optional[_Plan] = None

    def _carve(self, flat: np.ndarray) -> List[np.ndarray]:
        views, offset = [], 0
        for shape in self._shapes:
            size = math.prod(shape)
            views.append(flat[offset : offset + size].reshape(shape))
            offset += size
        return views

    def _layout(self, k: int) -> "_Layout":
        layout = self._layouts.get(k)
        if layout is None:
            layout = self._layouts[k] = _Layout(self, k)
        return layout

    def _halved_params(self) -> Tuple[List[np.ndarray], List[np.ndarray]]:
        """θ with the i, f, o rows of both layers halved, refreshed from :attr:`params`.

        Returns the halved parameter views and the two layers' biases as
        ``(4, hidden)``.
        """
        if self._scaled_theta is None:
            hs = self.hidden_size
            self._row_scale = np.ones_like(self._theta)
            for view in self._carve(self._row_scale)[:6]:  # both layers' w_ih, w_hh, bias
                view.T[...] = self._scale
            self._scaled_theta = np.empty_like(self._theta)
            halved = self._carve(self._scaled_theta)
            self._halved = (halved, [halved[2].reshape(4, hs), halved[5].reshape(4, hs)])
        np.multiply(self._theta, self._row_scale, out=self._scaled_theta)
        return self._halved

    # ------------------------------------------------------------------ #
    # forward
    # ------------------------------------------------------------------ #
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Per-step outputs ``(T,)`` for a ``(T, input_size)`` window from a zero state.

        The one-window case of :meth:`forward_stack`: the returned array is
        scratch, and the activations left behind are what :meth:`backward`
        reads.
        """
        return self.forward_stack([x])[0]

    def forward_stack(self, windows: Sequence[np.ndarray]) -> List[np.ndarray]:
        """Per-step outputs of up to three ``(T_j, input_size)`` windows over one θ.

        Each window starts from a zero state; lengths may differ.  The
        returned arrays are scratch, overwritten by the next pass.
        :meth:`final_state` reads each window's last ``[h, c]``, and
        :meth:`backward` differentiates the last window.
        """
        lengths = tuple(map(len, windows))
        plan = self._plans.get(lengths)
        if plan is None:
            plan = self._plans[lengths] = _Plan(self, lengths)
        if self._theta.size <= _FOLD_FLOATS_PER_STEP * self.max_steps:
            (params, biases), pre = self._halved_params(), None  # the halved weights already scale z
        else:
            params, biases, pre = self.params, self._biases, plan.layout.scale
        for x, j in zip(plan.inputs, plan.order):
            x[...] = windows[j]
        for layer in range(2):
            self._forward_layer(layer, plan, params[3 * layer : 3 * layer + 2], biases[layer], pre)
        w_head, b_head = self.params[6][0], self.params[7]
        for hidden, y in plan.head:
            np.dot(hidden, w_head, out=y)
            y += b_head
        self._pass = plan
        return list(plan.outputs)

    def _forward_layer(self, layer, plan, weights, bias, pre) -> None:
        # the cell below is _cell over all K slots at once, whose first
        # multiply is skipped when the halved weights already gave z its
        # halved i, f, o rows; a slot whose window has ended keeps computing
        # on finite leftovers that nothing reads, so every ufunc sees whole
        # contiguous gate blocks, and only the GEMVs stop
        w_ih, w_hh = weights
        w_in = w_ih.T
        for inputs, rows, gate_rows, slot_gates in plan.project[layer]:
            np.dot(inputs, w_in, out=rows)
            np.add(gate_rows, bias, out=slot_gates)
        layout = plan.layout
        views, tmp, scale, shift = layout.steps[layer], layout.tmp, layout.scale, layout.shift
        for active, start, stop in plan.spans:
            for z, i, f, g, o, c_prev, c, tanh_c, h, recurrent, gemvs in views[start:stop]:
                for h_prev, out in gemvs[active]:
                    np.dot(w_hh, h_prev, out=out)
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

    def final_state(self, window: int) -> State:
        """Fresh ``[h, c]`` of both layers after window ``window`` of the last pass."""
        plan = self._pass
        layout, slot, last = plan.layout, plan.slots[window], plan.lengths[window] - 1
        return [buf[layer][last, slot].copy() for layer in range(2) for buf in (layout.hidden, layout.cells)]

    # ------------------------------------------------------------------ #
    # backward + optimiser
    # ------------------------------------------------------------------ #
    def backward(self, dy: np.ndarray) -> None:
        """Gradients of a loss with ``dL/dy = dy`` into :attr:`grads` (BPTT).

        Must follow the :meth:`forward_stack` call whose last window it
        differentiates.
        """
        if self._pass is None:
            raise ValueError("backward before any forward pass")
        plan = self._pass
        slot, steps = plan.slots[-1], plan.lengths[-1]
        if len(dy) != steps:
            raise ValueError(f"dy has {len(dy)} steps, the cached window {steps}")
        layout, grads = plan.layout, self.grads
        views = layout.backward.get(slot)
        if views is None:
            views = layout.backward[slot] = [
                [(dh_out[t], self._dc_dh[t], dz, self._local[t], self._local[t, 3], dz[3],
                  gates[t, 1, slot], dz.reshape(-1))
                 for t, dz in enumerate(self._dgates)]
                for dh_out, gates in zip(self._dh_out, layout.gates)
            ]
        dy32 = self._dy[:steps]
        dy32[...] = dy
        lower, upper = plan.activations[slot]
        np.dot(dy32, upper[4], out=grads[6][0])
        grads[7][0] = dy32.sum()
        np.multiply(dy32[:, None], self.params[6], out=self._dh_out[1][:steps])
        self._backward_layer(1, views[1], upper, self._dh_out[0][:steps])
        self._backward_layer(0, views[0], lower, None)

    def _backward_layer(self, layer, views, activations, d_inputs) -> None:
        """BPTT through one layer; ``_dh_out[layer]`` holds dL/dh from above, per step."""
        w_ih, w_hh, _ = self.params[3 * layer : 3 * layer + 3]
        g_ih, g_hh, g_bias = self.grads[3 * layer : 3 * layer + 3]
        hs = self.hidden_size
        inputs, gates, cells, tanh_cells, hidden = activations
        steps = len(inputs)
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
        self.forward_stack([x])
        return self.final_state(0)

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


class _Plan:
    """The slices of one pass over windows of the given lengths (built once per tuple).

    Windows run longest first, so the ones still running at a step are the
    first ``a`` slots; ``spans`` lists ``(a, start, stop)`` runs of steps.
    """

    def __init__(self, kernel: SeriesLSTM, lengths: Tuple[int, ...]) -> None:
        k = len(lengths)
        if not 0 < k <= _MAX_WINDOWS:
            raise ValueError(f"{k} windows, a pass runs 1..{_MAX_WINDOWS}")
        for steps in lengths:
            if not 0 < steps <= kernel.max_steps:
                raise ValueError(f"window of {steps} steps, kernel sized for 1..{kernel.max_steps}")
        self.lengths = lengths
        self.layout = layout = kernel._layout(k)
        self.order = sorted(range(k), key=lengths.__getitem__, reverse=True)
        self.slots = [self.order.index(j) for j in range(k)]
        self.spans, start = [], 0
        for active in range(k, 0, -1):
            stop = lengths[self.order[active - 1]]
            if stop > start:
                self.spans.append((active, start, stop))
                start = stop
        # per slot: the input rows; per layer and slot, the input GEMM's
        # operands with the gate rows it lands in (bias added), and the
        # window's input and activations as backward reads them
        self.inputs = [kernel._x[slot, : lengths[j]] for slot, j in enumerate(self.order)]
        self.project, self.activations, inputs = [], [[] for _ in range(k)], self.inputs
        for gates, cells, tanh_cells, hidden in zip(layout.gates, layout.cells, layout.tanh_cells, layout.hidden):
            project = []
            for slot, x in enumerate(inputs):
                n, rows = len(x), kernel._proj[: len(x)]
                project.append((x, rows, rows.reshape(n, 4, -1), gates[:n, :, slot]))
                self.activations[slot].append(
                    (x, gates[:n, :, slot], cells[:n, slot], tanh_cells[:n, slot], hidden[:n, slot])
                )
            self.project.append(project)
            inputs = [acts[-1][4] for acts in self.activations]
        self.head = [(h, kernel._y[slot, : len(h)]) for slot, h in enumerate(inputs)]
        self.outputs = [self.head[slot][1] for slot in self.slots]


class _Layout:
    """The scratch of one pass over ``k`` windows, gate-major, and its per-step views.

    ``gates[layer]`` is ``(max_steps, 4, k, hidden)``, so each gate block of
    all ``k`` windows at one step is one contiguous operand; ``cells``,
    ``tanh_cells`` and ``hidden`` are ``(max_steps, k, hidden)``.  ``steps``
    holds per layer and step the views the cell loop unpacks, the GEMVs as
    ``(h_prev, out)`` pairs of the first ``a`` windows at index ``a``.  With
    one window the views are flat vectors, the cheapest ufunc operands.
    """

    def __init__(self, kernel: SeriesLSTM, k: int) -> None:
        hs, n = kernel.hidden_size, kernel.max_steps
        self.gates = [buf[: n * 4 * k * hs].reshape(n, 4, k, hs) for buf in kernel._gates]
        self.cells = [buf[: n * k * hs].reshape(n, k, hs) for buf in kernel._c]
        self.tanh_cells = [buf[: n * k * hs].reshape(n, k, hs) for buf in kernel._tanh_c]
        self.hidden = [buf[: n * k * hs].reshape(n, k, hs) for buf in kernel._h]
        # (4, k, hs) and (k, hs) operands, or (4 hs,) and (hs,) when k == 1
        flat = (lambda a: a.reshape(-1)) if k == 1 else (lambda a: a)
        self.scale = flat(np.repeat(kernel._scale.reshape(4, 1, hs), k, axis=1))
        self.shift = flat(np.repeat(kernel._shift.reshape(4, 1, hs), k, axis=1))
        self.tmp = flat(kernel._tmp[:k])
        rec, zeros = kernel._rec[:k], kernel._zeros[:k]
        recurrent = flat(rec.reshape(k, 4, hs).transpose(1, 0, 2))
        self.steps = []
        for gates, cells, tanh_cells, hidden in zip(self.gates, self.cells, self.tanh_cells, self.hidden):
            views = []
            for t, z in enumerate(gates):
                gemvs = tuple(zip(hidden[t - 1] if t else zeros, rec))
                views.append((
                    flat(z), *(z.reshape(4, hs) if k == 1 else z),
                    flat(cells[t - 1] if t else zeros), flat(cells[t]), flat(tanh_cells[t]),
                    flat(hidden[t]), recurrent, [gemvs[:a] for a in range(k + 1)],
                ))
            self.steps.append(views)
        self.backward: Dict[int, list] = {}  # per differentiated slot: the backward pass's views
