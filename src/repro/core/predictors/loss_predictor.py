"""Algorithm 3: the online LSTM loss predictor.

Architecture per Section 4.3: two LSTM layers followed by a linear layer
(hidden size 64 in the paper's CIFAR experiments).  The model is trained
online on the parameter server: every arriving loss is the label for the
previous window, and ``l_delay`` is the sum of the ``k``-step autoregressive
rollout (Formula 9).

Inputs/outputs are z-normalized with streaming statistics; the raw loss
scale drifts over two orders of magnitude during training, which an
un-normalized LSTM tracks poorly.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

import numpy as np

from repro.core.predictors.base import LossPredictorBase, _RunningNorm
from repro.core.predictors.series_lstm import SeriesLSTM, State
from repro.utils.rng import SeedLike, as_generator


class LSTMLossPredictor(LossPredictorBase):
    """The paper's loss predictor (two LSTM layers + linear, trained online).

    Once :meth:`observe` has taken its SGD step on the arrival of ``l_m``,
    it runs one window pass over the new weights: the next training
    window, the last ``window`` losses, ending with ``l_m``.  Everything
    until the next arrival reads that pass:

    * the next ``observe`` back-propagates through its activations;
    * its last output is the one-step forecast :meth:`predict_next`
      returns;
    * its ``[h, c]`` after ``window - 1`` steps, the losses before
      ``l_m``, is the prefix into which :meth:`predict_delay` feeds its
      ``loss`` once, so ``l_m`` is fed once and the "sensitivity"
      coupling's ``loss ± eps`` moves ``l_delay``.

    The prefix is read from that pass rather than from a pass of its own
    because a GEMM's rows depend on its row count: a ``window``-step
    pass's state after step ``window - 2`` and a ``(window - 1)``-step
    pass's final state differ in their last bits in 10–18 % of cases.
    Right after ``observe(l)``, ``predict_delay(l, 1)`` and
    ``predict_next()`` feed the same inputs to the same weights, and differ
    only in float32 rounding: the rollout's step is a GEMV, the pass's
    input projection a GEMM.

    **Cache contract:** the history, the normaliser and the weights change
    only in :meth:`observe`, so ``observe`` is the one method that consumes
    the pass and runs the next; ``predict_next``, ``predict_delay`` and
    ``delay_sensitivity`` only read it.  The training window's activations
    live in the model's scratch, so nothing else may run a pass on
    :attr:`model` between two ``observe`` calls.

    Parameters
    ----------
    hidden_size:
        LSTM width (paper: 64).
    window:
        History length fed per online-training step.
    lr, momentum:
        Online-SGD hyper-parameters for the predictor itself.
    train_every:
        Train once per this many observations (1 = every arrival, as in the
        paper; larger values trade accuracy for server overhead).
    seed:
        Determinism root for weight init.
    """

    name = "lstm"

    def __init__(
        self,
        hidden_size: int = 64,
        window: int = 16,
        lr: float = 0.05,
        momentum: float = 0.9,
        train_every: int = 1,
        rollout_cap: int = 32,
        seed: SeedLike = 0,
    ) -> None:
        if hidden_size <= 0 or window < 2:
            raise ValueError("hidden_size must be > 0 and window >= 2")
        if train_every < 1 or rollout_cap < 1:
            raise ValueError("train_every and rollout_cap must be >= 1")
        rng = as_generator(seed, "loss-predictor")
        self.model = SeriesLSTM(1, hidden_size, rng, max_steps=window, lr=lr, momentum=momentum)
        self.window = int(window)
        self.train_every = int(train_every)
        self.rollout_cap = int(rollout_cap)
        self._history: Deque[float] = deque(maxlen=window + 1)
        self._norm = _RunningNorm()
        self._observed = 0
        # read from the last observe's pass (class docstring) once two
        # losses are in: its outputs (kernel scratch), the last of them, and
        # (h, c) after all but its last step
        self._train_pred: Optional[np.ndarray] = None
        self._forecast = 0.0
        self._delay_prefix: Optional[State] = None

    # ------------------------------------------------------------------ #
    def observe(self, loss: float) -> None:
        """Algorithm 3, line 1: one online step with (prev window -> loss)."""
        loss = float(loss)
        self._norm.update(loss)
        self._history.append(self._norm.normalize(loss))
        self._observed += 1
        series = np.array(self._history, dtype=np.float32)
        if len(series) >= 3 and self._observed % self.train_every == 0:
            # series[:-1], forwarded by the previous observe over these weights
            pred = self._train_pred
            self.model.backward((pred - series[1:]) * (2.0 / len(pred)))  # d MSE / d pred
            self.model.step()
        self._look_ahead(series)

    def _look_ahead(self, series: np.ndarray) -> None:
        """One pass over the next training window, which every forecast reads (class docstring)."""
        if len(series) < 2:
            return
        window = series[-self.window :, None]
        self._train_pred = self.model.forward(window)
        self._forecast = float(self._train_pred[-1])
        self._delay_prefix = self.model.final_state(len(window) - 2)

    def predict_next(self) -> Optional[float]:
        """One-step forecast in raw loss units (None before warm-up)."""
        if self._delay_prefix is None:
            return None
        return self._norm.denormalize(self._forecast)

    def predict_delay(self, loss: float, k: int) -> float:
        """Formula 9: sum of the ``k`` rollout forecasts after ``loss``.

        Rollouts are capped at ``rollout_cap`` steps (CPU cost is linear in
        the rollout length); beyond the cap the tail is extrapolated at the
        last predicted level, which is also where autoregressive LSTM
        forecasts flatten anyway.

        The rollout starts from the ``window - 1`` losses before the newest
        one, encoded by :meth:`observe`, and feeds ``loss`` in place of the
        newest, so the three calls of the "sensitivity" coupling (``loss``,
        ``loss ± eps``) each run only their own tail.
        """
        if k <= 0:
            return 0.0
        if self._delay_prefix is None:
            # Cold start (fewer than two losses): flat forecast, as good as
            # any before data arrives.
            return float(loss) * k
        steps = min(int(k), self.rollout_cap)
        preds = self.model.rollout_from(self._delay_prefix, self._norm.normalize(float(loss)), steps)
        values = [self._norm.denormalize(z) for z in preds]
        total = float(sum(values))
        if k > steps:
            total += values[-1] * (k - steps)
        return total
