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
        # (h, c) after the history every ``predict_delay`` window starts with
        self._delay_prefix: Optional[State] = None

    def _invalidate(self) -> None:
        """Drop what was derived from history, normaliser and weights.

        Every method that changes any of the three calls this first; today
        that is :meth:`observe` alone.
        """
        self._delay_prefix = None

    # ------------------------------------------------------------------ #
    def observe(self, loss: float) -> None:
        """Algorithm 3, line 1: one online step with (prev window -> loss)."""
        loss = float(loss)
        self._invalidate()
        self._norm.update(loss)
        self._history.append(self._norm.normalize(loss))
        self._observed += 1
        if len(self._history) < 3 or self._observed % self.train_every:
            return
        series = np.array(self._history, dtype=np.float32)
        pred = self.model.forward(series[:-1, None])
        self.model.backward((pred - series[1:]) * (2.0 / len(pred)))  # d MSE / d pred
        self.model.step()

    def predict_next(self) -> Optional[float]:
        """One-step forecast in raw loss units (None before warm-up)."""
        if len(self._history) < 2:
            return None
        z = self.model.rollout(np.array(self._history, dtype=np.float32), 1)[0]
        return self._norm.denormalize(z)

    def predict_delay(self, loss: float, k: int) -> float:
        """Formula 9: sum of the ``k`` rollout forecasts after ``loss``.

        Rollouts are capped at ``rollout_cap`` steps (CPU cost is linear in
        the rollout length); beyond the cap the tail is extrapolated at the
        last predicted level, which is also where autoregressive LSTM
        forecasts flatten anyway.

        The window is the last ``window - 1`` observed losses followed by
        ``loss``; the prefix is encoded once per :meth:`observe`, so the
        three calls of the "sensitivity" coupling (``loss``, ``loss ± eps``)
        share it and each run only their own tail.
        """
        if k <= 0:
            return 0.0
        if len(self._history) < 2:
            # Cold start: flat forecast, as good as any before data arrives.
            return float(loss) * k
        steps = min(int(k), self.rollout_cap)
        if self._delay_prefix is None:
            prefix = np.array(self._history, dtype=np.float32)[-(self.window - 1) :]
            self._delay_prefix = self.model.encode(prefix[:, None])
        preds = self.model.rollout_from(self._delay_prefix, self._norm.normalize(float(loss)), steps)
        values = [self._norm.denormalize(z) for z in preds]
        total = float(sum(values))
        if k > steps:
            total += values[-1] * (k - steps)
        return total
