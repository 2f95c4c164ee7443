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

    Every window this predictor runs over one weight version is known once
    :meth:`observe` has stepped the weights, so ``observe`` runs them all in
    one :meth:`SeriesLSTM.forward_stack` pass over the new weights:

    * this arrival's ``predict_delay`` prefix, the last ``window - 1``
      losses;
    * the next arrival's ``predict_next`` window, the history but its
      newest loss, which ``predict_next`` then advances by that loss;
    * the next arrival's training window, the last ``window`` losses, when
      the next ``observe`` will train: it then back-propagates through the
      activations this pass left behind.

    The pass runs one GEMV per window per cell step, as separate calls
    would, so every forecast, ``l_delay``, gradient and weight is the same
    bit for bit.  **Cache contract:** the history, the normaliser and the
    weights change only in :meth:`observe`, so ``observe`` is the one
    method that consumes the cache and rebuilds it; ``predict_next``,
    ``predict_delay`` and ``delay_sensitivity`` only read it and run no
    window pass.  The training window's activations live in the model's
    scratch, so nothing else may run a pass on :attr:`model` between two
    ``observe`` calls.

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
        # the look-ahead of the last observe (class docstring), all None
        # until two losses are in: (h, c) after the delay prefix and after
        # the next predict_next window, that window's last input, and the
        # next training window's outputs (kernel scratch; None if the next
        # observe does not train)
        self._delay_prefix: Optional[State] = None
        self._next_prefix: Optional[State] = None
        self._next_last = 0.0
        self._train_pred: Optional[np.ndarray] = None

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
        """One pass over every window the current weights will see (class docstring)."""
        self._delay_prefix = self._next_prefix = self._train_pred = None
        if len(series) < 2:
            return
        windows = [series[-(self.window - 1) :, None], series[:-1, None]]
        trains_next = (self._observed + 1) % self.train_every == 0  # and len(series) + 1 >= 3
        if trains_next:
            windows.append(series[-self.window :, None])  # last: backward differentiates it
        outputs = self.model.forward_stack(windows)
        self._delay_prefix = self.model.final_state(0)
        self._next_prefix = self.model.final_state(1)
        self._next_last = float(series[-1])
        if trains_next:
            self._train_pred = outputs[2]

    def predict_next(self) -> Optional[float]:
        """One-step forecast in raw loss units (None before warm-up)."""
        if self._next_prefix is None:
            return None
        z = self.model.rollout_from(self._next_prefix, self._next_last, 1)[0]
        return self._norm.denormalize(z)

    def predict_delay(self, loss: float, k: int) -> float:
        """Formula 9: sum of the ``k`` rollout forecasts after ``loss``.

        Rollouts are capped at ``rollout_cap`` steps (CPU cost is linear in
        the rollout length); beyond the cap the tail is extrapolated at the
        last predicted level, which is also where autoregressive LSTM
        forecasts flatten anyway.

        The window is the last ``window - 1`` observed losses followed by
        ``loss``; :meth:`observe` encoded the prefix, so the three calls of
        the "sensitivity" coupling (``loss``, ``loss ± eps``) each run only
        their own tail.

        Known quirk, kept because the golden runs pin it: the server's
        ``handle_state`` calls ``observe(l_m)`` before this, so the prefix
        already ends with ``l_m`` and the rollout is fed ``l_m`` twice, once
        as the prefix's last input and once as ``loss``.
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
