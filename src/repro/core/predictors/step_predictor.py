"""Algorithm 4: the online multivariate LSTM step predictor.

Predicts the staleness ``k_m`` a worker's in-flight gradient will experience
from three input dimensions (Section 4.4): the worker's previous realized
step, its communication cost ``t_comm`` and its computation cost ``t_comp``.
Architecture: two LSTM layers + linear head (paper hidden size: 128).

One shared model is trained across all workers (they share dynamics); each
worker keeps its own feature window, so per-worker regularities — a
persistently slow node has persistently high ``k_m`` — remain visible to the
LSTM through the feature values themselves.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Tuple

import numpy as np

from repro.core.predictors.base import StepPredictorBase, _RunningNorm
from repro.core.predictors.series_lstm import SeriesLSTM
from repro.utils.rng import SeedLike, as_generator


class LSTMStepPredictor(StepPredictorBase):
    """The paper's step predictor (Algorithm 4).

    Parameters
    ----------
    hidden_size:
        LSTM width (paper: 128; benches use less for CPU speed).
    window:
        Per-worker feature-history length fed to the LSTM.
    max_step:
        Hard cap on predictions (defaults to ``4 * num_workers`` at the
        call site; here a static cap).
    lr, momentum, train_every, seed:
        Online-training hyper-parameters, as in the loss predictor.

    Known quirk, kept because the golden runs pin it: :meth:`observe`
    trains on ``history``, the worker's rows up to cycle ``j``, to predict
    step ``j + 1``; :meth:`predict` feeds ``history[1:] + (step_j,
    comm_{j+1}, comp_{j+1})``, a window whose last row repeats ``step_j``
    beside the new costs.  The model is never trained on that window shape.
    """

    name = "lstm"

    def __init__(
        self,
        hidden_size: int = 128,
        window: int = 8,
        max_step: int = 256,
        lr: float = 0.05,
        momentum: float = 0.9,
        train_every: int = 1,
        seed: SeedLike = 0,
    ) -> None:
        if hidden_size <= 0 or window < 2 or max_step < 1:
            raise ValueError("invalid step-predictor hyper-parameters")
        if train_every < 1:
            raise ValueError("train_every must be >= 1")
        rng = as_generator(seed, "step-predictor")
        self.model = SeriesLSTM(3, hidden_size, rng, max_steps=window, lr=lr, momentum=momentum)
        self.window = int(window)
        self.max_step = int(max_step)
        self.train_every = int(train_every)
        self._histories: Dict[int, Deque[Tuple[float, float, float]]] = {}
        self._step_norm = _RunningNorm()
        self._comm_norm = _RunningNorm()
        self._comp_norm = _RunningNorm()
        self._observed = 0

    # ------------------------------------------------------------------ #
    def _window_of(self, worker: int) -> Deque[Tuple[float, float, float]]:
        if worker not in self._histories:
            self._histories[worker] = deque(maxlen=self.window)
        return self._histories[worker]

    def _features(self, step: float, t_comm: float, t_comp: float) -> Tuple[float, float, float]:
        return (
            self._step_norm.normalize(step),
            self._comm_norm.normalize(t_comm),
            self._comp_norm.normalize(t_comp),
        )

    def observe(self, worker: int, step: float, t_comm: float, t_comp: float) -> None:
        """Algorithm 4, line 2: train with the newly realized staleness."""
        self._step_norm.update(float(step))
        self._comm_norm.update(float(t_comm))
        self._comp_norm.update(float(t_comp))
        history = self._window_of(worker)
        self._observed += 1
        if len(history) >= 2 and self._observed % self.train_every == 0:
            pred = self.model.forward(np.array(history, dtype=np.float32))
            dy = np.zeros(len(pred), dtype=np.float32)  # MSE on the last step only
            dy[-1] = 2.0 * (pred[-1] - self._step_norm.normalize(float(step)))
            self.model.backward(dy)
            self.model.step()
        history.append(self._features(float(step), float(t_comm), float(t_comp)))

    def predict(self, worker: int, t_comm: float, t_comp: float) -> int:
        """Algorithm 4, line 3 / Formula 10: forecast the next ``k_m``."""
        history = self._window_of(worker)
        if len(history) < 2:
            # Cold start: with M workers interleaving uniformly the expected
            # staleness is M-1; before any data we fall back to the mean.
            if self._step_norm.count == 0:
                return 0
            return self._clip_step(self._step_norm.mean, self.max_step)
        last_step_feature = history[-1][0]  # most recent realized step (normalized)
        window = list(history)[1:] + [
            (last_step_feature, self._comm_norm.normalize(float(t_comm)), self._comp_norm.normalize(float(t_comp)))
        ]
        z = float(self.model.forward(np.array(window, dtype=np.float32))[-1])
        return self._clip_step(self._step_norm.denormalize(z), self.max_step)
