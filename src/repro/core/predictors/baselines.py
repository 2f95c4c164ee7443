"""Non-learned predictor baselines for the ablation benchmarks.

The paper only evaluates the LSTM predictors; these baselines quantify how
much the LSTM matters (``benchmarks/bench_ablation_predictors.py``).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional

import numpy as np

from repro.core.predictors.base import LossPredictorBase, StepPredictorBase


class LastValueLossPredictor(LossPredictorBase):
    """Forecasts a flat continuation of the last observed loss."""

    name = "last"

    def __init__(self) -> None:
        self._last: Optional[float] = None

    def observe(self, loss: float) -> None:
        self._last = float(loss)

    def predict_next(self) -> Optional[float]:
        return self._last

    def predict_delay(self, loss: float, k: int) -> float:
        return float(loss) * max(k, 0)


class EMALossPredictor(LossPredictorBase):
    """Forecasts the exponential moving average of the loss series."""

    name = "ema"

    def __init__(self, decay: float = 0.3) -> None:
        if not 0.0 < decay <= 1.0:
            raise ValueError("decay must be in (0, 1]")
        self.decay = float(decay)
        self._ema: Optional[float] = None
        self._before: Optional[float] = None  # the EMA before the last observe

    def observe(self, loss: float) -> None:
        loss = float(loss)
        self._before = self._ema
        self._ema = loss if self._ema is None else (1 - self.decay) * self._ema + self.decay * loss

    def predict_next(self) -> Optional[float]:
        return self._ema

    def predict_delay(self, loss: float, k: int) -> float:
        """``k`` times the EMA with ``loss`` in place of the newest observed loss.

        ``loss`` is blended into the EMA from before the last
        :meth:`observe`, so the ``l_m`` that observe just took is fed once.
        """
        if k <= 0:
            return 0.0
        anchor = self._before
        blended = float(loss) if anchor is None else (1 - self.decay) * anchor + self.decay * float(loss)
        return blended * k


class LinearTrendLossPredictor(LossPredictorBase):
    """Least-squares linear extrapolation over a sliding window."""

    name = "linear"

    def __init__(self, window: int = 16) -> None:
        if window < 3:
            raise ValueError("window must be >= 3")
        self.window = int(window)
        self._history: Deque[float] = deque(maxlen=window)

    def observe(self, loss: float) -> None:
        self._history.append(float(loss))

    def _fit(self, newest: Optional[float] = None) -> Optional[np.ndarray]:
        """The least-squares line, with ``newest`` in place of the newest loss if given."""
        if len(self._history) < 3:
            return None
        y = np.array(self._history, dtype=np.float64)
        if newest is not None:
            y[-1] = newest
        x = np.arange(len(y), dtype=np.float64)
        return np.polyfit(x, y, deg=1)

    def predict_next(self) -> Optional[float]:
        coeffs = self._fit()
        if coeffs is None:
            return self._history[-1] if self._history else None
        # losses cannot extrapolate below zero (as in predict_delay)
        return max(float(np.polyval(coeffs, len(self._history))), 0.0)

    def predict_delay(self, loss: float, k: int) -> float:
        """The fitted line's next ``k`` values, fitted with ``loss`` as the newest loss."""
        if k <= 0:
            return 0.0
        coeffs = self._fit(float(loss))
        if coeffs is None:
            return float(loss) * k
        n = len(self._history)
        future = np.polyval(coeffs, np.arange(n, n + k, dtype=np.float64))
        # losses cannot extrapolate below zero
        return float(np.maximum(future, 0.0).sum())


class LastValueStepPredictor(StepPredictorBase):
    """Predicts each worker's previous realized staleness."""

    name = "last"

    def __init__(self, max_step: int = 256) -> None:
        self.max_step = int(max_step)
        self._last: Dict[int, float] = {}

    def observe(self, worker: int, step: float, t_comm: float, t_comp: float) -> None:
        self._last[worker] = float(step)

    def predict(self, worker: int, t_comm: float, t_comp: float) -> int:
        return self._clip_step(self._last.get(worker, 0.0), self.max_step)


class EMAStepPredictor(StepPredictorBase):
    """Per-worker EMA of realized staleness."""

    name = "ema"

    def __init__(self, decay: float = 0.3, max_step: int = 256) -> None:
        if not 0.0 < decay <= 1.0:
            raise ValueError("decay must be in (0, 1]")
        self.decay = float(decay)
        self.max_step = int(max_step)
        self._ema: Dict[int, float] = {}

    def observe(self, worker: int, step: float, t_comm: float, t_comp: float) -> None:
        step = float(step)
        if worker in self._ema:
            self._ema[worker] = (1 - self.decay) * self._ema[worker] + self.decay * step
        else:
            self._ema[worker] = step

    def predict(self, worker: int, t_comm: float, t_comp: float) -> int:
        return self._clip_step(self._ema.get(worker, 0.0), self.max_step)
