"""Predictor interfaces shared by the LSTM models and the baselines.

Both predictors are *online*: they are trained sample-by-sample as losses
and step observations arrive at the parameter server, "without disturbing
workers' progress" (Section 4.3).
"""

from __future__ import annotations

import math
from typing import Optional


class _RunningNorm:
    """Streaming mean/std normalizer (Welford), used to stabilize the LSTMs."""

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0

    def update(self, value: float) -> None:
        """Fold one observation into the running statistics."""
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)

    @property
    def std(self) -> float:
        """Running standard deviation (>= 1e-6 floor)."""
        if self.count < 2:
            return 1.0
        return max(math.sqrt(self._m2 / (self.count - 1)), 1e-6)

    def normalize(self, value: float) -> float:
        """Map ``value`` to z-score under the running statistics."""
        return (value - self.mean) / self.std

    def denormalize(self, z: float) -> float:
        """Inverse of :meth:`normalize`."""
        return z * self.std + self.mean


class LossPredictorBase:
    """Interface of Algorithm 3: online next-loss forecasting.

    Protocol per state arrival at the server (loss ``l_m``):

    1. ``predict_next()`` — optional, the one-step forecast made *before*
       seeing ``l_m`` (recorded for Figure 7).
    2. ``observe(l_m)`` — online training step using the previous loss as
       input and ``l_m`` as the label (Algorithm 3, line 1).
    3. ``predict_delay(l_m, k)`` — the summed ``k``-step-ahead forecast
       ``l_delay`` (Formula 9).

    ``l_m`` is fed once: ``predict_delay``'s ``loss`` stands in for the
    newest observed loss rather than following it, so right after
    ``observe(l)``, ``predict_delay(l, 1)`` is the forecast
    ``predict_next()`` makes, and ``predict_delay(l ± eps, k)`` perturbs
    that loss alone (the "sensitivity" coupling).
    """

    name = "base"

    def observe(self, loss: float) -> None:
        """Consume the newest loss and take one online-training step."""
        raise NotImplementedError

    def predict_next(self) -> Optional[float]:
        """One-step-ahead forecast from current history (None if cold)."""
        raise NotImplementedError

    def predict_delay(self, loss: float, k: int) -> float:
        """Sum of the ``k`` future loss forecasts starting after ``loss``."""
        raise NotImplementedError

    def delay_sensitivity(self, loss: float, k: int, eps: float = 1e-3) -> float:
        """Finite-difference ``d l_delay / d loss`` (the "sensitivity" coupling)."""
        hi = self.predict_delay(loss + eps, k)
        lo = self.predict_delay(loss - eps, k)
        return (hi - lo) / (2 * eps)


class StepPredictorBase:
    """Interface of Algorithm 4: online staleness forecasting.

    Per worker ``m`` the server calls:

    * ``observe(worker, step, t_comm, t_comp)`` when the true staleness of a
      landed gradient becomes known (one online-training step);
    * ``predict(worker, t_comm, t_comp)`` at state-arrival time to forecast
      the staleness ``k_m`` the in-flight gradient will experience.
    """

    name = "base"

    def observe(self, worker: int, step: float, t_comm: float, t_comp: float) -> None:
        """Consume one realized (staleness, costs) observation."""
        raise NotImplementedError

    def predict(self, worker: int, t_comm: float, t_comp: float) -> int:
        """Forecast the next staleness for ``worker`` (non-negative int)."""
        raise NotImplementedError

    @staticmethod
    def _clip_step(value: float, max_step: int) -> int:
        """Round and clamp a raw forecast into ``[0, max_step]``.

        A NaN or infinite forecast has no rounding: it raises
        :class:`FloatingPointError` naming the step predictor.
        """
        if not math.isfinite(value):
            raise FloatingPointError(f"step predictor forecast {value} is not finite")
        return min(max(round(value), 0), max_step)
