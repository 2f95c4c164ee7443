"""The parameter server — Algorithm 2.

Responsibilities, matching the paper line by line:

* maintain the global weights ``w_t`` (one flat float64 vector) and the
  model version ``t``;
* on a ``state_m`` arrival (lines 1-7): append ``m`` to ``iter``, predict
  ``k_m`` with the step predictor, predict ``l_delay`` with the loss
  predictor, fold the worker's BN statistics into the global running stats
  (Formulas 6-7 or replace-mode), and reply the compensation;
* on a gradient arrival (lines 8-10): apply the algorithm's update rule,
  advance the version, and feed the realized staleness back into the step
  predictor's online training;
* on a pull request (lines 11-12): hand out the current weights — or queue
  the request when the SSGD barrier is still open.

Predictor invocations are timed with real (CPU) timers because Tables 2-3
report their per-iteration overhead.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.algorithms.base import UpdateRule
from repro.core.algorithms.ssgd import SSGDRule
from repro.core.batchnorm_sync import BnSyncStrategy
from repro.core.predictors.base import LossPredictorBase, StepPredictorBase
from repro.core.state import CompensationReply, GradientPayload, WorkerState
from repro.optim.lr_scheduler import LRSchedule
from repro.utils.timer import Timer


def _require_finite(value: float, what: str, worker: int) -> None:
    """Fail a compensation before it is sent, blaming the predictor that made it."""
    if not math.isfinite(value):
        raise FloatingPointError(
            f"the {what} for worker {worker} is {value}, not finite; "
            "the predictor has diverged"
        )


class ParameterServer:
    """Algorithm 2's server over a flat parameter vector."""

    def __init__(
        self,
        init_params: np.ndarray,
        rule: UpdateRule,
        lr_schedule: LRSchedule,
        iters_per_epoch: int,
        bn_strategy: Optional[BnSyncStrategy] = None,
        loss_predictor: Optional[LossPredictorBase] = None,
        step_predictor: Optional[StepPredictorBase] = None,
        lc_lambda: float = 0.5,
        compensation: str = "damping",
        timer: Optional[Timer] = None,
    ) -> None:
        self.params = np.asarray(init_params, dtype=np.float64).copy()
        self.rule = rule
        self.lr_schedule = lr_schedule
        self.iters_per_epoch = int(iters_per_epoch)
        if self.iters_per_epoch < 1:
            raise ValueError("iters_per_epoch must be >= 1")
        self.bn_strategy = bn_strategy
        self.loss_predictor = loss_predictor
        self.step_predictor = step_predictor
        self.lc_lambda = float(lc_lambda)
        self.compensation = compensation
        self.timer = timer or Timer()

        self.version = 0  # the t of Algorithm 2
        self.batches_processed = 0
        self.iter_log: List[int] = []  # the paper's `iter` list
        self.pull_versions: Dict[int, int] = {}
        self.pending_pulls: List[Tuple[int, float]] = []  # (worker, t0) queued by the barrier
        # features stored at state time for the step predictor's label join
        self._inflight_features: Dict[int, Tuple[float, float]] = {}
        self._inflight_predicted_k: Dict[int, int] = {}
        # recorded series for Figures 7-8
        self.loss_prediction_pairs: List[Tuple[float, float]] = []  # (actual, predicted)
        self.step_prediction_pairs: List[Tuple[int, int]] = []  # (actual, predicted)

    # ------------------------------------------------------------------ #
    @property
    def epoch(self) -> int:
        """Current epoch index derived from processed batches."""
        return self.batches_processed // self.iters_per_epoch

    @property
    def current_lr(self) -> float:
        """Learning rate for the current epoch."""
        return self.lr_schedule.lr_at(self.epoch)

    # ------------------------------------------------------------------ #
    # Algorithm 2, lines 11-12
    # ------------------------------------------------------------------ #
    def handle_pull(self, worker: int, request_time: float = 0.0) -> Optional[np.ndarray]:
        """Serve a pull, or return None when the SSGD barrier queues it."""
        if isinstance(self.rule, SSGDRule) and self.rule.round_contributed(worker):
            self.pending_pulls.append((worker, request_time))
            return None
        self.rule.on_pull(worker, self.version, self.params)
        self.pull_versions[worker] = self.version
        return self.params.copy()

    def drain_pending_pulls(self) -> List[Tuple[int, float]]:
        """Flush and serve all barrier-queued pulls (after a round closes)."""
        drained = self.pending_pulls
        self.pending_pulls = []
        for worker, _ in drained:
            self.rule.on_pull(worker, self.version, self.params)
            self.pull_versions[worker] = self.version
        return drained

    # ------------------------------------------------------------------ #
    # Algorithm 2, lines 1-7
    # ------------------------------------------------------------------ #
    def handle_state(self, state: WorkerState) -> Optional[CompensationReply]:
        """Process a ``state_m`` push; returns the compensation for LC-ASGD."""
        self.iter_log.append(state.worker)
        if self.bn_strategy is not None and state.bn_stats:
            self.bn_strategy.update(state.bn_stats)

        if self.loss_predictor is None or self.step_predictor is None:
            return None

        # Record the predictor's genuine one-step forecast before it sees
        # the new loss (the two curves of Figure 7).
        with self.timer.section("loss-pred"):
            forecast = self.loss_predictor.predict_next()
            if forecast is not None:
                self.loss_prediction_pairs.append((state.loss, float(forecast)))
            self.loss_predictor.observe(state.loss)

        with self.timer.section("step-pred"):
            k = self.step_predictor.predict(state.worker, state.t_comm, state.t_comp)
        _require_finite(k, "step predictor's staleness forecast k", state.worker)
        self._inflight_predicted_k[state.worker] = k
        self._inflight_features[state.worker] = (state.t_comm, state.t_comp)

        with self.timer.section("loss-pred"):
            l_delay = self.loss_predictor.predict_delay(state.loss, k)
            sensitivity = 0.0
            if self.compensation == "sensitivity":
                sensitivity = self.loss_predictor.delay_sensitivity(state.loss, k)
        _require_finite(l_delay, "loss predictor's l_delay", state.worker)
        _require_finite(sensitivity, "loss predictor's sensitivity", state.worker)

        return CompensationReply(
            worker=state.worker,
            l_delay=float(l_delay),
            predicted_step=int(k),
            sensitivity=float(sensitivity),
        )

    def handle_combined(self, state: WorkerState, payload: GradientPayload) -> Tuple[bool, int]:
        """Fused state+gradient arrival (non-compensated algorithms).

        The non-LC algorithms send ``state_m`` and the gradient in one
        message and await no reply: log the iteration, fold the BN stats,
        then apply the gradient.  Both backends route their fused path
        through here so the server-side bookkeeping cannot drift.
        """
        self.iter_log.append(state.worker)
        if self.bn_strategy is not None and state.bn_stats:
            self.bn_strategy.update(state.bn_stats)
        return self.handle_gradient(payload)

    # ------------------------------------------------------------------ #
    # Algorithm 2, lines 8-10
    # ------------------------------------------------------------------ #
    def handle_gradient(self, payload: GradientPayload) -> Tuple[bool, int]:
        """Apply one gradient; returns (version_advanced, realized staleness)."""
        if payload.grad.shape != self.params.shape:
            raise ValueError(
                f"gradient size {payload.grad.shape} != parameter size {self.params.shape}"
            )
        if not np.all(np.isfinite(payload.grad)):
            raise FloatingPointError(
                f"worker {payload.worker} pushed a non-finite gradient "
                f"(loss {payload.loss}); the run has diverged"
            )
        staleness = max(self.version - payload.pull_version, 0)
        advanced = self.rule.apply_gradient(
            self.params, payload, self.current_lr, self.version
        )
        self.batches_processed += 1
        if advanced:
            self.version += 1

        if self.step_predictor is not None:
            t_comm, t_comp = self._inflight_features.get(payload.worker, (0.0, 0.0))
            predicted = self._inflight_predicted_k.get(payload.worker)
            if predicted is not None:
                self.step_prediction_pairs.append((staleness, int(predicted)))
            with self.timer.section("step-pred"):
                self.step_predictor.observe(payload.worker, staleness, t_comm, t_comp)
        return advanced, staleness
