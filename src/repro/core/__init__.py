"""The paper's contribution: LC-ASGD and its baselines.

Components map one-to-one onto the paper:

* :mod:`repro.core.worker` — Algorithm 1 (worker computations).
* :mod:`repro.core.server` — Algorithm 2 (parameter server).
* :mod:`repro.core.predictors.loss_predictor` — Algorithm 3 (online LSTM
  loss predictor).
* :mod:`repro.core.predictors.step_predictor` — Algorithm 4 (online
  multivariate LSTM step predictor).
* :mod:`repro.core.batchnorm_sync` — Formulas 6-7 (Async-BN) plus the
  replace-mode baseline BN.
* :mod:`repro.core.algorithms` — the update rules: sequential SGD, SSGD
  (Formula 1), ASGD (Formula 2), DC-ASGD (Formula 3) and LC-ASGD
  (Formulas 4-5, 9-10).
* :mod:`repro.core.trainer` — the DistributedTrainer executing an
  :class:`~repro.runtime.session.ExperimentPlan` (built in
  :mod:`repro.runtime.session`) on the cluster simulator; the thread
  runtime in :mod:`repro.runtime` executes the same plan concurrently.
"""

from repro.core.config import ClusterConfig, PredictorConfig, TrainingConfig
from repro.core.metrics import CurvePoint, RunResult, evaluate_model
from repro.core.trainer import DistributedTrainer

__all__ = [
    "TrainingConfig",
    "ClusterConfig",
    "PredictorConfig",
    "DistributedTrainer",
    "RunResult",
    "CurvePoint",
    "evaluate_model",
]
