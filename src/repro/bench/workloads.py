"""Named workload configurations for every table and figure.

Two profiles are provided:

* ``fast`` (default) — shape-preserving laptop scale: MLP+BN replicas on the
  synthetic datasets, ~24 scaled "epochs", the heavy-tailed delay model that
  reproduces the paper's staleness regime.  A full bench suite finishes in
  tens of minutes of CPU.
* ``full`` — larger datasets/budgets (and the ResNet models for the paper
  configurations); hours of CPU.  Select with ``REPRO_BENCH_PROFILE=full``.

The learning-rate/momentum regime: the paper's lr=0.3 without momentum is
replaced by lr=0.075 with server momentum 0.9 ("following [8]", which the
paper's training recipe cites), because momentum is what makes gradient
staleness damaging at laptop scale.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

from repro.core.config import ClusterConfig, PredictorConfig, TrainingConfig

#: Table 1 of the paper (test error %, Async-BN columns) — the reference
#: shape every bench compares against.
PAPER_TABLE1 = {
    # (dataset, workers, algorithm): test_error_percent
    ("cifar", 1, "sgd"): 5.15,
    ("cifar", 4, "ssgd"): 5.57,
    ("cifar", 4, "asgd"): 5.65,
    ("cifar", 4, "dc-asgd"): 5.22,
    ("cifar", 4, "lc-asgd"): 4.87,
    ("cifar", 8, "ssgd"): 6.01,
    ("cifar", 8, "asgd"): 6.27,
    ("cifar", 8, "dc-asgd"): 5.58,
    ("cifar", 8, "lc-asgd"): 4.96,
    ("cifar", 16, "ssgd"): 6.20,
    ("cifar", 16, "asgd"): 6.41,
    ("cifar", 16, "dc-asgd"): 5.83,
    ("cifar", 16, "lc-asgd"): 5.52,
    ("imagenet", 4, "ssgd"): 24.49,
    ("imagenet", 4, "asgd"): 24.90,
    ("imagenet", 4, "dc-asgd"): 24.46,
    ("imagenet", 4, "lc-asgd"): 23.86,
    ("imagenet", 8, "ssgd"): 25.11,
    ("imagenet", 8, "asgd"): 25.64,
    ("imagenet", 8, "dc-asgd"): 24.89,
    ("imagenet", 8, "lc-asgd"): 24.07,
    ("imagenet", 16, "ssgd"): 25.62,
    ("imagenet", 16, "asgd"): 25.81,
    ("imagenet", 16, "dc-asgd"): 25.23,
    ("imagenet", 16, "lc-asgd"): 24.82,
}

#: Tables 2-3 of the paper: per-iteration predictor overhead (ms).
PAPER_OVERHEAD = {
    ("cifar", 4): {"loss_pred_ms": 1.28, "step_pred_ms": 1.37, "total_ms": 32.23, "overhead_pct": 8.22},
    ("cifar", 8): {"loss_pred_ms": 1.29, "step_pred_ms": 1.43, "total_ms": 32.84, "overhead_pct": 8.28},
    ("cifar", 16): {"loss_pred_ms": 1.30, "step_pred_ms": 1.48, "total_ms": 34.64, "overhead_pct": 8.03},
    ("imagenet", 4): {"loss_pred_ms": 1.27, "step_pred_ms": 1.36, "total_ms": 183.23, "overhead_pct": 1.44},
    ("imagenet", 8): {"loss_pred_ms": 1.29, "step_pred_ms": 1.45, "total_ms": 185.68, "overhead_pct": 1.48},
    ("imagenet", 16): {"loss_pred_ms": 1.33, "step_pred_ms": 1.50, "total_ms": 188.71, "overhead_pct": 1.50},
}


def bench_profile() -> str:
    """Active bench profile: ``fast`` (default) or ``full``."""
    profile = os.environ.get("REPRO_BENCH_PROFILE", "fast").lower()
    if profile not in ("fast", "full"):
        raise ValueError(f"REPRO_BENCH_PROFILE must be fast|full, got {profile!r}")
    return profile


def _delay_cluster(mean_batch_time: float) -> ClusterConfig:
    """The heavy-tailed delay model shared by all distributed benches."""
    return ClusterConfig(
        mean_batch_time=mean_batch_time,
        compute_heterogeneity=0.3,
        compute_jitter=0.25,
        straggler_probability=0.08,
        straggler_slowdown=10.0,
        link_latency=1e-3,
        link_jitter=0.1,
        network_heterogeneity=0.1,
    )


def _predictors() -> PredictorConfig:
    return PredictorConfig(
        loss_hidden=16, step_hidden=16, loss_window=10, step_window=5, train_every=1
    )


def cifar_workload(
    algorithm: str,
    num_workers: int,
    bn_mode: Optional[str] = None,
    seed: int = 7,
    profile: Optional[str] = None,
    **overrides,
) -> TrainingConfig:
    """The CIFAR-10 stand-in workload behind Figures 2-4 and Table 1/2."""
    profile = profile or bench_profile()
    epochs = 24 if profile == "fast" else 60
    train_size = 2048 if profile == "fast" else 8192
    defaults = dict(
        algorithm=algorithm,
        num_workers=num_workers,
        model="mlp",
        model_kwargs={"hidden": (96, 48), "batch_norm": True},
        dataset="cifar",
        dataset_kwargs={"train_size": train_size, "test_size": 1024, "side": 8, "noise": 1.2},
        batch_size=64,
        epochs=epochs,
        base_lr=0.075,
        momentum=0.9,
        lr_milestones=(epochs // 2, (3 * epochs) // 4),
        lr_gamma=0.1,
        bn_mode=bn_mode or ("local" if algorithm == "sgd" else "async"),
        lc_lambda=0.7,
        compensation="damping",
        dc_lambda=0.04,
        dc_adaptive=True,
        predictor=_predictors(),
        cluster=_delay_cluster(0.03),
        eval_train_samples=512,
        eval_test_samples=1024,
        seed=seed,
    )
    defaults.update(overrides)
    return TrainingConfig(**defaults)


def imagenet_workload(
    algorithm: str,
    num_workers: int,
    bn_mode: Optional[str] = None,
    seed: int = 7,
    profile: Optional[str] = None,
    **overrides,
) -> TrainingConfig:
    """The ImageNet stand-in workload behind Figures 5-6 and Table 1/3."""
    profile = profile or bench_profile()
    epochs = 18 if profile == "fast" else 48
    train_size = 2700 if profile == "fast" else 10800
    defaults = dict(
        algorithm=algorithm,
        num_workers=num_workers,
        model="mlp",
        model_kwargs={"hidden": (160, 64), "batch_norm": True},
        dataset="imagenet",
        dataset_kwargs={"train_size": train_size, "test_size": 1350, "side": 12, "noise": 1.1},
        batch_size=64,
        epochs=epochs,
        base_lr=0.06,
        momentum=0.9,
        lr_milestones=(epochs // 2, (3 * epochs) // 4),
        lr_gamma=0.1,
        bn_mode=bn_mode or ("local" if algorithm == "sgd" else "async"),
        lc_lambda=0.7,
        compensation="damping",
        dc_lambda=0.04,
        dc_adaptive=True,
        predictor=_predictors(),
        cluster=_delay_cluster(0.18),  # ImageNet batches ~6x heavier (paper Tables 2-3)
        eval_train_samples=512,
        eval_test_samples=1350,
        seed=seed,
    )
    defaults.update(overrides)
    return TrainingConfig(**defaults)


def paper_reference(dataset: str, num_workers: int, algorithm: str) -> Optional[float]:
    """Paper Table 1 test error (%) for a cell, or None if absent."""
    return PAPER_TABLE1.get((dataset, num_workers, algorithm))


def throughput_workload(
    algorithm: str = "asgd",
    num_workers: int = 4,
    seed: int = 7,
    profile: Optional[str] = None,
    **overrides,
) -> TrainingConfig:
    """Small fixed-update workload for the backend throughput benchmark.

    Uses ``max_updates`` (not epochs) so both execution backends process an
    identical number of gradients and updates/sec is directly comparable.
    The cluster delay model is irrelevant to the thread backend's clock, so
    the sim numbers use the same heavy-tailed model as the other benches.
    """
    profile = profile or bench_profile()
    updates = 160 if profile == "fast" else 640
    defaults = dict(
        algorithm=algorithm,
        num_workers=num_workers,
        model="mlp",
        model_kwargs={"hidden": (64,), "batch_norm": True},
        dataset="cifar",
        dataset_kwargs={"train_size": 1024, "test_size": 512, "side": 8, "noise": 1.0},
        batch_size=64,
        epochs=1,
        max_updates=updates,
        base_lr=0.05,
        momentum=0.9,
        lr_milestones=(),
        bn_mode="local" if algorithm == "sgd" else "async",
        predictor=_predictors(),
        cluster=_delay_cluster(0.03),
        eval_train_samples=256,
        eval_test_samples=256,
        seed=seed,
    )
    defaults.update(overrides)
    return TrainingConfig(**defaults)
