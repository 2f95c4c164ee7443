"""Experiment configuration.

A single :class:`TrainingConfig` fully determines a run: algorithm, model,
dataset, cluster timing model, predictor hyper-parameters and seed.  The
named constructors encode the paper's settings (scaled to laptop size where
noted) so benches and examples stay declarative.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import Any, Dict, Optional, Sequence, Tuple

ALGORITHMS = ("sgd", "ssgd", "asgd", "dc-asgd", "lc-asgd", "sa-asgd", "ad-psgd")
BN_MODES = ("local", "replace", "async")
COMPENSATION_MODES = ("scale", "sensitivity", "damping")
TOPOLOGIES = ("ring", "bipartite", "complete")
COMM_CODECS = ("raw32", "fp16", "topk")


@dataclass
class PredictorConfig:
    """Hyper-parameters for the two server-side predictors.

    Paper values: loss hidden 64, step hidden 128 (Section 5.1).  The
    defaults here are the paper's; benches shrink them for CPU speed —
    the overhead tables report whatever is configured.
    """

    loss_variant: str = "lstm"  # lstm | ema | last | linear
    step_variant: str = "lstm"  # lstm | ema | last
    loss_hidden: int = 64
    step_hidden: int = 128
    loss_window: int = 16
    step_window: int = 8
    lr: float = 0.05
    momentum: float = 0.9
    train_every: int = 1

    def __post_init__(self) -> None:
        if self.loss_variant not in ("lstm", "ema", "last", "linear"):
            raise ValueError(f"unknown loss_variant {self.loss_variant!r}")
        if self.step_variant not in ("lstm", "ema", "last"):
            raise ValueError(f"unknown step_variant {self.step_variant!r}")
        if min(self.loss_hidden, self.step_hidden) <= 0:
            raise ValueError("predictor hidden sizes must be positive")
        if self.train_every < 1:
            raise ValueError("train_every must be >= 1")


@dataclass
class ClusterConfig:
    """Virtual-cluster timing model (see repro.cluster).

    ``mean_batch_time`` is the average seconds one worker spends on one
    batch (forward+backward); communication uses latency + size/bandwidth.
    Defaults approximate a commodity GPU cluster: ~30 ms batches, ~1 ms
    one-way latency, 1 GB/s links.
    """

    mean_batch_time: float = 0.03
    compute_heterogeneity: float = 0.15
    compute_jitter: float = 0.05
    straggler_probability: float = 0.0
    straggler_slowdown: float = 4.0
    link_latency: float = 1e-3
    link_bandwidth: float = 1e9
    link_jitter: float = 0.1
    network_heterogeneity: float = 0.1

    def __post_init__(self) -> None:
        if self.mean_batch_time <= 0:
            raise ValueError("mean_batch_time must be positive")
        if not 0 <= self.straggler_probability <= 1:
            raise ValueError("straggler_probability must be in [0, 1]")


@dataclass
class TrainingConfig:
    """Complete specification of one distributed-training run."""

    # algorithm
    algorithm: str = "lc-asgd"
    num_workers: int = 4
    bn_mode: str = "async"  # local | replace | async
    bn_decay: float = 0.2  # the d of Formulas 6-7

    # optimization (paper defaults: lr 0.3, /10 at 80 and 120 of 160 epochs)
    base_lr: float = 0.3
    momentum: float = 0.0
    weight_decay: float = 0.0
    lr_milestones: Tuple[int, ...] = (80, 120)
    lr_gamma: float = 0.1
    batch_size: int = 128
    epochs: int = 160
    max_updates: Optional[int] = None  # hard cap overriding epochs (tests)

    # LC-ASGD specifics
    lc_lambda: float = 0.5  # the lambda of Formula 5
    compensation: str = "damping"  # scale | sensitivity | damping (core.algorithms.lcasgd)
    predictor: PredictorConfig = field(default_factory=PredictorConfig)

    # DC-ASGD specifics
    dc_lambda: float = 0.04
    dc_adaptive: bool = True

    # AD-PSGD specifics: the peer graph decentralized runs gossip over.
    # Ignored by the server-based algorithms (kept in the spec hash anyway:
    # one canonical serialization for every algorithm).
    topology: str = "ring"

    # Gradient codec applied on the wire (repro.runtime.codecs): raw32 keeps
    # the float32 framing, fp16 halves every array, topk ships the top 10%
    # of gradient coordinates with error feedback.  Honored by the backends
    # that move bytes (thread/proc/fleet); the pure simulator ignores it
    # (kept in the spec hash anyway, like ``topology``).
    comm_codec: str = "raw32"

    # model / dataset
    model: str = "mlp"  # any name in repro.nn.registry (mlp, resnet18, ...)
    model_kwargs: Dict = field(default_factory=dict)
    dataset: str = "cifar"  # any name in repro.data.registry (cifar, imagenet, spirals)
    dataset_kwargs: Dict = field(default_factory=dict)

    # cluster
    cluster: ClusterConfig = field(default_factory=ClusterConfig)

    # evaluation
    eval_train_samples: int = 512
    eval_test_samples: int = 1024
    eval_every_epochs: int = 1

    seed: int = 0

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}")
        if self.bn_mode not in BN_MODES:
            raise ValueError(f"bn_mode must be one of {BN_MODES}, got {self.bn_mode!r}")
        if self.compensation not in COMPENSATION_MODES:
            raise ValueError(
                f"compensation must be one of {COMPENSATION_MODES}, got {self.compensation!r}"
            )
        if self.topology not in TOPOLOGIES:
            raise ValueError(f"topology must be one of {TOPOLOGIES}, got {self.topology!r}")
        if self.comm_codec not in COMM_CODECS:
            raise ValueError(
                f"comm_codec must be one of {COMM_CODECS}, got {self.comm_codec!r}"
            )
        if self.algorithm == "sgd":
            # sequential SGD runs with exactly one worker.  Normalizing here
            # (rather than raising) is what lets sweep grids include "sgd"
            # alongside multi-worker counts — every caller used to repeat
            # ``num_workers=1 if algorithm == "sgd" else n`` by hand.
            self.num_workers = 1
        if self.num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch_size and epochs must be >= 1")
        if not 0 < self.bn_decay <= 1:
            raise ValueError("bn_decay must be in (0, 1]")
        if self.lc_lambda < 0:
            raise ValueError("lc_lambda must be >= 0")

    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready nested dict: dataclasses recurse, tuples become lists.

        One serialization serves ``repro info``, the experiment-spec hash
        and the result store, so it must stay deterministic: field order is
        declaration order and every value is a JSON scalar/list/dict.  The
        document is ``dataclasses.asdict`` with tuples turned into lists,
        built in one walk; it shares no mutable object with the config.
        """
        return _document(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "TrainingConfig":
        """Rebuild a config from a :meth:`to_dict` document.

        This is how a config crosses process boundaries (the proc backend
        hands each worker child its config as JSON) and how stored specs
        are rehydrated: nested dataclasses are rebuilt and ``lr_milestones``
        becomes a tuple again, so ``from_dict(d).to_dict() == d`` and a
        rebuilt config hashes to the same spec key.  ``from_dict(c.to_dict())
        == c`` does not hold in general: tuples inside the free-form
        ``model_kwargs`` and ``dataset_kwargs`` come back as lists.  Unknown
        keys raise — a silently-dropped field would let two processes
        disagree about the experiment they are running.
        """
        data = dict(payload)
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown TrainingConfig field(s): {', '.join(unknown)}")
        if isinstance(data.get("predictor"), dict):
            data["predictor"] = PredictorConfig(**data["predictor"])
        if isinstance(data.get("cluster"), dict):
            data["cluster"] = ClusterConfig(**data["cluster"])
        if "lr_milestones" in data and data["lr_milestones"] is not None:
            data["lr_milestones"] = tuple(data["lr_milestones"])
        return cls(**data)

    # ------------------------------------------------------------------ #
    # named experiment presets
    # ------------------------------------------------------------------ #
    @classmethod
    def small_cifar(cls, algorithm: str = "lc-asgd", num_workers: int = 4, **overrides) -> "TrainingConfig":
        """Laptop-scale CIFAR-10 stand-in: MLP+BN on 8x8 synthetic images.

        This is the workhorse configuration of the benches: same
        loss/staleness dynamics, minutes not days.
        """
        defaults = dict(
            algorithm=algorithm,
            num_workers=num_workers,
            model="mlp",
            model_kwargs={"hidden": (96, 48), "batch_norm": True},
            dataset="cifar",
            dataset_kwargs={"train_size": 2048, "test_size": 1024, "side": 8, "noise": 1.2},
            batch_size=64,
            epochs=24,
            base_lr=0.075,
            momentum=0.9,
            lr_milestones=(12, 18),
            bn_mode="local" if algorithm == "sgd" else "async",
            lc_lambda=0.7,
            compensation="damping",
            predictor=PredictorConfig(loss_hidden=16, step_hidden=16, loss_window=10, step_window=5),
            cluster=ClusterConfig(
                compute_heterogeneity=0.3,
                compute_jitter=0.25,
                straggler_probability=0.08,
                straggler_slowdown=10.0,
            ),
            eval_train_samples=512,
            eval_test_samples=1024,
        )
        defaults.update(overrides)
        return cls(**defaults)

    @classmethod
    def small_imagenet(cls, algorithm: str = "lc-asgd", num_workers: int = 4, **overrides) -> "TrainingConfig":
        """Laptop-scale ImageNet stand-in: 27 classes, 12x12 images."""
        defaults = dict(
            algorithm=algorithm,
            num_workers=num_workers,
            model="mlp",
            model_kwargs={"hidden": (160, 64), "batch_norm": True},
            dataset="imagenet",
            dataset_kwargs={"train_size": 2700, "test_size": 1350, "side": 12, "noise": 1.1},
            batch_size=64,
            epochs=18,
            base_lr=0.06,
            momentum=0.9,
            lr_milestones=(9, 14),
            bn_mode="local" if algorithm == "sgd" else "async",
            lc_lambda=0.7,
            compensation="damping",
            predictor=PredictorConfig(loss_hidden=16, step_hidden=16, loss_window=10, step_window=5),
            cluster=ClusterConfig(
                mean_batch_time=0.18,  # ImageNet batches ~6x CIFAR (paper Tables 2-3)
                compute_heterogeneity=0.3,
                compute_jitter=0.25,
                straggler_probability=0.08,
                straggler_slowdown=10.0,
            ),
            eval_train_samples=512,
            eval_test_samples=1350,
        )
        defaults.update(overrides)
        return cls(**defaults)

    @classmethod
    def paper_cifar10(cls, algorithm: str = "lc-asgd", num_workers: int = 4, **overrides) -> "TrainingConfig":
        """The paper's CIFAR-10 setting: ResNet-18, 160 epochs, lr 0.3/{80,120}.

        Heavy in pure NumPy — provided for completeness and long runs.
        """
        defaults = dict(
            algorithm=algorithm,
            num_workers=num_workers,
            model="resnet18",
            model_kwargs={"base_width": 16},
            dataset="cifar",
            dataset_kwargs={"train_size": 8192, "test_size": 2048, "side": 16, "noise": 0.6},
            batch_size=128,
            epochs=160,
            base_lr=0.3,
            lr_milestones=(80, 120),
            bn_mode="local" if algorithm == "sgd" else "async",
        )
        defaults.update(overrides)
        return cls(**defaults)

    @classmethod
    def paper_imagenet(cls, algorithm: str = "lc-asgd", num_workers: int = 4, **overrides) -> "TrainingConfig":
        """The paper's ImageNet setting: ResNet-50, 120 epochs, /10 at {60,90}."""
        defaults = dict(
            algorithm=algorithm,
            num_workers=num_workers,
            model="resnet50",
            model_kwargs={"base_width": 16},
            dataset="imagenet",
            dataset_kwargs={"train_size": 16384, "test_size": 4096, "side": 16, "noise": 0.7},
            batch_size=128,
            epochs=120,
            base_lr=0.3,
            lr_milestones=(60, 90),
            bn_mode="local" if algorithm == "sgd" else "async",
            cluster=ClusterConfig(mean_batch_time=0.18),
        )
        defaults.update(overrides)
        return cls(**defaults)

    @classmethod
    def tiny(cls, algorithm: str = "asgd", num_workers: int = 2, **overrides) -> "TrainingConfig":
        """Seconds-scale config for unit/integration tests."""
        defaults = dict(
            algorithm=algorithm,
            num_workers=num_workers,
            model="mlp",
            model_kwargs={"hidden": (32,), "batch_norm": True},
            dataset="cifar",
            dataset_kwargs={"train_size": 256, "test_size": 128, "side": 6, "noise": 0.5},
            batch_size=32,
            epochs=3,
            base_lr=0.1,
            lr_milestones=(),
            bn_mode="local" if algorithm == "sgd" else "async",
            predictor=PredictorConfig(loss_hidden=8, step_hidden=8, loss_window=6, step_window=4),
            eval_train_samples=128,
            eval_test_samples=128,
        )
        defaults.update(overrides)
        return cls(**defaults)

    @classmethod
    def spirals(cls, algorithm: str = "lc-asgd", num_workers: int = 4, **overrides) -> "TrainingConfig":
        """Seconds-scale 2-D spirals scenario: the non-image workload.

        Exercises the same staleness dynamics on a dataset with no channel
        structure — useful for sweeps that vary cluster timing rather than
        model capacity.
        """
        defaults = dict(
            algorithm=algorithm,
            num_workers=num_workers,
            model="mlp",
            model_kwargs={"hidden": (32, 16), "batch_norm": True},
            dataset="spirals",
            dataset_kwargs={"num_samples": 900, "noise": 0.25},
            batch_size=32,
            epochs=6,
            base_lr=0.1,
            momentum=0.9,
            lr_milestones=(4,),
            bn_mode="local" if algorithm == "sgd" else "async",
            predictor=PredictorConfig(loss_hidden=8, step_hidden=8, loss_window=6, step_window=4),
            eval_train_samples=256,
            eval_test_samples=180,
        )
        defaults.update(overrides)
        return cls(**defaults)

    def with_overrides(self, **overrides) -> "TrainingConfig":
        """Return a copy with fields replaced."""
        return replace(self, **overrides)


#: values a config document holds as they are
_SCALARS = (str, int, float, bool, type(None))


def _document(value: Any) -> Any:
    """``dataclasses.asdict`` of ``value`` with every tuple as a list."""
    if isinstance(value, _SCALARS):
        return value
    if isinstance(value, dict):
        return {k: _document(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_document(v) for v in value]
    if is_dataclass(value):
        return {f.name: _document(getattr(value, f.name)) for f in fields(value)}
    return copy.deepcopy(value)
