"""Batch normalization with batch-statistics export for Async-BN.

Algorithm 1 (lines 6-7) has each worker record the batch mean/variance of
every BN layer and push them to the parameter server; Formulas 6-7 define
how the server folds them into global running statistics.  To support that,
these layers expose:

* ``last_batch_mean`` / ``last_batch_var`` — the statistics of the most
  recent training-mode forward pass (what the worker ships);
* :func:`collect_bn_stats` / :func:`load_bn_running_stats` — whole-model
  helpers the distributed worker/server use to exchange statistics in BN
  layer order.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.nn.module import Module, Parameter
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor


class _BatchNorm(Module):
    """Shared implementation for 1-D / 2-D batch normalization."""

    _expected_ndim: int = 2

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1) -> None:
        super().__init__()
        if num_features <= 0:
            raise ValueError("num_features must be positive")
        if not 0.0 < momentum <= 1.0:
            raise ValueError("momentum must be in (0, 1]")
        self.num_features = num_features
        self.eps = float(eps)
        self.momentum = float(momentum)
        self.gamma = Parameter(np.ones(num_features, dtype=np.float32))
        self.beta = Parameter(np.zeros(num_features, dtype=np.float32))
        self.register_buffer("running_mean", np.zeros(num_features, dtype=np.float64))
        self.register_buffer("running_var", np.ones(num_features, dtype=np.float64))
        # Most recent training-batch statistics (worker -> server payload).
        self.last_batch_mean: Optional[np.ndarray] = None
        self.last_batch_var: Optional[np.ndarray] = None
        # When True the layer skips its own EMA update; the distributed
        # trainer owns the running statistics instead (BN / Async-BN modes).
        self.external_stats: bool = False

    def forward(self, x: Tensor) -> Tensor:
        if x.data.ndim != self._expected_ndim:
            raise ValueError(
                f"{type(self).__name__} expects {self._expected_ndim}-D input, got shape {x.shape}"
            )
        out, mean, var = F.batch_norm(
            x,
            self.gamma,
            self.beta,
            running_mean=self.running_mean,
            running_var=self.running_var,
            training=self.training,
            eps=self.eps,
        )
        if self.training:
            self.record_batch_stats(mean, var)
        return out

    def record_batch_stats(self, mean: np.ndarray, var: np.ndarray) -> None:
        """Keep a training batch's statistics; fold them into the EMA unless external."""
        self.last_batch_mean = mean
        self.last_batch_var = var
        if not self.external_stats:
            m = self.momentum
            self.set_buffer("running_mean", (1 - m) * self.running_mean + m * mean)
            self.set_buffer("running_var", (1 - m) * self.running_var + m * var)

    def extra_repr(self) -> str:
        return f"features={self.num_features}, eps={self.eps}, momentum={self.momentum}"


class BatchNorm1d(_BatchNorm):
    """Batch normalization over (N, C) activations."""

    _expected_ndim = 2


class BatchNorm2d(_BatchNorm):
    """Batch normalization over (N, C, H, W) activations."""

    _expected_ndim = 4


def bn_layers(module: Module) -> List[_BatchNorm]:
    """All BN layers of a model in deterministic traversal order."""
    return [m for m in module.modules() if isinstance(m, _BatchNorm)]


def count_bn_layers(module: Module) -> int:
    """Number of BN layers in the model (the paper's ``Z``)."""
    return len(bn_layers(module))


def collect_bn_stats(module: Module) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Collect ``(batch_mean, batch_var)`` from each BN layer, in order.

    Layers that have not yet seen a training batch report their running
    statistics instead, so the payload shape is always consistent.
    """
    stats: List[Tuple[np.ndarray, np.ndarray]] = []
    for layer in bn_layers(module):
        if layer.last_batch_mean is not None:
            stats.append((layer.last_batch_mean.copy(), layer.last_batch_var.copy()))
        else:
            stats.append((layer.running_mean.copy(), layer.running_var.copy()))
    return stats


def running_bn_stats(module: Module) -> Tuple[Tuple[np.ndarray, np.ndarray], ...]:
    """Copies of each BN layer's ``(running_mean, running_var)``, in order."""
    return tuple(
        (layer.running_mean.copy(), layer.running_var.copy()) for layer in bn_layers(module)
    )


def load_bn_running_stats(module: Module, stats: List[Tuple[np.ndarray, np.ndarray]]) -> None:
    """Write per-layer ``(mean, var)`` into the running-stat buffers, in order."""
    layers = bn_layers(module)
    if len(layers) != len(stats):
        raise ValueError(f"model has {len(layers)} BN layers, payload has {len(stats)}")
    for layer, (mean, var) in zip(layers, stats):
        mean = np.asarray(mean, dtype=np.float64)
        var = np.asarray(var, dtype=np.float64)
        if mean.shape != (layer.num_features,) or var.shape != (layer.num_features,):
            raise ValueError("BN statistic shape mismatch")
        layer.set_buffer("running_mean", mean.copy())
        layer.set_buffer("running_var", np.maximum(var, 0.0).copy())


def set_bn_external(module: Module, external: bool = True) -> None:
    """Mark every BN layer's running stats as externally managed."""
    for layer in bn_layers(module):
        layer.external_stats = external
