"""Shared run cache for the benchmark suite.

Several paper artifacts are different views of the same runs (Figure 3 and
Figure 4 are the same training jobs plotted against epochs vs wall-clock;
Figures 7-8 read the predictor traces of the Table-1 LC-ASGD runs).  To keep
the suite's wall time sane, each underlying grid is executed once per pytest
session and memoized; the first bench that needs it pays the cost.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

import pytest

from repro.bench.workloads import cifar_workload, imagenet_workload
from repro.core.metrics import RunResult
from repro.core.trainer import DistributedTrainer

_CACHE: Dict[str, object] = {}

CIFAR_ALGOS = ("sgd", "ssgd", "asgd", "dc-asgd", "lc-asgd")
IMAGENET_ALGOS = ("ssgd", "asgd", "dc-asgd", "lc-asgd")  # paper Fig. 5 omits SGD
WORKER_COUNTS = (4, 8, 16)
#: Tables 2-3: bound on lc-asgd's loss + step predictor milliseconds per
#: update, 2x the worst cell the CIFAR grid measured once the predictors ran on
#: the fused ``SeriesLSTM`` kernel: 1.11 / 1.31 / 1.26 ms at M = 4 / 8 / 16
#: (hidden 16, one BLAS thread; 11.5 ms at M = 4 on the autograd LSTM before).
#: These are ~1 ms of NumPy calls on a shared CPU, so the full 2x is kept.  The
#: paper's 1.28 + 1.37 ms is at hidden 64/128 on a GPU and is printed, not asserted.
PREDICTOR_BUDGET_MS = 2.6


def cached(key: str, factory: Callable[[], object]):
    """Memoize ``factory()`` under ``key`` for the whole bench session."""
    if key not in _CACHE:
        _CACHE[key] = factory()
    return _CACHE[key]


def _run(config) -> RunResult:
    return DistributedTrainer(config).run()


def cifar_curves() -> Dict[Tuple[str, int], RunResult]:
    """All CIFAR runs behind Figures 2-4 and the CIFAR half of Table 1."""

    def build():
        out: Dict[Tuple[str, int], RunResult] = {}
        out[("sgd", 1)] = _run(cifar_workload("sgd", 1))
        for algo in CIFAR_ALGOS[1:]:
            for m in WORKER_COUNTS:
                out[(algo, m)] = _run(cifar_workload(algo, m))
        return out

    return cached("cifar-curves", build)


def imagenet_curves() -> Dict[Tuple[str, int], RunResult]:
    """All ImageNet runs behind Figures 5-8 and the ImageNet half of Table 1."""

    def build():
        out: Dict[Tuple[str, int], RunResult] = {}
        for algo in IMAGENET_ALGOS:
            for m in WORKER_COUNTS:
                out[(algo, m)] = _run(imagenet_workload(algo, m))
        return out

    return cached("imagenet-curves", build)


@pytest.fixture(scope="session")
def cifar_grid():
    return cifar_curves()


@pytest.fixture(scope="session")
def imagenet_grid():
    return imagenet_curves()
