"""Shared run cache for the benchmark suite.

Several paper artifacts are different views of the same runs (Figure 3 and
Figure 4 are the same training jobs plotted against epochs vs wall-clock;
Figures 7-8 read the predictor traces of the Table-1 LC-ASGD runs).  To keep
the suite's wall time sane, each underlying grid is executed once per pytest
session and memoized; the first bench that needs it pays the cost.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, Tuple

import numpy as np
import pytest

from repro.bench.workloads import cifar_workload, imagenet_workload
from repro.core.config import PredictorConfig, TrainingConfig
from repro.core.metrics import RunResult
from repro.core.state import GradientPayload
from repro.core.trainer import DistributedTrainer
from repro.runtime import ExperimentPlan

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
#: Tables 2-3 at the paper's predictor width (``PredictorConfig()``: hidden
#: 64/128, windows 16/8) on a short lc-asgd run at M = 16: bound on the same
#: two timers.  The paper's own cost there is 1.30 + 1.48 ms (CIFAR) and
#: 1.33 + 1.50 ms (ImageNet) on a GPU.  On a shared 2-core host this CPU
#: kernel read 2.44–3.67 ms (median 2.81) over 16 such runs before its
#: per-step views were built once, and 2.25–3.02 ms (median 2.46) after: the
#: host's own spread is most of the headroom left under this bound.  Stacking
#: the loss predictor's three same-weight windows into one pass took the CIFAR
#: row from a median of 3.46 ms (2.64–4.62) to 3.21 ms (2.64–3.80) over 16
#: alternating runs per side, and the ImageNet row from 3.58 (2.76–4.29) to
#: 2.80 ms (2.35–3.49) over 10, on a slower and noisier 2-core host than the
#: figures above: there the median sits above this bound on both sides.
PAPER_WIDTH_BUDGET_MS = 3.0
PAPER_WIDTH_UPDATES = 320
#: Tables 2-3: dc-asgd's server cost per update is the median of this many
#: timed ``ParameterServer.handle_gradient`` calls
DC_ASGD_CALLS = 256


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


def paper_width_run(workload: Callable[..., TrainingConfig]) -> RunResult:
    """A short lc-asgd run at M = 16 with the paper's predictor sizes."""
    config = workload(
        "lc-asgd", 16, predictor=PredictorConfig(), max_updates=PAPER_WIDTH_UPDATES
    )
    return cached(f"paper-width-{config.dataset}", lambda: _run(config))


def dc_asgd_server_ms(workload: Callable[..., TrainingConfig], workers: int = 16) -> float:
    """Median ms of one dc-asgd ``ParameterServer.handle_gradient`` on ``workload``.

    Zheng et al.'s compensation is one element-wise expression over the
    parameters, the floor for a cheap server-side compensation, so Tables
    2-3 print it beside lc-asgd's predictor cost.  The workers push in
    turn, each after its own pull (untimed), so every timed call
    compensates a gradient against a backup, as in a run.
    """
    server = ExperimentPlan.from_config(workload("dc-asgd", workers), build_workers=False).server
    grads = np.random.default_rng(0).standard_normal((workers, server.params.size)) * 1e-3
    for worker in range(workers):
        server.handle_pull(worker)
    times = []
    for call in range(DC_ASGD_CALLS):
        worker = call % workers
        payload = GradientPayload(worker, grads[worker], server.pull_versions[worker])
        start = time.perf_counter()
        server.handle_gradient(payload)
        times.append(time.perf_counter() - start)
        server.handle_pull(worker)
    return 1e3 * statistics.median(times)


def overhead_row(label, run: RunResult, total_ms: float, ref: Dict[str, float]) -> list:
    """One Table 2/3 row: measured predictor ms and overhead beside the paper's."""
    loss_ms, step_ms = run.timers["loss_pred_ms"], run.timers["step_pred_ms"]
    return [
        label,
        f"{loss_ms:.2f}", f"{ref['loss_pred_ms']:.2f}",
        f"{step_ms:.2f}", f"{ref['step_pred_ms']:.2f}",
        f"{loss_ms + step_ms:.2f}", f"{ref['loss_pred_ms'] + ref['step_pred_ms']:.2f}",
        f"{total_ms:.1f}", f"{ref['total_ms']:.1f}",
        f"{100 * (loss_ms + step_ms) / total_ms:.1f}%", f"{ref['overhead_pct']:.1f}%",
    ]


@pytest.fixture(scope="session")
def cifar_grid():
    return cifar_curves()


@pytest.fixture(scope="session")
def imagenet_grid():
    return imagenet_curves()
