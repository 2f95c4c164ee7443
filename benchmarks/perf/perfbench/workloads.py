"""The four benchmark workloads, pinned here field by field.

Nothing is taken from ``repro.bench.workloads``: product PRs may edit
that module, and a benchmark whose inputs move with the code under test
measures nothing.  ``seed`` is the only value that varies between runs;
it becomes ``TrainingConfig.seed``.

One *operation* (= one repeat of the estimator) executes every cell of a
workload once through the public entry point a user would call and
returns a :class:`Sample`.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Sequence

from repro.core.config import ClusterConfig, PredictorConfig, TrainingConfig
from repro.core.metrics import RunResult
from repro.experiments.campaign import Campaign
from repro.experiments.executors import SerialExecutor
from repro.experiments.spec import ExperimentSpec
from repro.experiments.store import ResultStore
from repro.runtime.backends import run_experiment

#: batch 64 over 4096 training samples: one epoch = 64 updates = one
#: 256+256-sample evaluation
UPDATES_PER_EPOCH = 64

#: scratch space for result stores and traces; git-ignored, inside the checkout
OUT_DIR = Path(__file__).resolve().parents[1] / "out"

#: ``--smoke`` divides every update budget by this
SMOKE_DIVISOR = 20


def config(
    algorithm: str, num_workers: int, updates: int, seed: int, **overrides
) -> TrainingConfig:
    """The shared shape: MLP(64)+BN on 8x8 synthetic cifar, batch 64."""
    fields = dict(
        algorithm=algorithm,
        num_workers=num_workers,
        model="mlp",
        model_kwargs={"hidden": (64,), "batch_norm": True},
        dataset="cifar",
        dataset_kwargs={"train_size": 4096, "test_size": 512, "side": 8, "noise": 1.0},
        batch_size=64,
        epochs=1,
        max_updates=updates,
        base_lr=0.05,
        momentum=0.9,
        lr_milestones=(),
        bn_mode="local" if algorithm == "sgd" else "async",
        # small LSTM predictors; the sweep's lc-sim cell overrides with paper scale
        predictor=PredictorConfig(
            loss_hidden=16, step_hidden=16, loss_window=10, step_window=5, train_every=1
        ),
        # the heavy-tailed delay cluster of the paper benches (_delay_cluster(0.03))
        cluster=ClusterConfig(
            mean_batch_time=0.03,
            compute_heterogeneity=0.3,
            compute_jitter=0.25,
            straggler_probability=0.08,
            straggler_slowdown=10.0,
            link_latency=1e-3,
            link_jitter=0.1,
            network_heterogeneity=0.1,
        ),
        eval_train_samples=256,
        eval_test_samples=256,
        seed=seed,
    )
    fields.update(overrides)
    return TrainingConfig(**fields)


@dataclass
class Sample:
    """What one operation produced: outside-measured time + the results."""

    elapsed: float
    results: List[RunResult]

    @property
    def wall(self) -> float:
        return sum(r.wall_time for r in self.results)

    @property
    def updates(self) -> int:
        return sum(r.total_updates for r in self.results)

    @property
    def cells(self) -> int:
        return len(self.results)


def cell_name(spec: ExperimentSpec) -> str:
    """``<algo>_<backend>_m<M>`` — the suffix of ``experiments.cell_s.*``."""
    cfg = spec.config
    return f"{cfg.algorithm}_{spec.backend}_m{cfg.num_workers}"


def _run_single(specs: Sequence[ExperimentSpec], traced: bool) -> Sample:
    (spec,) = specs
    # the proc children are out of reach of in-process wrappers; their
    # compute/encode/wire spans come from the program's own obs stream
    obs = traced and spec.backend == "proc"
    start = time.perf_counter()
    result = run_experiment(spec.config, backend=spec.backend, obs=obs, **spec.backend_options)
    return Sample(time.perf_counter() - start, [result])


def _run_campaign(specs: Sequence[ExperimentSpec], traced: bool) -> Sample:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    root = tempfile.mkdtemp(prefix="store-", dir=OUT_DIR)
    try:
        start = time.perf_counter()
        report = Campaign(list(specs), SerialExecutor(), ResultStore(root)).run()
        elapsed = time.perf_counter() - start
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return Sample(elapsed, report.results)


def _asgd_sim(seed: int, div: int) -> List[ExperimentSpec]:
    return [ExperimentSpec(config("asgd", 4, 1600 // div, seed), "sim")]


def _lc_sim(seed: int, div: int) -> List[ExperimentSpec]:
    return [ExperimentSpec(config("lc-asgd", 4, max(160 // div, 8), seed), "sim")]


def _asgd_proc(seed: int, div: int) -> List[ExperimentSpec]:
    cfg = config("asgd", 1, 600 // div, seed, comm_codec="raw32")
    return [ExperimentSpec(cfg, "proc", {"time_scale": 0.0})]


def _sweep_mixed(seed: int, div: int) -> List[ExperimentSpec]:
    n = 160 // div
    lc = max(40 // div, 4)
    return [
        ExperimentSpec(config("sgd", 1, n, seed), "sim"),
        ExperimentSpec(config("ssgd", 4, n, seed), "sim"),
        ExperimentSpec(config("asgd", 4, n, seed), "sim"),
        ExperimentSpec(config("asgd", 8, n, seed), "sim"),
        ExperimentSpec(config("dc-asgd", 4, n, seed), "sim"),
        ExperimentSpec(config("ad-psgd", 4, n, seed, topology="ring"), "sim"),
        # the paper-scale predictors (hidden 64/128, windows 16/8)
        ExperimentSpec(config("lc-asgd", 4, lc, seed, predictor=PredictorConfig()), "sim"),
        ExperimentSpec(config("asgd", 2, n, seed), "thread"),
        ExperimentSpec(config("lc-asgd", 2, lc, seed), "thread"),
        ExperimentSpec(config("ad-psgd", 2, n, seed, topology="ring"), "gossip", {"mode": "thread"}),
    ]


@dataclass(frozen=True)
class Workload:
    """A named set of cells plus the entry point that executes them."""

    name: str
    why: str
    #: every repeat of one seed must reproduce bit-identical results
    deterministic: bool
    specs: Callable[[int, int], List[ExperimentSpec]]
    run: Callable[[Sequence[ExperimentSpec], bool], Sample]

    def operation(self, seed: int, smoke: bool = False, traced: bool = False):
        """``(specs, fn)``: the cells and a zero-argument repeat."""
        specs = self.specs(seed, SMOKE_DIVISOR if smoke else 1)
        return specs, lambda: self.run(specs, traced)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "asgd_sim",
            "sim ASGD M=4: worker compute, server apply and the simulator do all the work; "
            "predictors and wire do none, so it is the no-change control for both",
            True, _asgd_sim, _run_single,
        ),
        Workload(
            "lc_sim",
            "sim LC-ASGD M=4, hidden-16 LSTM predictors: ~90% of wall time is the "
            "predictors' tiny recurrent autograd graphs, where ROADMAP item 2 must show",
            True, _lc_sim, _run_single,
        ),
        Workload(
            "asgd_proc",
            "one real child over loopback TCP (M=1, raw32): a strictly serial "
            "pull-compute-encode-socket-decode-apply round trip exposes wire, transport and spawn",
            False, _asgd_proc, _run_single,
        ),
        Workload(
            "sweep_mixed",
            "a 10-cell serial campaign over sim/thread/gossip and every algorithm: many short "
            "cells, so plan build, dataset synthesis, spec hashing and store writes weigh ~40%",
            False, _sweep_mixed, _run_campaign,
        ),
    )
}

#: the sweep's cell names, in campaign order (seed-independent)
SWEEP_CELLS = tuple(cell_name(s) for s in _sweep_mixed(0, 1))
