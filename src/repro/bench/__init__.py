"""Benchmark harness regenerating the paper's tables and figures.

* :mod:`repro.bench.workloads` — the named experiment configurations, one
  per table/figure, scaled to laptop size.
* :mod:`repro.bench.harness` — table formatting and the perf trajectory.
* :mod:`repro.bench.plots` — terminal-friendly ASCII line charts and tables
  so every figure renders in CI logs without matplotlib.
"""

from repro.bench.harness import format_table, record_trajectory
from repro.bench.plots import ascii_plot, ascii_scatter
from repro.bench.workloads import (
    bench_profile,
    cifar_workload,
    imagenet_workload,
    paper_reference,
)

__all__ = [
    "format_table",
    "record_trajectory",
    "ascii_plot",
    "ascii_scatter",
    "cifar_workload",
    "imagenet_workload",
    "bench_profile",
    "paper_reference",
]
