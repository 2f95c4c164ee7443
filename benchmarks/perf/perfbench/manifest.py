"""Metric names, units, directions and bounds — what the harness may print.

``BENCHMARK.json`` at the repo root is the contract; this module is the
harness's copy of it, and ``tests/test_perfbench_manifest.py`` fails when
the two disagree in either direction.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Tuple

from perfbench import layer_ops
from perfbench.spans import TARGETS
from perfbench.workloads import SWEEP_CELLS, WORKLOADS

REPO_ROOT = Path(__file__).resolve().parents[3]
BENCHMARK_JSON = REPO_ROOT / "BENCHMARK.json"

#: (name, unit, better, bound): bound = share of the parent's median by
#: which the metric may worsen before it counts as a regression.  Each was
#: confirmed by the A/A sets recorded in README.md.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("updates_per_s", "1/s", "higher", 0.10),
    ("cells_per_s", "1/s", "higher", 0.10),
    ("setup_s", "s", "lower", 0.10),
)

#: the proc child's phases, from the program's own obs stream
CHILD_PHASES = ("compute", "encode", "wire")

#: counts and program-reported values of the reference repeat
COUNTS: Tuple[Tuple[str, str, str], ...] = (
    ("runtime.comm.wire_bytes_per_update", "B", "lower"),
    ("runtime.comm.messages_per_update", "count", "lower"),
    ("core.staleness_mean", "count", "lower"),
    ("core.final_train_loss", "loss", "lower"),
    ("core.final_test_error", "ratio", "lower"),
    ("core.timers.loss_pred_ms", "ms", "lower"),
    ("core.timers.step_pred_ms", "ms", "lower"),
    ("core.timers.worker_compute_ms", "ms", "lower"),
    ("core.predictor_overhead_pct", "%", "lower"),
    ("cpu_s_per_kupdate", "s", "lower"),
    # demoted from end-to-end: between seeds it spreads 2-3% on the sim
    # workloads but 5-9% on the sweep, which no bound <= 10% holds
    ("peak_rss_mb", "MiB", "lower"),
)

TRACE_META: Tuple[Tuple[str, str, str], ...] = (
    ("trace.overhead_pct", "%", "lower"),
    ("trace.unattributed_pct", "%", "lower"),
    ("trace.span_count", "count", "lower"),
)


def per_layer() -> List[Tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``, in print order."""
    rows: List[Tuple[str, str, str]] = []
    for span in TARGETS:
        rows.append((f"{span}.calls", "count", "lower"))
        rows.append((f"{span}.self_us_per_update", "us", "lower"))
    for phase in CHILD_PHASES:
        rows.append((f"runtime.proc_worker.{phase}.self_us_per_update", "us", "lower"))
    rows.extend(TRACE_META)
    for name in layer_ops.NAMES:
        rows.append((name, name.rsplit("_", 1)[1], "lower"))
    rows.extend(COUNTS)
    for cell in SWEEP_CELLS:
        rows.append((f"experiments.cell_s.{cell}", "s", "lower"))
    return rows


def units() -> Dict[str, str]:
    """``metric name -> unit`` over both tiers."""
    table = {name: unit for name, unit, _, _ in END_TO_END}
    table.update({name: unit for name, unit, _ in per_layer()})
    return table


def bounds() -> Dict[str, float]:
    return {name: bound for name, _, _, bound in END_TO_END}


def directions() -> Dict[str, str]:
    table = {name: better for name, _, better, _ in END_TO_END}
    table.update({name: better for name, _, better in per_layer()})
    return table


def build(run_seconds: int) -> Dict:
    """The ``BENCHMARK.json`` document this harness implements."""
    return {
        "command": ["python3", "benchmarks/perf/run.py"],
        "paths": ["benchmarks/perf"],
        "run_seconds": run_seconds,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in per_layer()],
    }


def load() -> Dict:
    """The committed ``BENCHMARK.json``."""
    with open(BENCHMARK_JSON) as fh:
        return json.load(fh)
