#!/usr/bin/env python3
"""The repo's performance benchmark: one command, every metric by name.

    python3 benchmarks/perf/run.py --workload lc_sim [--seed 7] [--seconds 24] [--json PATH]
    python3 benchmarks/perf/run.py --workload lc_sim --trace 1      # per-layer metrics
    python3 benchmarks/perf/run.py --all --json out/set.json        # all four, then the traced runs
    python3 benchmarks/perf/run.py compare A.json B.json

The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; everything above it is
for people.  See README.md beside this file for the estimator, the
workloads and the layer -> end-to-end map.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# One BLAS thread, set before numpy loads (and inherited by proc children).
# OpenBLAS otherwise spins nproc threads on 64x64 matmuls: slower, and the
# largest source of run-to-run noise on a 2-core host (README, "Pinned").
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
# this checkout's sources first: the benchmark measures the tree it sits in
# (``perfbench`` itself resolves through the script's own directory)
sys.path.insert(0, str(HERE.parents[1] / "src"))

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

from perfbench import calibration, layer_ops, manifest, report  # noqa: E402
from perfbench.estimator import REPEAT_TIMEOUT_S, check_sample, hard_timeout, run_repeats  # noqa: E402
from perfbench.spans import Tracer, covered_seconds, self_times  # noqa: E402
from perfbench.workloads import OUT_DIR, SWEEP_CELLS, WORKLOADS, Sample  # noqa: E402

#: the paper's Table 2 (CIFAR-10, 4 workers): predictor time / worker compute
PAPER_OVERHEAD_PCT = 8.22
#: ``--smoke`` repeats
SMOKE_REPEATS = 2


def _cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    """``ru_maxrss`` (KiB on Linux) of this process plus its largest child."""
    return sum(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


# ---------------------------------------------------------------------- #
# --trace 0: the end-to-end metrics
# ---------------------------------------------------------------------- #
def _prepare(name: str, seed: int, smoke: bool, traced: bool = False):
    """``(operation, check)`` of one workload: a repeat and its correctness check."""
    specs, operation = WORKLOADS[name].operation(seed, smoke=smoke, traced=traced)
    budgets = [spec.config.max_updates for spec in specs]
    return operation, lambda sample: check_sample(sample, budgets, learning=not smoke)


def measure_end_to_end(name: str, seed: int, seconds: float, smoke: bool) -> Dict:
    operation, check = _prepare(name, seed, smoke)
    stats = run_repeats(
        operation,
        check,
        seconds,
        deterministic=WORKLOADS[name].deterministic,
        repeats=SMOKE_REPEATS if smoke else None,
        calibrate=None if smoke else calibration.kernel,
    )

    def summarize(series):
        return {key: report.summarize(values) for key, values in series.items() if values}

    return {
        "workload": name,
        "seed": seed,
        "trace": 0,
        "ops_attempted": stats.attempted,
        "ops_failed": stats.failed,
        "failures": stats.failures,
        "repeats": stats.repeats,
        "reconciliation_error": stats.reconciliation_error() if stats.repeats else None,
        "metrics": summarize(stats.series()),
        # as the clock read them, before scaling to reference host speed
        "raw_metrics": summarize(stats.series(normalize=False)),
        "host_factor": summarize({"host_factor": [r["host_factor"] for r in stats.repeats]}),
    }


# ---------------------------------------------------------------------- #
# --trace 1: the per-layer metrics
# ---------------------------------------------------------------------- #
def _weighted(sample: Sample, value) -> float:
    """Updates-weighted mean of ``value(result)`` over a sample's cells."""
    return sum(value(r) * r.total_updates for r in sample.results) / max(sample.updates, 1)


def _counts(sample: Sample, cpu_seconds: float, peak_rss_mb: float) -> Dict[str, float]:
    """Section (c): counts and program-reported values of one untraced repeat."""
    updates = max(sample.updates, 1)
    loss_ms = _weighted(sample, lambda r: r.timers.get("loss_pred_ms", 0.0))
    step_ms = _weighted(sample, lambda r: r.timers.get("step_pred_ms", 0.0))
    compute_ms = _weighted(sample, lambda r: r.timers.get("worker_compute_ms", 0.0))
    return {
        "runtime.comm.wire_bytes_per_update": sum(r.comm.get("wire_bytes", 0.0) for r in sample.results) / updates,
        "runtime.comm.messages_per_update": sum(r.comm.get("messages", 0.0) for r in sample.results) / updates,
        "core.staleness_mean": _weighted(sample, lambda r: r.staleness.get("mean", 0.0)),
        "core.final_train_loss": _weighted(sample, lambda r: r.curve[-1].train_loss),
        "core.final_test_error": _weighted(sample, lambda r: r.curve[-1].test_error),
        "core.timers.loss_pred_ms": loss_ms,
        "core.timers.step_pred_ms": step_ms,
        "core.timers.worker_compute_ms": compute_ms,
        # proc children keep their own timers: no worker compute reaches the parent
        "core.predictor_overhead_pct": 100.0 * (loss_ms + step_ms) / compute_ms if compute_ms else 0.0,
        "cpu_s_per_kupdate": 1000.0 * cpu_seconds / updates,
        "peak_rss_mb": peak_rss_mb,
    }


def measure_layers(name: str, seed: int, smoke: bool) -> Dict:
    operation, check = _prepare(name, seed, smoke)
    with hard_timeout(2 * REPEAT_TIMEOUT_S):
        operation()  # warm-up, discarded
        cpu_before = _cpu_seconds()
        reference = operation()
        cpu_used = _cpu_seconds() - cpu_before
        peak_rss = _peak_rss_mb()  # before the tracer's own spans inflate it
    failures = check(reference)

    tracer = Tracer()
    traced_operation, _ = _prepare(name, seed, smoke, traced=True)
    tracer.install()
    try:
        with hard_timeout(REPEAT_TIMEOUT_S):
            start = time.perf_counter()
            traced = traced_operation()
            end = time.perf_counter()
    finally:
        tracer.uninstall()
    traced_failures = check(traced)
    tracer.dump_jsonl(OUT_DIR / f"trace-{name}.jsonl")

    values: Dict[str, float] = {metric: 0.0 for metric, _, _ in manifest.per_layer()}
    updates = max(traced.updates, 1)
    for span, (calls, seconds) in self_times(tracer.spans).items():
        values[f"{span}.calls"] = calls
        values[f"{span}.self_us_per_update"] = 1e6 * seconds / updates
    for result in traced.results:
        for phase in manifest.CHILD_PHASES:
            spent_ms = result.obs.get("spans_ms", {}).get(phase, 0.0)
            values[f"runtime.proc_worker.{phase}.self_us_per_update"] += 1e3 * spent_ms / updates
    values["trace.overhead_pct"] = 100.0 * (traced.elapsed - reference.elapsed) / reference.elapsed
    values["trace.unattributed_pct"] = 100.0 * (
        1.0 - covered_seconds(tracer.spans, start, end) / (end - start)
    )
    values["trace.span_count"] = len(tracer.spans)
    values.update(_counts(reference, cpu_used, peak_rss))
    if name == "sweep_mixed":
        cells = [s for s in tracer.spans if s.name == "experiments.executors.execute_spec"]
        for cell, span in zip(SWEEP_CELLS, sorted(cells, key=lambda s: s.start)):
            values[f"experiments.cell_s.{cell}"] = span.end - span.start
    values.update(layer_ops.measure(seed, *((2, 0.001) if smoke else ())))  # smoke: 2 batches of ~1 ms

    return {
        "workload": name,
        "seed": seed,
        "trace": 1,
        "ops_attempted": 2,
        "ops_failed": bool(failures) + bool(traced_failures),
        "failures": failures + traced_failures,
        "metrics": {metric: report.summarize([value]) for metric, value in values.items()},
    }


# ---------------------------------------------------------------------- #
# output
# ---------------------------------------------------------------------- #
def emit(run: Dict, env: Dict, json_path: Optional[str]) -> int:
    """Print the run for people, then the one-line result for the driver."""
    metrics = run["metrics"]
    if not metrics:
        print("\n".join(run["failures"]), file=sys.stderr)
        print(f"{run['workload']}: no repeat succeeded; nothing to report", file=sys.stderr)
        return 1
    env = dict(env, seed=run["seed"], loadavg_end=list(os.getloadavg()))
    print(f"workload {run['workload']}  seed {run['seed']}  trace {run['trace']}  commit {env['commit']}")
    units = manifest.units()
    for metric, entry in metrics.items():
        print(report.format_metric(metric, entry, units[metric]))
    print(f"  ops_attempted = {run['ops_attempted']}  ops_failed = {run['ops_failed']}")
    for metric, entry in run.get("raw_metrics", {}).items():
        print(report.format_metric(f"raw.{metric}", entry, units[metric]))
    for entry in run.get("host_factor", {}).values():
        print(f"  host factor {entry['median']:.4f} (kernel seconds / reference; the rows above raw.* are scaled by it)")
    error = run.get("reconciliation_error")
    if error is not None:
        print(
            f"  self-check 1/cells_per_s = setup_s + updates-per-cell/updates_per_s: "
            f"off by {100 * error:.2f}% ({'ok' if error <= 0.03 else 'MISMATCH'}, limit 3%)"
        )
    overhead = metrics.get("core.predictor_overhead_pct")
    if overhead is not None:
        print(
            f"  predictor overhead {overhead['median']:.1f}% of worker compute "
            f"(paper Table 2: {PAPER_OVERHEAD_PCT}%)"
        )
    for line in run["failures"] + report.noisy_host_warnings(metrics):
        print(f"  ! {line}")
    if json_path:
        report.write_json(json_path, {"env": env, "workloads": {run["workload"]: run}})
    print(
        json.dumps(
            {
                "correct": run["ops_failed"] == 0,
                "attempted": run["ops_attempted"],
                "failed": int(run["ops_failed"]),
                "metrics": {
                    metric: {"value": entry["median"], "unit": units[metric]}
                    for metric, entry in metrics.items()
                },
            }
        )
    )
    return 0


def run_all(seed: int, seconds: float, smoke: bool, json_path: Optional[str]) -> int:
    """Each workload in a fresh interpreter, then the traced runs; one set file."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    combined: Dict[str, Dict] = {"env": {}, "workloads": {}}
    status = 0
    for trace in (0, 1):
        for name in WORKLOADS:
            part = OUT_DIR / f"part-{name}-{trace}.json"
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace), "--json", str(part),
            ] + (["--smoke"] if smoke else [])
            status |= subprocess.run(command).returncode
            if part.exists():
                document = json.loads(part.read_text())
                part.unlink()
                combined["env"] = combined["env"] or document["env"]
                run = document["workloads"][name]
                merged = combined["workloads"].setdefault(name, run)
                if merged is not run:  # the traced run adds its metrics to the untraced entry
                    merged["metrics"].update(run["metrics"])
                    merged["ops_attempted"] += run["ops_attempted"]
                    merged["ops_failed"] += run["ops_failed"]
                    merged["failures"] += run["failures"]
    if json_path:
        report.write_json(json_path, combined)
    return status


def main(argv: List[str]) -> int:
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        with open(argv[1]) as fa, open(argv[2]) as fb:
            return report.compare(json.load(fa), json.load(fb))

    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="all workloads, untraced then traced")
    parser.add_argument("--seed", type=int, default=7, help="becomes TrainingConfig.seed")
    parser.add_argument("--seconds", type=float, default=None, help="measuring window (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from a traced run")
    parser.add_argument("--json", metavar="PATH", help="also write the full result file (samples + environment)")
    parser.add_argument("--smoke", action="store_true", help="budgets / 20, 2 repeats: a plumbing check, not a measurement")
    args = parser.parse_args(argv)
    if args.all == bool(args.workload):
        parser.error("give exactly one of --workload and --all")
    seconds = args.seconds if args.seconds is not None else manifest.load()["run_seconds"]
    if args.all:
        return run_all(args.seed, seconds, args.smoke, args.json)
    env = report.environment()
    if args.trace:
        run = measure_layers(args.workload, args.seed, args.smoke)
    else:
        run = measure_end_to_end(args.workload, args.seed, seconds, args.smoke)
    return emit(run, env, args.json)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
