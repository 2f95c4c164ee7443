#!/usr/bin/env python3
"""A/A check: two sets of runs of the same code must agree within the bounds.

    python3 benchmarks/perf/aa_check.py              # 1 run per workload and set
    python3 benchmarks/perf/aa_check.py --runs 10    # the acceptance procedure

A set is ``--runs`` runs of every workload, each with another seed, the
workloads taken round-robin — forwards in the first set, backwards in the
second.  Per workload and end-to-end metric the script reports each set's
median and (from 4 runs up) the inter-quartile spread of the runs as a
share of their median, and fails when

* the second set's median is worse than the first's by more than the
  metric's declared bound, or
* a spread exceeds the bound (``setup_s`` excepted: each run already
  reports a median of many set-ups, and its bound is judged on medians).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

from perfbench.manifest import load  # noqa: E402


def one_run(workload: str, seed: int, seconds: float) -> Dict[str, float]:
    """One fresh-interpreter run; returns ``metric -> value`` or raises."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']}/{result['attempted']} repeats failed")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def run_set(order: List[str], seeds: List[int], seconds: float) -> Dict[str, Dict[str, List[float]]]:
    """``workload -> metric -> [value per run]``."""
    values: Dict[str, Dict[str, List[float]]] = {w: {} for w in order}
    for seed in seeds:
        for workload in order:
            metrics = one_run(workload, seed, seconds)
            for metric, value in metrics.items():
                values[workload].setdefault(metric, []).append(value)
            shown = "  ".join(f"{metric}={value:.6g}" for metric, value in metrics.items())
            print(f"  {workload:<12s} seed {seed}  {shown}", flush=True)
    return values


def spread(values: List[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv: List[str]) -> int:
    doc = load()
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=1, help="runs (seeds) per workload and set")
    parser.add_argument("--seed", type=int, default=101, help="first seed of the first set")
    parser.add_argument("--seconds", type=float, default=doc["run_seconds"])
    args = parser.parse_args(argv)

    names = [w["name"] for w in doc["workloads"]]
    sets = []
    for index, order in enumerate((names, names[::-1])):
        first = args.seed + index * args.runs
        print(f"set {index + 1}: seeds {first}..{first + args.runs - 1}", flush=True)
        sets.append(run_set(order, list(range(first, first + args.runs)), args.seconds))

    failed = False
    for workload in names:
        print(workload)
        for metric in doc["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sign = 1.0 if metric["better"] == "higher" else -1.0
            a, b = (s[workload][name] for s in sets)
            med_a, med_b = statistics.median(a), statistics.median(b)
            loss = -sign * (med_b - med_a) / med_a
            flags = []
            if loss > bound:
                flags.append("SECOND SET WORSE THAN BOUND")
            line = (
                f"  {name:<14s} set1={med_a:<11.6g} set2={med_b:<11.6g} "
                f"worse by {100 * loss:+.2f}% of set1 (bound {100 * bound:.0f}%)"
            )
            if args.runs >= 4:
                spreads = [spread(a), spread(b)]
                line += "  spread " + " / ".join(f"{100 * s:.2f}%" for s in spreads)
                if name != "setup_s" and max(spreads) > bound:
                    flags.append("SPREAD EXCEEDS BOUND")
            print(line + ("  <-- " + ", ".join(flags) if flags else ""))
            failed = failed or bool(flags)
    print("A/A check", "FAILED" if failed else "passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
