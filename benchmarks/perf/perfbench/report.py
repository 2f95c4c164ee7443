"""Result files: environment stamp, metric summaries, and ``compare``.

A result file is ``{"env": {...}, "workloads": {name: run, ...}}`` where a
run holds, per metric, the median, the IQR, the sample count and the raw
per-repeat samples.  ``compare`` reads two of them.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np

from perfbench import manifest
from perfbench.estimator import median_iqr


# ---------------------------------------------------------------------- #
# environment
# ---------------------------------------------------------------------- #
def commit_sha(root: Path = manifest.REPO_ROOT) -> str:
    """HEAD's sha read from ``.git`` directly, or ``unknown``.

    The benchmark also runs in plain checkouts that are not repositories,
    and must not let ``git`` wander up the directory tree looking for one.
    """
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> Dict[str, object]:
    """Where and on what these numbers were taken."""
    return {
        "commit": commit_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "loadavg_start": list(os.getloadavg()),
    }


# ---------------------------------------------------------------------- #
# summaries
# ---------------------------------------------------------------------- #
def summarize(samples: Sequence[float]) -> Dict[str, object]:
    """``{median, iqr, n, samples}`` of one metric's per-repeat values."""
    med, iqr = median_iqr(samples)
    return {"median": med, "iqr": iqr, "n": len(samples), "samples": list(samples)}


def format_metric(name: str, entry: Dict[str, object], unit: str) -> str:
    line = f"  {name:<58s} {entry['median']:>14.6g} {unit:<6s}"
    if entry["n"] > 1:
        line += f" iqr={entry['iqr']:.3g} n={entry['n']}"
    return line


def noisy_host_warnings(metrics: Dict[str, Dict[str, object]]) -> List[str]:
    """Timings whose within-run IQR exceeds twice their bound."""
    warnings = []
    for name, bound in manifest.bounds().items():
        entry = metrics.get(name)
        if entry and entry["n"] > 1 and entry["median"] and entry["iqr"] / entry["median"] > 2 * bound:
            warnings.append(
                f"noisy-host: {name} IQR is {100 * entry['iqr'] / entry['median']:.1f}% of its "
                f"median within this run (bound {100 * bound:.0f}%)"
            )
    return warnings


def write_json(path: str, document: Dict[str, object]) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(document, fh, indent=1)


# ---------------------------------------------------------------------- #
# compare
# ---------------------------------------------------------------------- #
def verdict(a: Dict[str, object], b: Dict[str, object], better: str, bound: float) -> Dict[str, object]:
    """Judge B against base A for one metric.

    ``gain`` is the relative change in the metric's good direction, with A
    as its base.  ``worse``: B lost more than the bound.  ``unresolved``:
    the within-run spread exceeds the bound and the two runs' samples
    overlap, so the bound cannot be checked.  ``better``: B gained more
    than either run's spread.
    """
    sign = 1.0 if better == "higher" else -1.0
    base = a["median"]
    gain = sign * (b["median"] - base) / base if base else 0.0
    spread = max(
        (e["iqr"] / e["median"]) if e["median"] and e["n"] > 1 else 0.0 for e in (a, b)
    )
    if gain < -bound:
        result = "worse"
    elif spread > bound and _overlap(a["samples"], b["samples"]):
        result = "unresolved"
    elif gain > spread and gain > 0:
        result = "better"
    else:
        result = "unchanged"
    return {"gain": gain, "spread": spread, "verdict": result}


def _overlap(a: Sequence[float], b: Sequence[float]) -> bool:
    return bool(a) and bool(b) and min(a) <= max(b) and min(b) <= max(a)


def compare(doc_a: Dict, doc_b: Dict, out=sys.stdout) -> int:
    """Print the table; return non-zero on any regression or new failure."""
    bounds, better = manifest.bounds(), manifest.directions()
    status = 0
    for name in doc_a["workloads"]:
        run_a, run_b = doc_a["workloads"][name], doc_b["workloads"].get(name)
        if run_b is None:
            print(f"{name}: missing from B", file=out)
            status = 1
            continue
        print(f"{name}", file=out)
        rate_a = run_a["ops_failed"] / max(run_a["ops_attempted"], 1)
        rate_b = run_b["ops_failed"] / max(run_b["ops_attempted"], 1)
        if rate_b > rate_a:
            print(
                f"  ops_failed rose: {run_a['ops_failed']}/{run_a['ops_attempted']} -> "
                f"{run_b['ops_failed']}/{run_b['ops_attempted']}",
                file=out,
            )
            status = 1
        for metric, entry_a in run_a["metrics"].items():
            entry_b = run_b["metrics"].get(metric)
            if entry_b is None:
                continue
            # per-layer metrics have no bound of their own: they are judged
            # against the widest one, printed only when they moved past it,
            # and never decide the exit status
            gated = metric in bounds
            bound = bounds.get(metric, max(bounds.values()))
            judged = verdict(entry_a, entry_b, better.get(metric, "lower"), bound)
            if not gated and abs(judged["gain"]) <= bound:
                continue
            print(
                f"  {metric:<58s} A={entry_a['median']:<12.6g} B={entry_b['median']:<12.6g} "
                f"gain={100 * judged['gain']:+.2f}% of A  "
                f"bound={f'{100 * bound:.0f}%' if gated else '-'}  {judged['verdict']}",
                file=out,
            )
            if gated and judged["verdict"] == "worse":
                status = 1
    return status
