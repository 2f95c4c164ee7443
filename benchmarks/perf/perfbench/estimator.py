"""The estimator: one discarded warm-up + timed repeats, reported as medians.

A *repeat* executes one operation (a fixed update budget) and yields one
sample of every timing.  Repeats continue until the measuring window
(``--seconds``) is used up, so a run holds 5-15 samples depending on the
workload; the reported value of a timing is the median over them, printed
with its IQR and the sample count.  Timings are reported at reference
host speed (:mod:`perfbench.calibration`).

A repeat that raises, overruns the hard timeout or fails a correctness
check is counted in ``failed`` (out of ``attempted``) and contributes no
sample.  After a timeout the run stops repeating: whatever the stuck call
left behind would contend with the next sample.
"""

from __future__ import annotations

import gc
import math
import signal
import statistics
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from perfbench.calibration import REFERENCE_SECONDS
from perfbench.workloads import UPDATES_PER_EPOCH, Sample

#: hard cap on one repeat (the slowest, a sweep campaign, takes ~4 s)
REPEAT_TIMEOUT_S = 120.0
#: fewer timed repeats than this and the run is not a measurement
MIN_REPEATS = 3
#: chance on the 10-class task is 0.9
MAX_FINAL_TEST_ERROR = 0.5


class RepeatTimeout(Exception):
    """Raised inside a repeat that overran its hard timeout."""


def median_iqr(values: Sequence[float]) -> Tuple[float, float]:
    """Median and inter-quartile distance (0 for fewer than two values)."""
    if not values:
        raise ValueError("median_iqr needs at least one value")
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q3 - q1


@contextmanager
def hard_timeout(seconds: float):
    """Raise :class:`RepeatTimeout` in the main thread after ``seconds``.

    SIGALRM interrupts whatever the main thread is doing — including a
    ``join`` on a hung backend — and the exception unwinds through the
    program's own ``finally`` blocks, so children are reaped.
    """

    def on_alarm(signum, frame):
        raise RepeatTimeout(f"repeat exceeded its {seconds:.0f} s hard timeout")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


# ---------------------------------------------------------------------- #
# correctness
# ---------------------------------------------------------------------- #
def check_sample(sample: Sample, budgets: Sequence[int], learning: bool = True) -> List[str]:
    """Problems with one repeat's results; empty means correct.

    ``learning=False`` (smoke mode: budgets too small to learn anything)
    keeps the exact-count and finiteness checks only.
    """
    problems: List[str] = []
    if len(sample.results) != len(budgets):
        return [f"expected {len(budgets)} result(s), got {len(sample.results)}"]
    for index, (result, budget) in enumerate(zip(sample.results, budgets)):
        tag = f"cell {index} ({result.algorithm}/{result.backend}/M{result.num_workers})"
        if result.total_updates != budget:
            problems.append(f"{tag}: total_updates {result.total_updates} != budget {budget}")
        if not result.curve:
            problems.append(f"{tag}: empty curve")
            continue
        for point in result.curve:
            values = (point.train_error, point.train_loss, point.test_error, point.test_loss)
            if not all(math.isfinite(v) for v in values):
                problems.append(f"{tag}: non-finite curve point at epoch {point.epoch}")
                break
        if not learning:
            continue
        first, final = result.curve[0], result.curve[-1]
        # the first point is one epoch in; a cell shorter than two epochs
        # has no later point far enough from it to compare against
        if budget >= 2 * UPDATES_PER_EPOCH and final.train_loss > first.train_loss:
            problems.append(
                f"{tag}: final train loss {final.train_loss:.4f} > first point's "
                f"{first.train_loss:.4f}"
            )
        if final.test_error >= MAX_FINAL_TEST_ERROR:
            problems.append(f"{tag}: final test error {final.test_error:.3f} >= 0.5")
    return problems


def fingerprint(sample: Sample) -> Tuple:
    """What must repeat bit-for-bit on a deterministic workload."""
    return tuple(
        (r.curve[-1].train_loss if r.curve else None, r.staleness.get("mean"))
        for r in sample.results
    )


# ---------------------------------------------------------------------- #
# the repeat loop
# ---------------------------------------------------------------------- #
@dataclass
class RunStats:
    """Raw per-repeat samples plus the failure count of one run."""

    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    #: one dict per successful repeat: elapsed, wall, updates, cells and
    #: host_factor (kernel seconds around the repeat / the reference's)
    repeats: List[Dict[str, float]] = field(default_factory=list)

    def series(self, normalize: bool = True) -> Dict[str, List[float]]:
        """Per-repeat values of the three outside-measured timings.

        Normalized (the default) means *at reference host speed*: rates
        times the repeat's host factor, times divided by it.
        """
        factors = [r["host_factor"] if normalize else 1.0 for r in self.repeats]
        pairs = list(zip(self.repeats, factors))
        return {
            "updates_per_s": [f * r["updates"] / r["wall"] for r, f in pairs],
            "cells_per_s": [f * r["cells"] / r["elapsed"] for r, f in pairs],
            # per cell, so that 1/cells_per_s = setup_s + updates-per-cell/updates_per_s
            "setup_s": [(r["elapsed"] - r["wall"]) / r["cells"] / f for r, f in pairs],
        }

    def reconciliation_error(self) -> float:
        """|1/cells_per_s - (setup_s + updates per cell / updates_per_s)|, relative."""
        series = self.series()
        cells_per_s = statistics.median(series["cells_per_s"])
        updates_per_cell = statistics.median(r["updates"] / r["cells"] for r in self.repeats)
        rebuilt = statistics.median(series["setup_s"]) + updates_per_cell / statistics.median(
            series["updates_per_s"]
        )
        return abs(1.0 / cells_per_s - rebuilt) * cells_per_s


def run_repeats(
    operation: Callable[[], Sample],
    check: Callable[[Sample], List[str]],
    seconds: float,
    deterministic: bool = False,
    repeats: Optional[int] = None,
    timeout: float = REPEAT_TIMEOUT_S,
    clock: Callable[[], float] = time.perf_counter,
    calibrate: Optional[Callable[[], float]] = None,
) -> RunStats:
    """Warm up once, then repeat ``operation`` for ``seconds`` (or ``repeats`` times).

    The window closes when the next repeat would, by the mean so far, end
    later past the deadline than it starts before it.  ``calibrate`` (see
    :mod:`perfbench.calibration`) runs between repeats; a repeat's host
    factor is the mean of the readings on either side of it.
    """
    stats = RunStats()
    reference = None
    before: Optional[float] = None  # the calibration reading preceding the next repeat

    def attempt(timed: bool) -> bool:
        """One repeat; returns False when the run must stop repeating."""
        nonlocal reference, before
        if timed:
            stats.attempted += 1
        # every repeat starts from a collected heap, so memory and GC pauses
        # are one repeat's own and not a function of when the cyclic GC last ran
        gc.collect()
        if timed and calibrate is not None and before is None:
            before = calibrate()
        try:
            with hard_timeout(timeout):
                sample = operation()
        except RepeatTimeout as exc:
            stats.failed += timed
            stats.failures.append(str(exc))
            return False
        except Exception:  # the boundary: a failed repeat is data, not a crash
            stats.failed += timed
            stats.failures.append(traceback.format_exc(limit=6))
            before = None
            return True
        host_factor = 1.0
        if timed and calibrate is not None:
            after = calibrate()
            host_factor = (before + after) / 2.0 / REFERENCE_SECONDS
            before = after
        problems = check(sample)
        if deterministic:
            if reference is None:
                reference = fingerprint(sample)
            elif fingerprint(sample) != reference:
                problems.append(
                    f"repeat not bit-identical: {fingerprint(sample)} != {reference}"
                )
        if problems:
            stats.failed += timed
            stats.failures.extend(problems)
            return True
        if timed:
            stats.repeats.append(
                {
                    "elapsed": sample.elapsed,
                    "wall": sample.wall,
                    "updates": sample.updates,
                    "cells": sample.cells,
                    "host_factor": host_factor,
                }
            )
        return True

    if not attempt(timed=False):
        stats.attempted = stats.failed = 1  # a hung warm-up is a failed run
        return stats
    start = clock()
    while True:
        done = stats.attempted
        if repeats is not None:
            if done >= repeats:
                break
        elif done >= MIN_REPEATS:
            spent = clock() - start
            if spent + spent / done / 2 > seconds:
                break
        if not attempt(timed=True):
            break
    return stats
