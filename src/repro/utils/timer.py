"""Small timing helpers used by the overhead experiments (Tables 2-3)."""

from __future__ import annotations

import time
from typing import Dict

from repro.analysis.lockorder import make_lock


class Timer:
    """Accumulating named timer, used to attribute per-iteration cost.

    ``total``/``count`` are exact over the whole run.

    >>> t = Timer()
    >>> with t.section("loss-pred"):
    ...     pass
    >>> t.total("loss-pred") >= 0.0
    True
    """

    def __init__(self) -> None:
        self._totals: Dict[str, float] = {}
        self._counts: Dict[str, int] = {}
        # the thread runtime records sections from several threads at once
        self._lock = make_lock("Timer._lock")

    class _Section:
        def __init__(self, timer: "Timer", name: str) -> None:
            self._timer = timer
            self._name = name
            self._start = 0.0

        def __enter__(self) -> "Timer._Section":
            self._start = time.perf_counter()
            return self

        def __exit__(self, *exc) -> None:
            self._timer.add(self._name, time.perf_counter() - self._start)

    def section(self, name: str) -> "Timer._Section":
        """Return a context manager accumulating into ``name``."""
        return Timer._Section(self, name)

    def add(self, name: str, seconds: float) -> None:
        """Record ``seconds`` against ``name`` (safe from any thread)."""
        with self._lock:
            self._totals[name] = self._totals.get(name, 0.0) + seconds
            self._counts[name] = self._counts.get(name, 0) + 1

    def merge(self, totals: Dict[str, Dict[str, float]]) -> None:
        """Add another timer's :meth:`totals` (e.g. a child process's) to
        this one's totals and counts."""
        with self._lock:
            for name, entry in totals.items():
                self._totals[name] = self._totals.get(name, 0.0) + float(entry["total_s"])
                self._counts[name] = self._counts.get(name, 0) + int(entry["count"])

    def total(self, name: str) -> float:
        """Total seconds accumulated for ``name`` (0.0 if never recorded)."""
        return self._totals.get(name, 0.0)

    def count(self, name: str) -> int:
        """Number of samples recorded for ``name``."""
        return self._counts.get(name, 0)

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Every section's exact aggregate: ``{name: {total_s, count}}``.

        This is what ``build_result`` folds into a trace's meta line, so
        per-phase wall cost appears once (trace) instead of twice
        (trace + timer).
        """
        with self._lock:
            return {
                name: {"total_s": self._totals[name], "count": float(self._counts[name])}
                for name in sorted(self._totals)
            }
