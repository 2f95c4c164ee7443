"""Small timing helpers used by the overhead experiments (Tables 2-3)."""

from __future__ import annotations

import threading
import time
from typing import Dict, List

from repro.analysis.lockorder import make_lock


class WallTimer:
    """Context manager measuring wall-clock seconds via ``perf_counter``."""

    def __init__(self) -> None:
        self.elapsed: float = 0.0
        self._start: float = 0.0

    def __enter__(self) -> "WallTimer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed = time.perf_counter() - self._start


#: per-section sample retention cap — totals/counts stay exact forever,
#: only the raw sample list is bounded (a long run must not grow an
#: unbounded float list per section; the distribution's head is enough
#: for the overhead tables, which report totals and means anyway)
MAX_SAMPLES_PER_SECTION = 4096


class Timer:
    """Accumulating named timer, used to attribute per-iteration cost.

    ``total``/``count``/``mean`` are exact over the whole run; raw samples
    are retained only up to ``max_samples`` per section (deterministic
    prefix, not a reservoir — reservoir sampling would need an RNG, and
    timers live inside otherwise-deterministic runs).

    >>> t = Timer()
    >>> with t.section("loss-pred"):
    ...     pass
    >>> t.total("loss-pred") >= 0.0
    True
    """

    def __init__(self, max_samples: int = MAX_SAMPLES_PER_SECTION) -> None:
        if max_samples < 1:
            raise ValueError("max_samples must be >= 1")
        self.max_samples = int(max_samples)
        self._totals: Dict[str, float] = {}
        self._counts: Dict[str, int] = {}
        self._samples: Dict[str, List[float]] = {}
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
            samples = self._samples.setdefault(name, [])
            if len(samples) < self.max_samples:
                samples.append(seconds)

    def merge(self, totals: Dict[str, Dict[str, float]]) -> None:
        """Add another timer's :meth:`totals` (e.g. a child process's) to
        this one's totals and counts; its samples are not retained."""
        with self._lock:
            for name, entry in totals.items():
                self._totals[name] = self._totals.get(name, 0.0) + float(entry["total_s"])
                self._counts[name] = self._counts.get(name, 0) + int(entry["count"])

    def samples(self, name: str) -> List[float]:
        """The retained samples for ``name`` (capped at ``max_samples``)."""
        with self._lock:
            return list(self._samples.get(name, ()))

    def total(self, name: str) -> float:
        """Total seconds accumulated for ``name`` (0.0 if never recorded)."""
        return self._totals.get(name, 0.0)

    def count(self, name: str) -> int:
        """Number of samples recorded for ``name``."""
        return self._counts.get(name, 0)

    def mean(self, name: str) -> float:
        """Mean seconds per sample for ``name`` (0.0 if never recorded)."""
        n = self._counts.get(name, 0)
        return self._totals.get(name, 0.0) / n if n else 0.0

    def names(self) -> List[str]:
        """All section names recorded so far."""
        return sorted(self._totals)

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

    def reset(self) -> None:
        """Drop all recorded samples."""
        self._totals.clear()
        self._counts.clear()
        self._samples.clear()
