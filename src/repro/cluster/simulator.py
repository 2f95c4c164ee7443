"""The virtual-time event loop.

Real computation (forward/backward passes, predictor updates) executes
*inside* event callbacks, sequentially, while virtual timestamps decide the
interleaving.  This gives bit-reproducible runs: the staleness any gradient
experiences is exactly the number of server updates whose events fall
between its pull and its landing.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.cluster.event import EventQueue


class Simulator:
    """Discrete-event executor with a monotonically advancing clock."""

    def __init__(self) -> None:
        self._queue = EventQueue()
        self._now = 0.0
        self._processed = 0
        self._stopped = False

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def clock(self) -> float:
        """:attr:`now` as a plain callable, for drivers that pass a clock."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of events executed so far."""
        return self._processed

    def schedule(self, delay: float, action: Callable[[], None], label: str = "") -> None:
        """Schedule ``action`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        self._queue.push(self._now + delay, action, label=label)

    def schedule_at(self, time: float, action: Callable[[], None], label: str = "") -> None:
        """Schedule ``action`` at absolute virtual ``time`` (>= now)."""
        if time < self._now:
            raise ValueError(f"cannot schedule in the past ({time} < {self._now})")
        self._queue.push(time, action, label=label)

    def stop(self) -> None:
        """Request the run loop to exit after the current event."""
        self._stopped = True

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        stop_when: Optional[Callable[[], bool]] = None,
    ) -> None:
        """Process events in timestamp order.

        Parameters
        ----------
        until:
            Stop once the clock would pass this virtual time.
        max_events:
            Safety valve against runaway loops.
        stop_when:
            Predicate checked after every event; return True to stop.
        """
        self._stopped = False
        executed = 0
        while self._queue and not self._stopped:
            next_time = self._queue.peek_time()
            if until is not None and next_time is not None and next_time > until:
                self._now = until
                break
            event = self._queue.pop()
            self._now = event.time
            event.action()
            self._processed += 1
            executed += 1
            if stop_when is not None and stop_when():
                break
            if max_events is not None and executed >= max_events:
                raise RuntimeError(
                    f"simulator exceeded max_events={max_events}; "
                    "likely a scheduling loop"
                )
