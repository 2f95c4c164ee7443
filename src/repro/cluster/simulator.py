"""The virtual-time event queue.

Real computation (forward/backward passes, predictor updates) executes
*inside* event callbacks, sequentially, while virtual timestamps decide the
interleaving.  This gives bit-reproducible runs: the staleness any gradient
experiences is exactly the number of server updates whose events fall
between its pull and its landing.  The simulator only orders and runs
events; the sim driver (:class:`~repro.core.trainer.DistributedTrainer`)
decides when to :meth:`Simulator.step`, and when the run is over.
"""

from __future__ import annotations

from typing import Callable

from repro.cluster.event import EventQueue


class Simulator:
    """Discrete-event executor with a monotonically advancing clock."""

    def __init__(self) -> None:
        self._queue = EventQueue()
        self._now = 0.0
        self._processed = 0

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of events executed so far."""
        return self._processed

    def schedule(self, delay: float, action: Callable[[], None]) -> None:
        """Schedule ``action`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        self._queue.push(self._now + delay, action)

    def step(self) -> bool:
        """Run the earliest event at its virtual time; False when none is left."""
        if not self._queue:
            return False
        event = self._queue.pop()
        self._now = event.time
        event.action()
        self._processed += 1
        return True
