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

import heapq
import itertools
from typing import Callable, List, Tuple


class Simulator:
    """Discrete-event executor with a monotonically advancing clock.

    Events are ``(time, seq, action)`` heap tuples: ties in virtual time
    run in insertion order (``seq``), whatever the float coincidences, and
    ``action`` is never compared.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Callable[[], None]]] = []
        self._seq = itertools.count()
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
        heapq.heappush(self._heap, (self._now + delay, next(self._seq), action))

    def step(self) -> bool:
        """Run the earliest event at its virtual time; False when none is left."""
        if not self._heap:
            return False
        self._now, _, action = heapq.heappop(self._heap)
        action()
        self._processed += 1
        return True
