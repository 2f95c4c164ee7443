"""The update log of a distributed-training run.

One entry per applied update: the worker whose update landed and its
staleness.  That is all the evaluation reads back — the staleness
distribution (Figures 2-3 context) and the worker finishing order
(Figure 8).  :meth:`repro.runtime.session.ExperimentSession.record_update`
is the only writer, on every backend.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np


class ClusterTrace:
    """Append-only update log with summary queries."""

    def __init__(self) -> None:
        self.order: List[int] = []
        self.staleness: List[int] = []

    def record(self, worker: int, staleness: int) -> None:
        """Append one applied update."""
        self.order.append(int(worker))
        self.staleness.append(int(staleness))

    def staleness_stats(self) -> Dict[str, float]:
        """Mean/median/max staleness over all applied updates."""
        values = np.array(self.staleness, dtype=np.int64)
        if values.size == 0:
            return {"mean": 0.0, "median": 0.0, "max": 0.0, "count": 0.0}
        return {
            "mean": float(values.mean()),
            "median": float(np.median(values)),
            "max": float(values.max()),
            "count": float(values.size),
        }

    def finishing_order(self) -> List[int]:
        """Worker ids in the order their updates landed (Figure 8's x-axis)."""
        return list(self.order)

    def updates_per_worker(self) -> Dict[int, int]:
        """Number of applied updates per worker."""
        counts: Dict[int, int] = {}
        for worker in self.order:
            counts[worker] = counts.get(worker, 0) + 1
        return counts
