"""Asynchronous Decentralized Parallel SGD (AD-PSGD, Lian et al. 2018).

There is no parameter server: every worker keeps its own copy of the model,
takes local (momentum-)SGD steps, and once per step averages its parameter
vector with one randomly chosen neighbor on a fixed peer graph
(:mod:`repro.cluster.topology`).  Per-worker communication is therefore one
weight exchange per step regardless of cluster size — the serverless
scaling behaviour the gossip benchmark measures against ASGD.

The rule is split to mirror the physical split of the algorithm:

* :class:`ADPSGDRule` — the *local* optimizer.  It subclasses
  :class:`~repro.core.algorithms.base.UpdateRule` so it plugs into the
  algorithm registry and reuses the shared momentum bookkeeping, but it is
  instantiated once **per worker** (each replica owns its velocity), not
  once on a server.
* :func:`pairwise_average` — the *gossip* step.  Pure array math on two
  flat parameter vectors, symmetric in its arguments, applied by both
  members of a pair so their replicas agree bit-for-bit afterwards.

Deadlock freedom is a runtime property, not an algorithm property: the
gossip backends pair workers through an atomic matchmaker before anyone
blocks, so two workers never hold-and-wait on each other (see
``repro.runtime.gossip_backend.PairingBoard``).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core.algorithms.base import UpdateRule
from repro.core.state import GradientPayload


class ADPSGDRule(UpdateRule):
    """Local update rule of one AD-PSGD worker.

    ``apply_gradient`` performs the worker's local step ``x_i <- x_i - lr
    g_i`` (with optional momentum, tracked per replica).  The decentralized
    half — averaging with a neighbor — is :func:`pairwise_average`, invoked
    by the gossip runtime between local steps; the server-based backends
    refuse the algorithm outright rather than silently running it as ASGD.
    """

    name = "ad-psgd"

    def apply_gradient(
        self,
        params: np.ndarray,
        payload: GradientPayload,
        lr: float,
        version: int,
    ) -> bool:
        self._sgd_step(params, payload.grad, lr)
        return True


def pairwise_average(a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The AD-PSGD gossip update: both replicas move to their midpoint.

    ``x_i, x_j <- (x_i + x_j) / 2`` — the doubly-stochastic mixing matrix
    ``W`` of the paper restricted to one edge.  Inputs are not mutated; the
    two returned arrays are *independent* copies of the midpoint (callers
    on different threads must not share storage).
    """
    if a.shape != b.shape:
        raise ValueError(f"cannot average shapes {a.shape} and {b.shape}")
    mid = (a + b) * 0.5
    return mid, mid.copy()


def gossip_staleness(local_step: int, last_average_step: int) -> int:
    """Steps a replica has taken since it last averaged with anyone.

    This is the decentralized analogue of ASGD's pull-to-push version gap:
    how far the local parameters have drifted, in update counts, since the
    last mixing event.  Logging it as each update's staleness keeps
    :func:`~repro.cluster.trace.ClusterTrace.staleness_stats` and the
    report columns meaningful for ``ad-psgd`` rows.
    """
    if local_step < last_average_step:
        raise ValueError("local_step precedes last_average_step")
    return local_step - last_average_step
