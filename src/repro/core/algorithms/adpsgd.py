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
* the *gossip* step — each member of a pair moves its vector to the
  midpoint, in :func:`repro.runtime.cycle.gossip_cycle`, so the two
  replicas agree bit-for-bit afterwards.

Deadlock freedom is a runtime property, not an algorithm property: the
gossip backends pair workers through an atomic matchmaker before anyone
blocks, so two workers never hold-and-wait on each other (see
``repro.runtime.gossip_backend.PairingBoard``).
"""

from __future__ import annotations

import numpy as np

from repro.core.algorithms.base import UpdateRule
from repro.core.state import GradientPayload


class ADPSGDRule(UpdateRule):
    """Local update rule of one AD-PSGD worker.

    ``apply_gradient`` performs the worker's local step ``x_i <- x_i - lr
    g_i`` (with optional momentum, tracked per replica).  The decentralized
    half — averaging with a neighbor — is the gossip cycle's exchange
    between local steps; the parameter-server drivers (the sim's event loop
    and proc) refuse the algorithm outright rather than silently running it
    as ASGD.
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
