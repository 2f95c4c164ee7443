"""Typed message envelopes: the protocol every backend speaks.

:func:`repro.runtime.cycle.worker_cycle` is the one place the worker-side
envelopes are built and :func:`repro.runtime.cycle.dispatch` the one place
the server answers them, so the simulator, the thread runtime and the proc
runtime exchange exactly these types.  Beside the cycle's messages there
are shutdown-time sidebands (BN statistics, trace rows), the gossip
runtime's peer messages, and a Shutdown sentinel that wakes any thread
blocked on a mailbox.

Envelope fields carry only what crosses the wire; the mathematics stays in
:class:`~repro.core.state.WorkerState` / :class:`~repro.core.state.
GradientPayload` / :class:`~repro.core.state.CompensationReply`.

These dataclasses are the only definition of the wire format:
:mod:`repro.runtime.wire` derives its encoder and its strict decoder from
their fields and annotations, so adding a message means adding a dataclass
here.  Annotations are therefore the schema the decoder enforces, and
fields travel positionally: reordering or inserting a field changes the
protocol and needs a ``PROTOCOL_VERSION`` bump.  An
array in a field named ``grad`` (here or in a payload a message carries)
travels under the gradient codec role, one named ``weights`` under the
weights role, and every other array as BN statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.state import CompensationReply, GradientPayload, WorkerState

#: one ``(mean, var)`` pair per BN layer, in :func:`~repro.nn.norm.bn_layers` order
BnPairs = Tuple[Tuple[np.ndarray, np.ndarray], ...]


@dataclass(frozen=True)
class Message:
    """Base envelope: every message names its worker endpoint."""

    worker: int

    #: control messages cancel pending delivery deadlines in a Mailbox:
    #: once the run is over, nobody should wait out an emulated link delay
    #: just to learn about it (class attribute, not a wire field)
    expedite = False


@dataclass(frozen=True)
class PullRequest(Message):
    """Worker -> server: ask for the current weights (Algorithm 2, l. 11)."""

    sent_at: float = 0.0  # backend clock when the request left the worker


@dataclass(frozen=True)
class PullReply(Message):
    """Server -> worker: the weights at ``version`` (Algorithm 2, l. 12)."""

    weights: Optional[np.ndarray] = None
    version: int = -1
    request_sent_at: float = 0.0  # echoed so the worker can measure t_comm


@dataclass(frozen=True)
class StatePush(Message):
    """Worker -> server: the ``state_m`` record (Algorithm 1, l. 8)."""

    state: Optional[WorkerState] = None


@dataclass(frozen=True)
class CompensationMessage(Message):
    """Server -> worker: the ``l_delay`` reply (Algorithm 2, l. 5)."""

    reply: Optional[CompensationReply] = None


@dataclass(frozen=True)
class GradientPush(Message):
    """Worker -> server: the compensated gradient (Algorithm 1, l. 12)."""

    payload: Optional[GradientPayload] = None


@dataclass(frozen=True)
class CombinedPush(Message):
    """Worker -> server: fused state+gradient for the non-LC algorithms."""

    state: Optional[WorkerState] = None
    payload: Optional[GradientPayload] = None


@dataclass(frozen=True)
class BnStatsPush(Message):
    """Worker -> parent at shutdown: the replica's BN *running* statistics.

    Only the proc backend uses this, and only under ``bn_mode="local"``:
    evaluation borrows worker 0's running statistics, which live in a
    child's address space there.  The child streams them once, right
    after it receives Shutdown, so the parent can install them into the
    eval model before the final evaluation.  ``stats`` is one
    ``(running_mean, running_var)`` pair per BN layer, in
    :func:`~repro.nn.norm.bn_layers` order.
    """

    stats: BnPairs = ()


@dataclass(frozen=True)
class TracePush(Message):
    """Worker -> parent at shutdown: the child's retained trace rows.

    Only instrumented (``obs on``) proc runs send this: the child's
    :class:`~repro.obs.recorder.TraceRecorder` lives in its own address
    space, so after Shutdown the child ships its encoded wire rows
    (:func:`~repro.obs.events.encode_record` format) once, and the parent
    merges them into the plan's recorder before the result is built.
    ``rows`` is a tuple of ``[t, kind, worker, *fields]`` lists; each is
    validated against the event registry on ingestion, never trusted.
    An obs child always sends one push — even empty — so the parent can
    wait for all ``M`` of them deterministically.
    """

    rows: Tuple[list, ...] = ()


@dataclass(frozen=True)
class WeightExchange(Message):
    """Worker -> worker: one side of an AD-PSGD pairwise average.

    ``worker`` is the *sender*.  Both members of a matched pair send their
    flat parameter vector (plus BN running statistics, so the averaged
    model evaluates consistently) before either blocks on receiving the
    partner's — the send-then-receive ordering that, together with atomic
    pairing, keeps gossip deadlock-free.
    """

    weights: Optional[np.ndarray] = None
    bn_stats: BnPairs = ()


@dataclass(frozen=True)
class GossipReport(Message):
    """Worker -> server actor: one local step finished (gossip runtime).

    Workers report each completed local step (with its loss and
    staleness) instead of pushing gradients; the shared
    :func:`~repro.runtime.cycle.dispatch` logs it as an applied update,
    so the server actor drives the curve and evaluation exactly as it
    does for the centralized backends.
    """

    loss: float = 0.0
    staleness: int = 0


@dataclass(frozen=True)
class Shutdown(Message):
    """Either direction: unblock the receiver and end its loop."""

    worker: int = -1
    expedite = True
