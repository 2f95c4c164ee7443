"""Typed frames: every frame on every socket, and the envelopes every backend speaks.

:class:`Frame` is the base of everything :mod:`repro.runtime.wire` puts on
a socket; its kind on the wire is its class name, so class names are
unique across this file.  There are three families:

* :class:`Message` envelopes (they add ``worker``, the endpoint) — the
  protocol every backend speaks.  :func:`repro.runtime.cycle.worker_cycle`
  is the one place the worker-side envelopes are built and
  :func:`repro.runtime.cycle.dispatch` the one place the server answers
  them, so the simulator, the thread runtime and the proc runtime exchange
  exactly these types.  Beside the cycle's messages there are the gossip
  runtime's peer messages and a Shutdown sentinel that wakes any thread
  blocked on a mailbox.
* the proc backend's handshake and run-end report (:class:`Hello`,
  :class:`RunConfig`, :class:`Ready`, :class:`SetupError`, :class:`Start`,
  :class:`Reject`, :class:`RunEnd`); the sequence is in
  :mod:`repro.runtime.proc_backend`.
* the fleet's campaign frames (:class:`FleetHello` to :class:`Heartbeat`);
  the session is in :mod:`repro.fleet.protocol`.

Envelope fields carry only what crosses the wire; the mathematics stays in
:class:`~repro.core.state.WorkerState` / :class:`~repro.core.state.
GradientPayload` / :class:`~repro.core.state.CompensationReply`.

These dataclasses are the only definition of the wire format:
:mod:`repro.runtime.wire` derives its encoder and its strict decoder from
their fields and annotations, so adding a frame means adding a dataclass
here.  Annotations are therefore the schema the decoder enforces, and
fields travel positionally, in a binary ``struct`` header whose layout
follows :func:`dataclasses.fields` order: ``int`` as i64, ``float`` as
f64, one presence byte per ``Optional`` (a payload dataclass inlined
behind it), one count per list, and each array as a part record.  A
frame's kind id is its class name's index in sorted order.  So
reordering or inserting a field, or adding or renaming a frame class,
changes the protocol and needs a ``PROTOCOL_VERSION`` bump.  Documents (a
``TrainingConfig``, a spec, a ``RunResult``) travel as ``dict`` fields
that their senders made JSON-able, in the frame's JSON blob with its
``str``, ``bool`` and ``list`` fields; rebuilding them is the receiver's
job.  Range checks live in ``__post_init__``, which the decoder runs.  An
array in a field named ``grad`` (here or in a payload a message carries)
travels under the gradient codec role, one named ``weights`` under the
weights role, and every other array as BN statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.core.state import CompensationReply, GradientPayload, WorkerState

#: one ``(mean, var)`` pair per BN layer, in :func:`~repro.nn.norm.bn_layers` order
BnPairs = Tuple[Tuple[np.ndarray, np.ndarray], ...]


@dataclass(frozen=True)
class Frame:
    """Base of every frame on a socket.

    :class:`Message` adds the worker endpoint; the handshake, run-end and
    fleet frames derive from this field-less base directly.
    """


@dataclass(frozen=True)
class Message(Frame):
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


# ---------------------------------------------------------------------- #
# the proc backend's handshake and run-end report
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class Hello(Frame):
    """Child -> parent, once on connect: its spawn-time id and the token."""

    worker: int
    token: str


@dataclass(frozen=True)
class RunConfig(Frame):
    """Parent -> child: serve one run as ``worker`` of this config.

    ``config`` is a :meth:`~repro.core.config.TrainingConfig.to_dict`
    document; its ``comm_codec`` is the gradient codec both ends arm.
    """

    worker: int
    config: dict
    time_scale: float = 0.0
    compute_scale: float = 0.0
    obs: bool = False


@dataclass(frozen=True)
class Ready(Frame):
    """Child -> parent: the run's replica is built."""

    worker: int


@dataclass(frozen=True)
class SetupError(Frame):
    """Child -> parent instead of :class:`Ready`: the build raised."""

    traceback: str


@dataclass(frozen=True)
class Start(Frame):
    """Parent -> child: begin the run's worker cycle."""


@dataclass(frozen=True)
class Reject(Frame):
    """Parent -> peer, best effort, before dropping it: why."""

    reason: str


@dataclass(frozen=True)
class RunEnd(Frame):
    """Child -> parent, the child's last frame of a run.

    ``timers`` is the child's :meth:`~repro.utils.timer.Timer.totals`.
    ``bn_stats`` is worker 0's BN running statistics under
    ``bn_mode="local"`` (evaluation borrows them, and they live in the
    child), else empty.  ``rows`` is the child's encoded trace rows
    (:func:`~repro.obs.events.encode_record` format) when obs is on, else
    empty; the parent re-validates each one on ingestion.
    """

    timers: dict = field(default_factory=dict)
    bn_stats: BnPairs = ()
    rows: Tuple[list, ...] = ()


# ---------------------------------------------------------------------- #
# the fleet's campaign frames
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class FleetHello(Frame):
    """Scheduler -> agent: open a session."""


@dataclass(frozen=True)
class Welcome(Frame):
    """Agent -> scheduler: the session is open; ``slots`` concurrent cells."""

    slots: int
    agent: str

    def __post_init__(self) -> None:
        if self.slots < 1:
            raise ValueError(f"welcome without usable slots: {self.slots}")


@dataclass(frozen=True)
class Busy(Frame):
    """Agent -> a second scheduler: already serving another one."""

    agent: str


@dataclass(frozen=True)
class Job(Frame):
    """Scheduler -> agent: run one cell.

    ``spec`` is an :meth:`~repro.experiments.spec.ExperimentSpec.to_dict`
    document; ``obs`` asks for a live trace recorder, whose rows come back
    in a :class:`JobTrace` before the :class:`JobResult`.
    """

    id: str
    spec: dict
    obs: bool = False


@dataclass(frozen=True)
class JobCurvePoint(Frame):
    """Agent -> scheduler: one evaluation point of a running cell."""

    id: str
    point: dict


@dataclass(frozen=True)
class JobTrace(Frame):
    """Agent -> scheduler: an obs cell's encoded trace rows, once."""

    id: str
    rows: Tuple[list, ...] = ()


@dataclass(frozen=True)
class JobResult(Frame):
    """Agent -> scheduler: the cell's ``RunResult`` document."""

    id: str
    result: dict


@dataclass(frozen=True)
class JobError(Frame):
    """Agent -> scheduler: the cell itself raised."""

    id: str
    error: str
    traceback: str = ""


@dataclass(frozen=True)
class Heartbeat(Frame):
    """Either direction: the sender is alive; ``n`` counts its pulses."""

    n: int
