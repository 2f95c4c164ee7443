"""In-process transport for the thread and gossip runtimes.

One :class:`InProcTransport` owns a server mailbox plus one mailbox per
worker.  Mailboxes are FIFO queues, which gives the same per-connection
ordering guarantee the simulator relies on (a worker's next pull request is
processed after its own gradient push, because the worker enqueues them
from one thread in that order).  The transport is the server actor's
inbox itself, like proc's socket transport: its ``get`` reads the server
mailbox and fails the run once the backend's ``timeout`` has passed.  The
gossip runtime uses the same fabric: the shared server actor reads the
step reports from the server mailbox, and matched peers exchange weights
through :meth:`InProcTransport.to_peer` into each other's worker mailboxes.

Link emulation: when built with a :class:`~repro.cluster.network.
NetworkModel` and a nonzero ``time_scale``, each message is charged
``time_scale * transfer_time(worker, nbytes)`` of *real* delay — worker ->
server messages delay the sending worker thread (its uplink is busy),
server -> worker messages are stamped with a delivery deadline the
receiving worker sleeps out (so the server actor is never blocked by a slow
downlink).  ``time_scale=0`` disables emulation and messages move at memory
speed.
"""

from __future__ import annotations

import contextlib
import queue
import time
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.analysis.lockorder import make_condition, make_lock
from repro.cluster.network import NetworkModel
from repro.obs.recorder import NULL_RECORDER
from repro.runtime.codecs import make_codec
from repro.runtime.messages import Message


def link_delay(
    network: Optional[NetworkModel], time_scale: float, worker: int, nbytes: int
) -> float:
    """Real seconds of emulated link occupancy for one message."""
    if network is None or time_scale == 0.0 or nbytes <= 0:
        return 0.0
    return time_scale * network.transfer_time(worker, nbytes)


class CommStats:
    """Unified byte accounting shared by every transport.

    One instance per run, whatever moves the bytes (in-process queues,
    loopback sockets, gossip pairs), so ``RunResult.comm`` carries the
    same keys on every backend:

    * ``messages`` — payload-bearing sends.
    * ``logical_bytes`` — what the run's model charges (float32 per
      element plus fixed overheads), independent of any codec.
    * ``wire_bytes`` — bytes that (would) cross the medium after the
      codec ran; equals ``logical_bytes`` under ``raw32``.
    * ``server_bytes`` — wire bytes through the hub endpoint (parameter
      server, or the server actor that takes gossip step reports — near
      zero when serverless traffic dominates, the scaling bench's point).
    * ``max_worker_bytes`` — the busiest worker endpoint.
    * ``total_bytes`` — every wire byte exactly once.
    """

    def __init__(self, num_workers: int) -> None:
        self._lock = make_lock("CommStats._lock")
        self.messages = 0  # guarded-by: _lock
        self.logical_bytes = 0  # guarded-by: _lock
        self.wire_bytes = 0  # guarded-by: _lock
        self.server_bytes = 0  # guarded-by: _lock
        self.worker_bytes: List[int] = [0] * int(num_workers)  # guarded-by: _lock

    def count(self, worker: int, nbytes: int, wire_nbytes: Optional[int] = None) -> None:
        """One message between the hub endpoint and ``worker``."""
        wire = int(nbytes if wire_nbytes is None else wire_nbytes)
        if nbytes <= 0 and wire <= 0:
            return
        with self._lock:
            self.messages += 1
            self.logical_bytes += int(nbytes)
            self.wire_bytes += wire
            self.server_bytes += wire
            self.worker_bytes[worker] += wire

    def count_peer(
        self, sender: int, receiver: int, nbytes: int, wire_nbytes: Optional[int] = None
    ) -> None:
        """One worker-to-worker message (no hub endpoint involved)."""
        wire = int(nbytes if wire_nbytes is None else wire_nbytes)
        if nbytes <= 0 and wire <= 0:
            return
        with self._lock:
            self.messages += 1
            self.logical_bytes += int(nbytes)
            self.wire_bytes += wire
            self.worker_bytes[sender] += wire
            self.worker_bytes[receiver] += wire

    def summary(self) -> Dict[str, float]:
        """The unified ``RunResult.comm`` payload."""
        with self._lock:
            return {
                "messages": float(self.messages),
                "logical_bytes": float(self.logical_bytes),
                "wire_bytes": float(self.wire_bytes),
                "server_bytes": float(self.server_bytes),
                "max_worker_bytes": float(max(self.worker_bytes, default=0)),
                "total_bytes": float(self.wire_bytes),
            }


class Mailbox:
    """FIFO of (message, delivery deadline) pairs with blocking receive.

    Delivery honours each message's ``not_before`` deadline — that is how
    emulated downlink delay reaches the receiver without blocking the
    sender.  Control messages (``Shutdown.expedite``) cancel every pending
    deadline the moment they are enqueued: once the run is over, a receiver
    must not sleep out an emulated link delay that is queued ahead of the
    news.  Receivers blocked mid-deadline are woken immediately.
    """

    def __init__(self) -> None:
        self._cond = make_condition("Mailbox._cond")
        self._items: Deque[Tuple[Message, float]] = deque()  # guarded-by: _cond
        self._expedited = False  # guarded-by: _cond

    def put(self, message: Message, not_before: float = 0.0) -> None:
        """Enqueue ``message``, deliverable no earlier than ``not_before``."""
        with self._cond:
            if message.expedite:
                self._expedited = True
            self._items.append((message, not_before))
            self._cond.notify_all()

    def get(self, timeout: Optional[float] = None) -> Message:
        """Block for the next message, honouring its delivery deadline.

        Raises ``queue.Empty`` when ``timeout`` (seconds) elapses first.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                now = time.monotonic()
                wake: Optional[float] = None
                if self._items:
                    message, not_before = self._items[0]
                    if self._expedited or not_before <= now:
                        self._items.popleft()
                        return message
                    wake = not_before
                if deadline is not None:
                    if now >= deadline:
                        raise queue.Empty
                    wake = deadline if wake is None else min(wake, deadline)
                self._cond.wait(timeout=None if wake is None else max(0.0, wake - now))

    def __len__(self) -> int:
        with self._cond:
            return len(self._items)

    def approx_len(self) -> int:
        """Lock-free depth for gauges/tracing (``len(deque)`` is GIL-atomic).

        The trace's queue_depth emit runs once per server message; taking
        ``_cond`` there would contend with every producer on the hot path.
        A depth read without the lock can be off by in-flight puts — fine
        for a backpressure gauge, never for logic.
        """
        return len(self._items)


class InProcTransport:
    """Queue-based message fabric emulating per-worker links."""

    def __init__(
        self,
        num_workers: int,
        network: Optional[NetworkModel] = None,
        time_scale: float = 0.0,
        codec_name: str = "raw32",
        recorder=NULL_RECORDER,
        clock=None,
        timeout: float = 600.0,
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if time_scale < 0:
            raise ValueError("time_scale must be >= 0")
        self.num_workers = int(num_workers)
        self.network = network
        self.time_scale = float(time_scale)
        self.timeout = float(timeout)
        # trace sink + the backend's clock ("now" provider); the recorder
        # never reads time itself, so the no-op default costs one branch
        self.recorder = recorder
        self.clock = clock if clock is not None else (lambda: 0.0)
        #: the server actor's inbox: :meth:`get` reads ``_inbox``
        self.server_inbox = self
        self._inbox = Mailbox()
        #: when reads stop
        self._deadline = time.monotonic() + self.timeout
        self.worker_inboxes: List[Mailbox] = [Mailbox() for _ in range(self.num_workers)]
        self.stats = CommStats(self.num_workers)
        # Codec emulation: raw32 is the identity — messages pass by
        # reference at full float64 precision, exactly the historical
        # thread-backend behavior (sim/thread parity depends on it).  Any
        # other codec round-trips each message through its lossy encode so
        # thread runs see the same numerics and wire-byte accounting a
        # socket run would.  Uplink codecs are per worker (topk keeps a
        # residual per sender); the downlink never carries gradients, so
        # one stateless instance serves all workers.
        self.codec_name = str(codec_name or "raw32")
        if self.codec_name == "raw32":
            self._uplink_codecs = None
            self._downlink_codec = None
        else:
            self._uplink_codecs = [make_codec(self.codec_name) for _ in range(self.num_workers)]
            self._downlink_codec = make_codec(self.codec_name)

    def comm_summary(self) -> Dict[str, float]:
        """The unified :class:`CommStats` keys."""
        return self.stats.summary()

    def get(self) -> Message:
        """The next message for the server actor, in the order it was sent.

        Fails once ``timeout`` seconds have passed since the transport was
        built, even with a message waiting: the run is over time.
        """
        remaining = self._deadline - time.monotonic()
        if remaining > 0:
            with contextlib.suppress(queue.Empty):
                return self._inbox.get(timeout=remaining)
        raise RuntimeError(f"thread backend exceeded timeout={self.timeout}s")

    def approx_len(self) -> int:
        """Lock-free inbox depth for the trace's queue-depth gauge."""
        return self._inbox.approx_len()

    # ------------------------------------------------------------------ #
    def to_server(self, worker: int, message: Message, nbytes: int = 0) -> None:
        """Worker -> server send; the emulated uplink delays the caller."""
        wire = nbytes
        if self._uplink_codecs is not None:
            from repro.runtime.wire import codec_roundtrip_message

            message, wire = codec_roundtrip_message(
                message, self._uplink_codecs[worker], nbytes
            )
        self.stats.count(worker, nbytes, wire)
        if self.recorder.enabled and nbytes > 0:
            self.recorder.emit(
                self.clock(), "wire_bytes", worker,
                direction="up", logical=int(nbytes), wire=int(wire),
            )
        # a compressed message occupies the emulated uplink for its wire
        # footprint, not its logical one — that is the ablation's point
        delay = link_delay(self.network, self.time_scale, worker, wire)
        if delay > 0:
            time.sleep(delay)
        self._inbox.put(message)

    def to_worker(self, worker: int, message: Message, nbytes: int = 0) -> None:
        """Server -> worker send; the emulated downlink delays delivery.

        Never sleeps in the caller: the server actor must keep draining its
        inbox, so the delay is carried as a deadline the receiver sleeps out.
        """
        wire = nbytes
        if self._downlink_codec is not None:
            from repro.runtime.wire import codec_roundtrip_message

            message, wire = codec_roundtrip_message(message, self._downlink_codec, nbytes)
        self.stats.count(worker, nbytes, wire)
        if self.recorder.enabled and nbytes > 0:
            self.recorder.emit(
                self.clock(), "wire_bytes", worker,
                direction="down", logical=int(nbytes), wire=int(wire),
            )
        delay = link_delay(self.network, self.time_scale, worker, wire)
        not_before = time.monotonic() + delay if delay > 0 else 0.0
        self.worker_inboxes[worker].put(message, not_before=not_before)

    def to_peer(
        self, sender: int, receiver: int, message: Message, nbytes: int = 0, delay: float = 0.0
    ) -> None:
        """Worker -> worker send (gossip); ``delay`` real seconds of emulated
        per-edge occupancy are slept out in the sender, whose uplink is busy."""
        self.stats.count_peer(sender, receiver, nbytes)
        if self.recorder.enabled and nbytes > 0:
            self.recorder.emit(
                self.clock(), "wire_bytes", sender,
                direction="peer", logical=int(nbytes), wire=int(nbytes),
            )
        if delay > 0:
            time.sleep(delay)
        self.worker_inboxes[receiver].put(message)

    def wake_all_workers(self, message: Message) -> None:
        """Deliver ``message`` (Shutdown) to every worker mailbox immediately.

        The server actor gets it too, behind what the workers already
        sent, so its loop ends after draining them.
        """
        for inbox in self.worker_inboxes:
            inbox.put(message)
        self._inbox.put(message)
