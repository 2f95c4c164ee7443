"""Worker child entrypoint for the proc backend.

Run as ``python -m repro.runtime.proc_worker --host H --port P
--worker-id M`` by :class:`~repro.runtime.proc_backend.ProcBackend` —
never by hand.  The child connects to the parent and authenticates once,
with ``hello`` and the token from the ``REPRO_PROC_TOKEN`` environment
variable (``--worker-id`` names it in that hello only), then serves one
run per ``config`` frame until the parent closes the link.  Per run it:

1. takes the run's worker id and :class:`~repro.core.config.
   TrainingConfig` from ``config`` and rebuilds its replica, loader and
   timing models from ``(config, worker_id)`` via :class:`~repro.runtime.
   session.WorkerRuntime` — initialization is re-derived from the seed, so
   only weights travel over the wire after this point — with a new Timer
   and trace recorder and a freshly armed gradient codec (``comm_codec``)
   on its uplink;
2. drives the one worker cycle (:func:`repro.runtime.cycle.worker_cycle`,
   through a :class:`~repro.runtime.cycle.BlockingDriver`) free-running
   against the parent's server actor, sleeping out emulated uplink
   (``time_scale``) and compute (``compute_scale``) delays locally, until
   :class:`~repro.runtime.messages.Shutdown`;
3. streams its sidebands — worker 0's BN running statistics under
   ``bn_mode="local"`` (:class:`~repro.runtime.messages.BnStatsPush`), its
   trace rows under obs (:class:`~repro.runtime.messages.TracePush`) — then
   ``done`` with its Timer totals, and waits for the next ``config``,
   skipping the message frames of the finished run still in flight.

It exits 0 on parent EOF (an orphaned or released child never lingers),
nonzero on any failure.

Fault injection (tests only): ``REPRO_PROC_CRASH_WORKER`` /
``REPRO_PROC_CRASH_AFTER`` make the named worker die mid-run with
``os._exit`` after N cycles, exercising the parent's crash detection.
"""

from __future__ import annotations

import argparse
import os
import socket
import sys
import threading
import time
import traceback
from typing import List, Optional

from repro.core.config import TrainingConfig
from repro.nn.norm import bn_layers
from repro.obs.recorder import make_recorder
from repro.runtime.codecs import make_codec
from repro.runtime.cycle import BlockingDriver
from repro.runtime.proc_backend import TOKEN_ENV
from repro.runtime.messages import BnStatsPush, Message, Shutdown, TracePush
from repro.runtime.session import WorkerRuntime
from repro.runtime.transport import Mailbox, link_delay
from repro.runtime.wire import (
    PROTOCOL_VERSION,
    ConnectionClosed,
    ControlFrame,
    FrameConnection,
    WireError,
)

#: exit code for a config/build failure already reported over the socket
EXIT_INIT_FAILURE = 2
#: exit code for an injected test crash
EXIT_CRASH_INJECTED = 3

CRASH_WORKER_ENV = "REPRO_PROC_CRASH_WORKER"
CRASH_AFTER_ENV = "REPRO_PROC_CRASH_AFTER"


class WorkerChannel:
    """The child's half of the link: a delay-honouring inbox plus sends.

    A reader thread pumps frames into a :class:`~repro.runtime.transport.
    Mailbox`, converting each frame's ``delay`` stamp into the mailbox's
    ``not_before`` deadline — the same downlink-emulation contract (and the
    same Shutdown-expedites-delivery fix) as the in-process transport.
    Parent EOF is translated into a Shutdown so an orphaned child exits
    instead of blocking forever.
    """

    def __init__(
        self,
        conn: FrameConnection,
        worker_id: int,
        network=None,
        time_scale: float = 0.0,
    ) -> None:
        self._conn = conn
        self.worker_id = int(worker_id)
        self.network = network
        self.time_scale = float(time_scale)
        self.inbox = Mailbox()
        self._reader = threading.Thread(
            target=self._pump, name="repro-proc-channel", daemon=True
        )
        self._reader.start()

    def _pump(self) -> None:
        try:
            while True:
                message, delay = self._conn.recv()
                if not isinstance(message, Message):
                    continue  # stray control frame: handshake is over, ignore
                not_before = time.monotonic() + delay if delay > 0 else 0.0
                self.inbox.put(message, not_before=not_before)
                if isinstance(message, Shutdown):
                    return  # the run is over: the link is main()'s again
        except (ConnectionClosed, WireError, OSError):
            self.inbox.put(Shutdown())  # parent gone: end the loop, don't hang

    def to_server(self, message: Message, nbytes: int = 0) -> None:
        """Send to the parent; the emulated uplink delays this child.

        ``nbytes`` (the logical float32 accounting) rides the frame header
        so the parent's :class:`~repro.runtime.transport.CommStats` charges
        logical and wire bytes from the same receive.
        """
        delay = link_delay(self.network, self.time_scale, self.worker_id, nbytes)
        if delay > 0:
            time.sleep(delay)
        self._conn.send_message(message, nbytes=nbytes)


def run_worker(channel: WorkerChannel, runtime: WorkerRuntime, compute_scale: float) -> None:
    """Drive the worker cycle free-running until the server says Shutdown.

    The clock is the child's own (seconds since its first cycle): with an
    obs recorder on ``runtime``, span *durations* are what the parent-side
    attribution sums, so the skew between parent and child timebases never
    matters.
    """
    crash_after = _crash_after(runtime.worker_id)
    start = time.perf_counter()
    driver = BlockingDriver(
        runtime.worker,
        runtime,
        send=channel.to_server,
        recv=channel.inbox.get,
        clock=lambda: time.perf_counter() - start,
        compute_scale=compute_scale,
    )
    cycles = 0
    while True:
        if crash_after is not None and cycles >= crash_after:
            os._exit(EXIT_CRASH_INJECTED)  # simulate a SIGKILLed/crashed node
        if not driver.run_cycle():
            return
        cycles += 1


def _stream_local_bn_stats(conn: FrameConnection, runtime: WorkerRuntime) -> None:
    """After Shutdown: ship worker 0's BN running statistics to the parent.

    Under ``bn_mode="local"`` evaluation borrows worker 0's running
    statistics, which live here, in the child.  Streaming them once per
    run is what lets the proc backend evaluate local-BN configs at
    all (it used to reject them up front).  A vanished parent just means
    nobody is evaluating — exit quietly.
    """
    if runtime.worker_id != 0 or runtime.config.bn_mode != "local":
        return
    layers = bn_layers(runtime.worker.model)
    if not layers:
        return
    stats = tuple(
        (layer.running_mean.copy(), layer.running_var.copy()) for layer in layers
    )
    try:
        conn.send_message(BnStatsPush(0, stats=stats))
    except (OSError, WireError):
        pass


def _stream_trace(conn: FrameConnection, worker_id: int, recorder) -> None:
    """After Shutdown: ship this child's trace rows to the parent.

    An obs child sends exactly one :class:`TracePush` per run — even with
    zero retained rows — ahead of its ``done`` frame.  Row timestamps are
    child-clock seconds; only the span durations feed cross-process
    attribution.  A vanished parent just means nobody is aggregating —
    exit quietly.
    """
    if not recorder.enabled:
        return
    try:
        conn.send_message(TracePush(worker_id, rows=tuple(recorder.rows())))
    except (OSError, WireError):
        pass


def _crash_after(worker_id: int) -> Optional[int]:
    """Cycle count after which this worker should fake a crash, if any."""
    target = os.environ.get(CRASH_WORKER_ENV)
    if target is None or int(target) != worker_id:
        return None
    return int(os.environ.get(CRASH_AFTER_ENV, "1"))


def serve_run(conn: FrameConnection, body: dict) -> int:
    """One run, from its ``config`` body to ``done``; 0 or an exit code."""
    worker_id = body.get("worker")
    try:
        config = TrainingConfig.from_dict(body["config"])
        runtime = WorkerRuntime.from_config(config, worker_id)
        # the negotiated uplink codec: gradients (and, under fp16,
        # everything else) leave this child already compressed
        conn.codec = make_codec(body.get("codec", config.comm_codec))
    except Exception:
        # report the build failure to the parent, then exit nonzero
        conn.send_control(
            ControlFrame("error", {"traceback": traceback.format_exc()}).to_doc()
        )
        return EXIT_INIT_FAILURE
    conn.send_control(ControlFrame("ready", {"worker": worker_id}).to_doc())

    start_doc, _ = conn.recv()
    start = ControlFrame.from_doc(start_doc, expect_version=PROTOCOL_VERSION)
    if start.kind != "start":
        print(f"worker {worker_id}: expected start, got {start_doc!r}", file=sys.stderr)
        return EXIT_INIT_FAILURE
    conn.settimeout(None)

    time_scale = float(body.get("time_scale", 0.0))
    compute_scale = float(body.get("compute_scale", 0.0))
    runtime.recorder = recorder = make_recorder(
        bool(body.get("obs", False)), run_id=f"proc-worker-{worker_id}"
    )
    channel = WorkerChannel(
        conn,
        worker_id,
        network=runtime.network if time_scale > 0 else None,
        time_scale=time_scale,
    )
    run_worker(channel, runtime, compute_scale)
    _stream_local_bn_stats(conn, runtime)
    _stream_trace(conn, worker_id, recorder)
    conn.send_control(
        ControlFrame("done", {"worker": worker_id, "timers": runtime.timer.totals()}).to_doc()
    )
    return 0


def _next_control(conn: FrameConnection) -> ControlFrame:
    """The next control frame; message frames before it belong to the run
    that just ended (the parent sends its Shutdown twice) and are skipped."""
    while True:
        obj, _ = conn.recv()
        if not isinstance(obj, Message):
            return ControlFrame.from_doc(obj, expect_version=PROTOCOL_VERSION)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.runtime.proc_worker",
        description="proc-backend worker child (spawned by ProcBackend)",
    )
    parser.add_argument("--host", required=True)
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--worker-id", type=int, required=True)
    args = parser.parse_args(argv)
    worker_id = args.worker_id

    sock = socket.create_connection((args.host, args.port), timeout=60.0)
    conn = FrameConnection(sock)
    try:
        conn.send_control(
            ControlFrame(
                "hello", {"worker": worker_id, "token": os.environ.get(TOKEN_ENV, "")}
            ).to_doc()
        )
        while True:
            frame = _next_control(conn)
            if frame.kind == "reject":
                print(
                    f"worker {worker_id}: parent rejected the handshake: "
                    f"{frame.body.get('reason', '')}",
                    file=sys.stderr,
                )
                return EXIT_INIT_FAILURE
            if frame.kind != "config" or "config" not in frame.body:
                print(f"worker {worker_id}: bad config frame {frame!r}", file=sys.stderr)
                return EXIT_INIT_FAILURE
            code = serve_run(conn, frame.body)
            if code:
                return code
    except (ConnectionClosed, BrokenPipeError, ConnectionResetError):
        # the parent let go (exit, crash, SIGKILL): exit quietly, never linger
        return 0
    except BaseException:
        traceback.print_exc()
        return 1
    finally:
        conn.close()


if __name__ == "__main__":
    sys.exit(main())
