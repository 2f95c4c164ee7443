"""Worker child entrypoint for the proc backend.

Run as ``python -m repro.runtime.proc_worker --host H --port P
--worker-id M`` by :class:`~repro.runtime.proc_backend.ProcBackend` —
never by hand.  The child connects to the parent and authenticates once,
with a :class:`~repro.runtime.messages.Hello` carrying the token from the
``REPRO_PROC_TOKEN`` environment variable (``--worker-id`` names it in
that hello only), then serves one run per
:class:`~repro.runtime.messages.RunConfig` until the parent closes the
link.  Per run it:

1. takes the run's worker id and :class:`~repro.core.config.
   TrainingConfig` from the RunConfig and rebuilds its replica, loader and
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
3. ends the run with one :class:`~repro.runtime.messages.RunEnd`: its
   Timer totals, worker 0's BN running statistics under
   ``bn_mode="local"`` and its trace rows under obs; then it waits for the
   next RunConfig, skipping the message frames of the finished run still
   in flight.

It exits 0 on parent EOF (an orphaned or released child never lingers),
nonzero on any failure.

Fault injection (tests only): ``REPRO_PROC_CRASH_WORKER`` /
``REPRO_PROC_CRASH_AFTER`` make the named worker die mid-run with
``os._exit`` after N cycles, exercising the parent's crash detection.
"""

from __future__ import annotations

import argparse
import os
import select
import socket
import sys
import time
import traceback
from typing import List, Optional

from repro.core.config import TrainingConfig
from repro.nn.norm import bn_layers
from repro.obs.recorder import make_recorder
from repro.runtime.codecs import make_codec
from repro.runtime.cycle import BlockingDriver
from repro.runtime.proc_backend import TOKEN_ENV
from repro.runtime.messages import (
    Hello,
    Message,
    Ready,
    Reject,
    RunConfig,
    RunEnd,
    SetupError,
    Shutdown,
    Start,
)
from repro.runtime.session import WorkerRuntime
from repro.runtime.transport import link_delay
from repro.runtime.wire import ConnectionClosed, FrameConnection, ProtocolMismatch, WireError

#: exit code for a config/build failure already reported over the socket
EXIT_INIT_FAILURE = 2
#: exit code for an injected test crash
EXIT_CRASH_INJECTED = 3

CRASH_WORKER_ENV = "REPRO_PROC_CRASH_WORKER"
CRASH_AFTER_ENV = "REPRO_PROC_CRASH_AFTER"


class WorkerChannel:
    """The child's half of the link, read on the thread that runs the cycle.

    :meth:`recv` reads the next message frame and sleeps out its
    ``delay`` stamp — the same downlink-emulation contract as the
    in-process transport — cut short as soon as another frame (the run's
    Shutdown: a child awaits one reply at a time) arrives behind it.
    Parent EOF is translated into a Shutdown so an orphaned child exits
    instead of blocking forever.  No thread: a reader thread here and the
    parent's socket wake-ups made both processes' working threads change
    CPU on nearly every update.
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

    def recv(self) -> Message:
        """The next message from the parent, once its emulated downlink delay is over."""
        try:
            message, delay = self._conn.recv()
            while not isinstance(message, Message):
                message, delay = self._conn.recv()  # a stray handshake frame
        except (ConnectionClosed, WireError, OSError):
            return Shutdown()  # parent gone: end the loop, don't hang
        if delay > 0 and not isinstance(message, Shutdown):
            select.select([self._conn], [], [], delay)
        return message

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
        recv=channel.recv,
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


def _crash_after(worker_id: int) -> Optional[int]:
    """Cycle count after which this worker should fake a crash, if any."""
    target = os.environ.get(CRASH_WORKER_ENV)
    if target is None or int(target) != worker_id:
        return None
    return int(os.environ.get(CRASH_AFTER_ENV, "1"))


def serve_run(conn: FrameConnection, run: RunConfig) -> int:
    """One run, from its RunConfig to its RunEnd; 0 or an exit code."""
    worker_id = run.worker
    try:
        config = TrainingConfig.from_dict(run.config)
        runtime = WorkerRuntime.from_config(config, worker_id)
        # the negotiated uplink codec: gradients (and, under fp16,
        # everything else) leave this child already compressed
        conn.codec = make_codec(config.comm_codec)
    except Exception:
        # report the build failure to the parent, then exit nonzero
        conn.send_message(SetupError(traceback.format_exc()))
        return EXIT_INIT_FAILURE
    conn.send_message(Ready(worker_id))

    start, _ = conn.recv()
    if not isinstance(start, Start):
        print(f"worker {worker_id}: expected Start, got {start!r}", file=sys.stderr)
        return EXIT_INIT_FAILURE
    conn.settimeout(None)

    runtime.recorder = recorder = make_recorder(run.obs, run_id=f"proc-worker-{worker_id}")
    channel = WorkerChannel(
        conn,
        worker_id,
        network=runtime.network if run.time_scale > 0 else None,
        time_scale=run.time_scale,
    )
    run_worker(channel, runtime, run.compute_scale)
    # evaluation under bn_mode="local" borrows worker 0's running
    # statistics, which live here, in the child
    bn_stats = ()
    if worker_id == 0 and config.bn_mode == "local":
        bn_stats = tuple(
            (layer.running_mean, layer.running_var)
            for layer in bn_layers(runtime.worker.model)
        )
    conn.send_message(
        RunEnd(timers=runtime.timer.totals(), bn_stats=bn_stats, rows=tuple(recorder.rows()))
    )
    return 0


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
        conn.send_message(Hello(worker_id, os.environ.get(TOKEN_ENV, "")))
        while True:
            frame, _ = conn.recv()
            if isinstance(frame, Message):
                continue  # a frame of the run that just ended, after its Shutdown
            if isinstance(frame, Reject):
                print(
                    f"worker {worker_id}: parent rejected the handshake: {frame.reason}",
                    file=sys.stderr,
                )
                return EXIT_INIT_FAILURE
            if not isinstance(frame, RunConfig):
                print(f"worker {worker_id}: expected RunConfig, got {frame!r}", file=sys.stderr)
                return EXIT_INIT_FAILURE
            code = serve_run(conn, frame)
            if code:
                return code
    except ProtocolMismatch as exc:
        print(f"worker {worker_id}: {exc}", file=sys.stderr)
        return EXIT_INIT_FAILURE
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
