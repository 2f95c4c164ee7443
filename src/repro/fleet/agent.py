"""Fleet agent daemon: accept jobs over TCP, run them, stream results.

``repro agent --bind HOST:PORT --slots N`` starts one of these on every
machine that should contribute compute to a campaign.  The agent:

1. listens for a scheduler (:class:`~repro.fleet.scheduler.FleetExecutor`)
   and answers its ``FleetHello`` with a ``Welcome`` announcing ``slots`` —
   the number of cells it will run concurrently;
2. executes each incoming ``Job`` frame's :class:`~repro.experiments.spec.
   ExperimentSpec` on a worker pool via the ordinary backend registry
   (:func:`~repro.experiments.executors.execute_spec` — sim, thread and
   proc specs all work, the agent is just a remote executor slot);
3. streams every :class:`~repro.core.metrics.CurvePoint` back as it is
   recorded, then the final :class:`~repro.core.metrics.RunResult`;
4. heartbeats on an interval so the scheduler can tell a slow cell from a
   dead host, and reports a cell's own exception as a ``JobError`` frame
   (the agent survives; deciding whether to retry is the scheduler's job).

Heartbeats flow both ways: the scheduler pulses too, and a session socket
silent for ``SESSION_SILENCE_FACTOR`` intervals — a connection that never
says hello, or a scheduler host that vanished without FIN — is abandoned
rather than holding the session slot forever.

One scheduler at a time: a second connection during an active session is
turned away with a ``Busy`` frame.  A scheduler disconnect abandons the
session — queued cells are dropped, in-flight ones are waited out (their
frames go nowhere) so the next session gets the full advertised slots —
and the agent goes back to listening, so one daemon serves many
campaigns.

The daemon trusts its network: anyone who can reach the port can submit
jobs.  Bind to localhost or a private interface, exactly like the
examples in README's "Fleet mode".
"""

from __future__ import annotations

import os
import socket
import threading
import traceback
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional, Tuple

from repro.analysis.lockorder import make_lock
from repro.fleet.protocol import FleetProtocolError
from repro.runtime.messages import (
    Busy,
    FleetHello,
    Frame,
    Heartbeat,
    Job,
    JobCurvePoint,
    JobError,
    JobResult,
    JobTrace,
    Welcome,
)
from repro.runtime.wire import ConnectionClosed, FrameConnection, WireError
from repro.utils.logging import get_logger
from repro.utils.serialization import to_jsonable

logger = get_logger("fleet.agent")

#: default seconds between heartbeat frames — both directions: the agent
#: pulses the scheduler, and the scheduler pulses the agent (AgentLink).
#: Either side's liveness window must comfortably exceed the other's
#: interval; both default to 5x.
HEARTBEAT_INTERVAL = 2.0

#: how many heartbeat intervals of total silence the agent tolerates on a
#: session socket (covers a never-sent hello, a port-scan connection, and
#: a scheduler host that vanished without FIN) before abandoning it
SESSION_SILENCE_FACTOR = 5.0

#: seconds a newcomer waits for the session slot before it is told ``Busy``:
#: a scheduler that has just hung up is still being torn down on its session
#: thread, and the same driver's next campaign must not lose that race
SESSION_HANDOFF_GRACE = 0.5


class FleetAgent:
    """One job-running daemon; embeddable (tests) or CLI-run (deployment)."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        slots: int = 1,
        heartbeat_interval: float = HEARTBEAT_INTERVAL,
        session_timeout: float = 0.0,
    ) -> None:
        if slots < 1:
            raise ValueError("slots must be >= 1")
        if heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if session_timeout < 0:
            raise ValueError("session_timeout must be >= 0")
        self.host = host
        self.port = int(port)
        self.slots = int(slots)
        self.heartbeat_interval = float(heartbeat_interval)
        # the silence window bounds the *scheduler's* frame cadence, which
        # pulses at the protocol constant — never derive it from this
        # agent's own (tunable) outbound interval alone, or a low
        # --heartbeat would make the agent abandon perfectly live sessions
        self.session_timeout = float(session_timeout) or (
            SESSION_SILENCE_FACTOR * max(self.heartbeat_interval, HEARTBEAT_INTERVAL)
        )
        self._listener: Optional[socket.socket] = None
        self._thread: Optional[threading.Thread] = None
        self._stopping = threading.Event()
        self._live_conns: List[FrameConnection] = []  # guarded-by: _conns_lock
        self._conns_lock = make_lock("FleetAgent._conns_lock")
        self._session_lock = make_lock("FleetAgent._session_lock")  # one scheduler at a time
        self._name: Optional[str] = None  # cached at start (survives close)

    # ------------------------------------------------------------------ #
    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port) — call after :meth:`start`."""
        if self._listener is None:
            raise RuntimeError("agent is not started")
        return self._listener.getsockname()[:2]

    @property
    def name(self) -> str:
        if self._name is None:
            raise RuntimeError("agent is not started")
        return self._name

    def start(self) -> "FleetAgent":
        """Bind and serve on a background thread; returns self."""
        if self._listener is not None:
            raise RuntimeError("agent already started")
        self._listener = socket.create_server((self.host, self.port))
        self._listener.settimeout(0.2)
        host, port = self._listener.getsockname()[:2]
        self._name = f"{host}:{port}#pid{os.getpid()}"
        self._thread = threading.Thread(
            target=self._accept_loop, name="repro-fleet-agent", daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Blocking variant of :meth:`start` (the CLI entrypoint)."""
        self.start()
        try:
            while not self._stopping.wait(timeout=0.5):
                pass
        except KeyboardInterrupt:
            pass
        finally:
            self.close()

    def close(self) -> None:
        """Graceful stop: no new sessions; live sockets are closed."""
        self._stopping.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        with self._conns_lock:
            conns = list(self._live_conns)
        for conn in conns:
            conn.close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)

    def kill(self) -> None:
        """Abrupt death for tests: drop every socket with no goodbye.

        From the scheduler's side this is indistinguishable from a crashed
        or SIGKILLed host — EOF mid-session — which is exactly the fault
        the requeue path must survive.
        """
        self.close()

    # ------------------------------------------------------------------ #
    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._stopping.is_set():
            try:
                sock, peer = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # listener closed under us: shutting down
            conn = FrameConnection(sock)
            with self._conns_lock:
                self._live_conns.append(conn)
            threading.Thread(
                target=self._handle_conn,
                args=(conn, peer),
                name="repro-fleet-session",
                daemon=True,
            ).start()

    def _handle_conn(self, conn: FrameConnection, peer) -> None:
        if not self._session_lock.acquire(timeout=SESSION_HANDOFF_GRACE):
            # a scheduler is already attached; don't leave the newcomer
            # hanging in the backlog wondering if we are dead
            try:
                conn.send_message(Busy(self.name))
            except (OSError, WireError):
                pass
            conn.close()
            with self._conns_lock:
                if conn in self._live_conns:
                    self._live_conns.remove(conn)
            return
        try:
            logger.info("agent %s: session from %s", self.name, peer)
            # a silent peer must not wedge the daemon while it holds the
            # session lock: every read (hello included) gets a deadline,
            # and the scheduler's own heartbeats keep a live-but-idle
            # session comfortably inside it
            conn.settimeout(self.session_timeout)
            self._serve_session(conn)
        except socket.timeout:
            logger.warning(
                "agent %s: session from %s silent for %.0fs, abandoning it",
                self.name, peer, self.session_timeout,
            )
        except (ConnectionClosed, WireError, OSError, FleetProtocolError) as exc:
            logger.info("agent %s: session ended (%s)", self.name, exc)
        finally:
            self._session_lock.release()
            conn.close()
            with self._conns_lock:
                if conn in self._live_conns:
                    self._live_conns.remove(conn)

    def _serve_session(self, conn: FrameConnection) -> None:
        """One scheduler session: hello/welcome, then jobs until EOF."""
        hello, _ = conn.recv()
        if not isinstance(hello, FleetHello):
            raise FleetProtocolError(f"expected FleetHello, got {type(hello).__name__}")
        send_lock = make_lock("FleetAgent.send_lock")
        self._send(conn, send_lock, Welcome(self.slots, self.name))

        hb_stop = threading.Event()
        hb = threading.Thread(
            target=self._heartbeat_loop,
            args=(conn, send_lock, hb_stop),
            name="repro-fleet-heartbeat",
            daemon=True,
        )
        hb.start()
        pool = ThreadPoolExecutor(
            max_workers=self.slots, thread_name_prefix="repro-fleet-slot"
        )
        try:
            while True:
                frame, _ = conn.recv()
                if isinstance(frame, Heartbeat):
                    continue  # the scheduler proving it is still there
                if not isinstance(frame, Job):
                    raise FleetProtocolError(
                        f"agent received a {type(frame).__name__} frame mid-session"
                    )
                pool.submit(self._run_job, conn, send_lock, frame)
        finally:
            hb_stop.set()
            # drop queued cells, but wait out the in-flight ones (their
            # sends fail quietly inside _send): releasing the session lock
            # while cells still compute would let the next scheduler
            # oversubscribe the advertised slots — poison for a project
            # whose point is honest wall-clock measurements
            pool.shutdown(wait=True, cancel_futures=True)

    def _heartbeat_loop(
        self, conn: FrameConnection, send_lock: threading.Lock, stop: threading.Event
    ) -> None:
        n = 0
        while not stop.wait(timeout=self.heartbeat_interval):
            n += 1
            if not self._send(conn, send_lock, Heartbeat(n)):
                return

    def _run_job(self, conn, send_lock, job: Job) -> None:
        """Execute one cell and stream its progress/result/error back.

        ``obs`` jobs run with a live trace recorder whose rows are shipped
        in one :class:`JobTrace` *before* the result — the scheduler still
        holds the job in its inflight map at that point, so the rows are
        attributable to the cell.
        """
        from repro.experiments.executors import execute_spec
        from repro.experiments.spec import ExperimentSpec
        from repro.obs.recorder import TraceRecorder

        recorder = None
        try:
            spec = ExperimentSpec.from_dict(job.spec)  # key-verified
            logger.info("agent %s: job %s = %s", self.name, job.id, spec.label())
            if job.obs:
                recorder = TraceRecorder(run_id=f"{self.name}:{spec.label()}")
            result = execute_spec(
                spec,
                on_curve_point=lambda point: self._send(
                    conn, send_lock, JobCurvePoint(job.id, to_jsonable(point.to_dict()))
                ),
                recorder=recorder,
            )
        except BaseException as exc:
            # the cell failed, not the agent: report and keep serving
            self._send(
                conn, send_lock, JobError(job.id, repr(exc), traceback.format_exc())
            )
            return
        if recorder is not None:
            self._send(conn, send_lock, JobTrace(job.id, tuple(recorder.rows())))
        self._send(conn, send_lock, JobResult(job.id, to_jsonable(result.to_dict())))

    def _send(self, conn: FrameConnection, send_lock: threading.Lock, frame: Frame) -> bool:
        """Locked send; a dead scheduler just ends the stream."""
        try:
            with send_lock:
                conn.send_message(frame)
            return True
        except (OSError, WireError):
            return False


# ---------------------------------------------------------------------- #
# the ``repro agent`` command
# ---------------------------------------------------------------------- #
def serve(
    bind: str,
    slots: int = 1,
    heartbeat: Optional[float] = None,
    port_file: Optional[str] = None,
) -> int:
    """Run one agent daemon until interrupted — all of ``repro agent``.

    The CLI parses the flags and calls this.  ``port_file`` gets the
    bound ``host:port`` written atomically once listening (how scripts
    that bind port 0 learn the address).
    """
    host, _, port = bind.rpartition(":")
    if not host:
        raise SystemExit(f"--bind expects HOST:PORT, got {bind!r}")
    try:
        agent = FleetAgent(
            host,
            int(port),
            slots=slots,
            heartbeat_interval=HEARTBEAT_INTERVAL if heartbeat is None else heartbeat,
        )
    except ValueError as exc:
        raise SystemExit(str(exc))
    agent.start()
    bound_host, bound_port = agent.address
    print(f"agent listening on {bound_host}:{bound_port} ({slots} slot(s))", flush=True)
    if port_file:
        tmp = f"{port_file}.tmp"
        with open(tmp, "w") as fh:
            fh.write(f"{bound_host}:{bound_port}\n")
        os.replace(tmp, port_file)  # atomic: readers never see a partial line
    try:
        while True:
            threading.Event().wait(0.5)
    except KeyboardInterrupt:
        pass
    finally:
        agent.close()
    return 0
