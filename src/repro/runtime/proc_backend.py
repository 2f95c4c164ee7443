"""Process execution backend: real OS-process workers over sockets.

The parameter server runs in the parent exactly as in the thread backend
(the shared :func:`~repro.runtime.server_actor.server_actor_loop` drives
Algorithm 2 from one actor thread); each of the ``M`` workers is a real
child process (:mod:`repro.runtime.proc_worker`) connected over a loopback
TCP socket speaking the :mod:`repro.runtime.wire` protocol.  Unlike the
thread backend there is no shared GIL: staleness and wall-clock numbers
come from genuinely independent compute plus real kernel socket queues.

Startup handshake (typed :class:`~repro.runtime.wire.ControlFrame`
documents, protocol v2)::

    child  -> parent   hello   {"worker": id, "token": ...}
    parent -> child    config  {"config": ..., "codec": ..., scales...}
    child  -> parent   ready   {"worker": id}   (or error {"traceback"})
    parent -> child    start   {}

The config frame names the negotiated gradient codec
(``TrainingConfig.comm_codec``); both directions then run it on every
array payload.  A peer speaking another protocol version is rejected on
its first frame with a reason (best-effort ``reject`` control frame back)
and the run fails fast instead of hanging.

No weights travel at startup: the child rebuilds its replica + loader from
``(TrainingConfig, worker_id)`` via :class:`~repro.runtime.session.
WorkerRuntime` — identical initialization is re-derived from the seed, and
only weights/gradients/BN stats cross the wire afterwards.

Failure containment: a child that dies (crash, OOM-kill, nonzero exit)
surfaces as a run failure within seconds — its socket EOF and its exit
code are both watched — and every child is reaped (terminate, then kill)
before ``run`` returns, so a crashed run can never leave orphan processes
or a hung parent behind.

``bn_mode="local"`` evaluation borrows worker 0's running BN statistics,
which live in a child's address space here; the child streams them back
at shutdown (:class:`~repro.runtime.messages.BnStatsPush`) and the final
evaluation installs them.  Mid-run curve points in this mode use the
parent eval model's own (initial) running statistics — if you need a
faithful local-BN *curve*, use the sim or thread backend.
"""

from __future__ import annotations

import os
import secrets
import socket
import subprocess
import sys
import threading
import time
from typing import Callable, Dict, List, Optional

from repro.analysis.lockorder import make_lock
from repro.cluster.network import NetworkModel
from repro.core.metrics import RunResult
from repro.nn.norm import bn_layers, load_bn_running_stats
from repro.runtime.codecs import make_codec
from repro.obs.recorder import NULL_RECORDER
from repro.runtime.messages import BnStatsPush, Message, Shutdown, TracePush
from repro.runtime.server_actor import RunControl, server_actor_loop
from repro.runtime.session import ExperimentPlan, ExperimentSession
from repro.runtime.transport import CommStats, Mailbox, link_delay
from repro.runtime.wire import (
    PROTOCOL_VERSION,
    ControlFrame,
    FrameConnection,
    ProtocolMismatch,
    WireError,
)
from repro.utils.logging import get_logger

logger = get_logger("runtime.proc")

#: env var carrying the per-run handshake token to children (env, not argv:
#: command lines are world-readable in ``ps``)
TOKEN_ENV = "REPRO_PROC_TOKEN"


class SocketTransport:
    """The server-side message fabric over per-worker socket links.

    Exposes the same surface as :class:`~repro.runtime.transport.
    InProcTransport` — ``server_inbox`` / ``to_server`` / ``to_worker`` /
    ``wake_all_workers`` — so :func:`server_actor_loop` runs unchanged.
    The link-delay contract also carries over: worker -> server sends
    charge the sender's uplink (the child sleeps before writing), and
    server -> worker messages are stamped with a ``delay`` the child's
    mailbox sleeps out, so the server actor is never blocked by a slow
    emulated downlink.

    One reader thread per attached worker drains its socket into
    ``server_inbox``; an unexpected EOF or garbled frame is reported
    through ``on_worker_failure`` so the backend can fail the run instead
    of hanging on a mailbox that will never fill.
    """

    def __init__(
        self,
        num_workers: int,
        network: Optional[NetworkModel] = None,
        time_scale: float = 0.0,
        recorder=NULL_RECORDER,
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if time_scale < 0:
            raise ValueError("time_scale must be >= 0")
        self.num_workers = int(num_workers)
        self.network = network
        self.time_scale = float(time_scale)
        self.server_inbox = Mailbox()
        #: unified byte accounting (uplink frames measured as received,
        #: downlink frames as sent — real socket bytes, codec included)
        self.stats = CommStats(self.num_workers)
        self._conns: List[Optional[FrameConnection]] = [None] * self.num_workers
        self._send_locks = [
            make_lock("SocketTransport._send_lock") for _ in range(self.num_workers)
        ]
        self._readers: List[threading.Thread] = []
        self._closed = threading.Event()
        #: called as (worker, exception) when a link dies mid-run
        self.on_worker_failure: Optional[Callable[[int, Exception], None]] = None
        self._bn_lock = make_lock("SocketTransport._bn_lock")
        #: worker -> BN running stats streamed at shutdown (bn_mode="local");
        #: written by per-worker reader threads, read after bn_stats_ready
        self.bn_stats: Dict[int, tuple] = {}  # guarded-by: _bn_lock
        self.bn_stats_ready = threading.Event()
        #: the plan's recorder; obs children stream their trace rows here
        #: at shutdown (TracePush — same sideband contract as BN stats)
        self.recorder = recorder
        self._trace_lock = make_lock("SocketTransport._trace_lock")
        self._trace_seen = 0  # guarded-by: _trace_lock
        #: set once every worker's TracePush landed (obs runs only)
        self.trace_ready = threading.Event()

    # ------------------------------------------------------------------ #
    def attach(self, worker: int, conn: FrameConnection) -> None:
        """Bind ``worker``'s connection and start draining it."""
        if self._conns[worker] is not None:
            raise ValueError(f"worker {worker} already attached")
        self._conns[worker] = conn
        reader = threading.Thread(
            target=self._reader_loop,
            args=(worker, conn),
            name=f"repro-proc-reader-{worker}",
            daemon=True,
        )
        self._readers.append(reader)
        reader.start()

    def _reader_loop(self, worker: int, conn: FrameConnection) -> None:
        try:
            while True:
                message, _, nbytes, wire_nbytes = conn.recv_info()
                if not isinstance(message, Message):
                    raise WireError(
                        f"worker {worker} sent a control frame mid-run: {message!r}"
                    )
                self.stats.count(worker, nbytes, wire_nbytes)
                if isinstance(message, BnStatsPush):
                    # shutdown-time sideband, not Algorithm-2 traffic: the
                    # server actor has already drained by the time it lands
                    with self._bn_lock:
                        self.bn_stats[worker] = message.stats
                    self.bn_stats_ready.set()
                    continue
                if isinstance(message, TracePush):
                    # same sideband: merge the child's trace rows (each one
                    # re-validated against the event registry on ingestion)
                    if self.recorder.enabled:
                        self.recorder.ingest_rows(message.rows)
                    with self._trace_lock:
                        self._trace_seen += 1
                        if self._trace_seen >= self.num_workers:
                            self.trace_ready.set()
                    continue
                self.server_inbox.put(message)
        except Exception as exc:
            # broad on purpose: any escape (EOF, garbled frame, a decode
            # KeyError from a version-skewed child) must fail the run fast
            # rather than silently kill this thread and hang the server
            # actor until the backend timeout
            if self._closed.is_set():
                return  # expected teardown
            if self.on_worker_failure is not None:
                self.on_worker_failure(worker, exc)

    # ------------------------------------------------------------------ #
    def to_server(self, worker: int, message: Message, nbytes: int = 0) -> None:
        """Worker -> server send; the emulated uplink delays the caller.

        On the parent side this is a loopback used by tests and tooling —
        live worker traffic arrives through the reader threads, with the
        uplink delay slept in the child (same contract, other process).
        """
        delay = link_delay(self.network, self.time_scale, worker, nbytes)
        if delay > 0:
            time.sleep(delay)
        self.stats.count(worker, nbytes)
        self.server_inbox.put(message)

    def to_worker(self, worker: int, message: Message, nbytes: int = 0) -> None:
        """Server -> worker send; the delay rides the frame, not the caller."""
        conn = self._conns[worker]
        if conn is None:
            raise RuntimeError(f"worker {worker} is not attached")
        delay = link_delay(self.network, self.time_scale, worker, nbytes)
        with self._send_locks[worker]:
            wire_nbytes = conn.send_message(message, delay=delay, nbytes=nbytes)
        self.stats.count(worker, nbytes, wire_nbytes)

    def comm_summary(self) -> Dict[str, float]:
        """The unified :class:`CommStats` keys."""
        return self.stats.summary()

    def wake_all_workers(self, message: Message) -> None:
        """Deliver ``message`` to every live worker; dead links are skipped."""
        for worker, conn in enumerate(self._conns):
            if conn is None:
                continue
            try:
                with self._send_locks[worker]:
                    conn.send_message(message)
            except (OSError, WireError):
                pass  # a dying child already surfaced through its reader

    def close(self) -> None:
        """Tear down every link; reader EOFs after this are expected."""
        self._closed.set()
        for conn in self._conns:
            if conn is not None:
                conn.close()
        for reader in self._readers:
            reader.join(timeout=5.0)


class ProcBackend:
    """Execute an :class:`ExperimentPlan` on real OS-process workers.

    Parameters
    ----------
    time_scale:
        Real seconds of emulated link delay per virtual second of the
        plan's network model (0 disables link emulation).
    compute_scale:
        Real seconds each child sleeps per virtual second of its compute
        model, emulating heterogeneous/straggling nodes (0 disables).
    timeout:
        Hard cap in real seconds on the training phase before the run is
        declared hung (crashed children fail faster, via EOF/exit-code).
    startup_timeout:
        Cap on spawn + import + dataset/replica rebuild + handshake.
    """

    name = "proc"
    #: replicas live in the children; plan builders skip the parent's M
    needs_worker_replicas = False

    def __init__(
        self,
        time_scale: float = 0.0,
        compute_scale: float = 0.0,
        timeout: float = 600.0,
        startup_timeout: float = 120.0,
    ) -> None:
        if time_scale < 0 or compute_scale < 0:
            raise ValueError("time_scale and compute_scale must be >= 0")
        if timeout <= 0 or startup_timeout <= 0:
            raise ValueError("timeout and startup_timeout must be positive")
        self.time_scale = float(time_scale)
        self.compute_scale = float(compute_scale)
        self.timeout = float(timeout)
        self.startup_timeout = float(startup_timeout)

    # ------------------------------------------------------------------ #
    def run(self, plan: ExperimentPlan) -> RunResult:
        """Run the plan on real worker processes and return its RunResult."""
        config = plan.config
        if config.algorithm == "ad-psgd":
            raise ValueError(
                "the proc backend is a parameter-server runtime; run 'ad-psgd' "
                "on the gossip backend (or sim/thread, which delegate to it)"
            )
        # bn_mode="local" evaluation borrows worker 0's running BN stats,
        # which live in a child here: the child streams them back at
        # shutdown (BnStatsPush) and the final evaluation below uses them.
        # Mid-run curve points see the eval model's own (initial) running
        # stats — only the final point is faithful in this mode.
        needs_local_bn = config.bn_mode == "local" and bool(bn_layers(plan.eval_model))
        session = ExperimentSession(plan)
        num_workers = config.num_workers
        transport = SocketTransport(
            num_workers,
            network=plan.network if self.time_scale > 0 else None,
            time_scale=self.time_scale,
            recorder=plan.recorder,
        )
        ctl = RunControl()
        procs: List[subprocess.Popen] = []
        listener: Optional[socket.socket] = None
        server_thread: Optional[threading.Thread] = None
        try:
            listener = socket.create_server(("127.0.0.1", 0))
            listener.settimeout(0.2)
            port = listener.getsockname()[1]
            token = secrets.token_hex(16)
            procs = self._spawn_children(num_workers, port, token)
            conns = self._handshake(
                listener, procs, token, config,
                obs=bool(getattr(plan.recorder, "enabled", False)),
            )

            def worker_link_failed(worker: int, exc: Exception) -> None:
                if not ctl.done.is_set():
                    ctl.fail(
                        RuntimeError(
                            f"worker child {worker} dropped its connection "
                            f"before the run finished ({exc})"
                        )
                    )

            transport.on_worker_failure = worker_link_failed
            # start everyone: frames a child sends before its reader attaches
            # simply buffer in the socket
            for worker, conn in conns.items():
                conn.send_control(ControlFrame("start", {}).to_doc())
            for worker, conn in conns.items():
                transport.attach(worker, conn)

            ctl.start_clock()
            server_thread = threading.Thread(
                target=server_actor_loop,
                args=(session, transport, ctl),
                name="repro-proc-server",
                daemon=True,
            )
            server_thread.start()

            self._supervise(ctl, procs)

            transport.wake_all_workers(Shutdown())
            transport.server_inbox.put(Shutdown())
            server_thread.join(timeout=30.0)
            elapsed = ctl.clock()
            self._reap(procs)

            ctl.raise_if_failed()
            if server_thread.is_alive():
                raise RuntimeError("proc backend failed to join its server actor")

            if plan.recorder.enabled and not transport.trace_ready.wait(timeout=10.0):
                # children are reaped, so a missing push can only mean a
                # crashed-then-restarted run path: degrade, don't fail
                logger.warning(
                    "obs: not every worker child streamed its trace rows"
                )

            if needs_local_bn:
                # children have exited (reaped above), so the stats frame is
                # at worst still in the reader thread's hands — wait for it
                if not transport.bn_stats_ready.wait(timeout=30.0) or 0 not in transport.bn_stats:
                    raise RuntimeError(
                        "bn_mode='local': worker child 0 exited without "
                        "streaming its BN running statistics"
                    )
                load_bn_running_stats(plan.eval_model, list(transport.bn_stats[0]))
                session.record_point(elapsed)  # the one faithful local-BN point
            session.ensure_final_eval(elapsed)
            logger.info(
                "proc backend finished: algo=%s M=%d updates=%d wall=%.2fs",
                config.algorithm, num_workers, plan.server.batches_processed, elapsed,
            )
            return session.build_result(
                elapsed,
                backend=self.name,
                wall_time=elapsed,
                comm=transport.comm_summary(),
                codec=config.comm_codec,
            )
        finally:
            transport.close()
            if listener is not None:
                listener.close()
            self._reap(procs, force=True)

    # ------------------------------------------------------------------ #
    def _spawn_children(
        self, num_workers: int, port: int, token: str
    ) -> List[subprocess.Popen]:
        """Launch one ``python -m repro.runtime.proc_worker`` per worker."""
        import repro

        env = dict(os.environ)
        env[TOKEN_ENV] = token
        # children must import the same repro the parent runs, installed or not
        src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        existing = env.get("PYTHONPATH", "")
        if src_root not in existing.split(os.pathsep):
            env["PYTHONPATH"] = src_root + (os.pathsep + existing if existing else "")
        procs = []
        for worker in range(num_workers):
            procs.append(
                subprocess.Popen(
                    [
                        sys.executable, "-m", "repro.runtime.proc_worker",
                        "--host", "127.0.0.1",
                        "--port", str(port),
                        "--worker-id", str(worker),
                    ],
                    env=env,
                )
            )
        return procs

    def _handshake(
        self,
        listener: socket.socket,
        procs: List[subprocess.Popen],
        token: str,
        config,
        obs: bool = False,
    ) -> Dict[int, FrameConnection]:
        """Accept, authenticate, configure and confirm every worker child."""
        num_workers = len(procs)
        deadline = time.monotonic() + self.startup_timeout
        conns: Dict[int, FrameConnection] = {}
        try:
            while len(conns) < num_workers:
                self._check_startup(procs, deadline, phase="connect")
                try:
                    sock, _ = listener.accept()
                except socket.timeout:
                    continue
                sock.settimeout(self.startup_timeout)
                conn = FrameConnection(sock)
                try:
                    doc, _ = conn.recv()
                    hello = ControlFrame.from_doc(doc, expect_version=PROTOCOL_VERSION)
                except ProtocolMismatch as exc:
                    # a version-skewed child: tell it why (best effort — it
                    # may not parse our frames either), then fail the run
                    # fast rather than time the handshake out
                    self._reject(conn, str(exc))
                    raise RuntimeError(f"proc handshake rejected a peer: {exc}") from exc
                except WireError:
                    logger.warning("rejecting stray connection during handshake")
                    conn.close()
                    continue
                worker_id = hello.body.get("worker")
                if (
                    hello.kind != "hello"
                    or not secrets.compare_digest(
                        str(hello.body.get("token", "")), token
                    )
                    or not isinstance(worker_id, int)
                    or not 0 <= worker_id < num_workers
                    or worker_id in conns
                ):
                    logger.warning("rejecting stray connection during handshake")
                    conn.close()
                    continue
                conns[worker_id] = conn
            frame = ControlFrame(
                "config",
                {
                    "config": config.to_dict(),
                    "codec": config.comm_codec,
                    "time_scale": self.time_scale,
                    "compute_scale": self.compute_scale,
                    "obs": bool(obs),
                },
            )
            for worker, conn in conns.items():
                conn.send_control(frame.to_doc())
            for worker, conn in conns.items():
                self._check_startup(procs, deadline, phase="initialize")
                doc, _ = conn.recv()
                ready = ControlFrame.from_doc(doc, expect_version=PROTOCOL_VERSION)
                if ready.kind == "error":
                    raise RuntimeError(
                        f"worker child {worker} failed to initialize:\n"
                        f"{ready.body.get('traceback', '')}"
                    )
                if ready.kind != "ready" or ready.body.get("worker") != worker:
                    raise RuntimeError(
                        f"worker child {worker} broke the handshake: {doc!r}"
                    )
                # the negotiated downlink codec (per connection: topk keeps
                # per-receiver state, and decode is stateless anyway)
                conn.codec = make_codec(config.comm_codec)
                conn.settimeout(None)  # back to blocking for the run
        except BaseException:
            for conn in conns.values():
                conn.close()
            raise
        return conns

    @staticmethod
    def _reject(conn: FrameConnection, reason: str) -> None:
        """Best-effort reject-with-reason before dropping a bad peer."""
        try:
            conn.send_control(ControlFrame("reject", {"reason": reason}).to_doc())
        except (OSError, WireError):
            pass
        conn.close()

    def _check_startup(
        self, procs: List[subprocess.Popen], deadline: float, phase: str
    ) -> None:
        if time.monotonic() > deadline:
            raise RuntimeError(
                f"proc backend startup ({phase}) exceeded "
                f"startup_timeout={self.startup_timeout}s"
            )
        for worker, proc in enumerate(procs):
            code = proc.poll()
            if code is not None:
                raise RuntimeError(
                    f"worker child {worker} exited with code {code} during startup"
                )

    # ------------------------------------------------------------------ #
    def _supervise(self, ctl: RunControl, procs: List[subprocess.Popen]) -> None:
        """Wait for completion, watching the clock and every child's pulse."""
        deadline = time.monotonic() + self.timeout
        while not ctl.done.wait(timeout=0.1):
            if time.monotonic() > deadline:
                ctl.fail(RuntimeError(f"proc backend exceeded timeout={self.timeout}s"))
                return
            for worker, proc in enumerate(procs):
                code = proc.poll()
                if code is not None and not ctl.done.is_set():
                    # children only exit after a Shutdown, which is only
                    # sent once done is set: any earlier exit is a crash
                    ctl.fail(
                        RuntimeError(
                            f"worker child {worker} exited with code {code} "
                            f"before the run finished"
                        )
                    )
                    return

    def _reap(self, procs: List[subprocess.Popen], force: bool = False) -> None:
        """Collect every child; escalate to SIGKILL rather than leak one."""
        for proc in procs:
            if proc.poll() is not None:
                continue
            if force:
                proc.kill()
            else:
                try:
                    proc.wait(timeout=10.0)
                    continue
                except subprocess.TimeoutExpired:
                    proc.kill()
            try:
                proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:  # pragma: no cover - kernel refusal
                logger.error("worker pid %d survived SIGKILL", proc.pid)
