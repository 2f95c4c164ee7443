"""Process execution backend: real OS-process workers over sockets.

The parameter server runs in the parent: the shared
:func:`~repro.runtime.server_actor.server_actor_loop` drives Algorithm 2
as in the thread backend, but on the thread that calls
:meth:`ProcBackend.run`, which starts no thread of its own.  Each of the
``M`` workers is a real child process (:mod:`repro.runtime.proc_worker`)
connected over a loopback TCP socket speaking the :mod:`repro.runtime.wire`
protocol; the server actor's inbox (:class:`SocketTransport`) reads those
sockets directly, one frame at a time from whichever a selector finds
readable (a lone link is read without one).  Unlike the thread backend there is no shared GIL: staleness
and wall-clock numbers come from genuinely independent compute plus real
kernel socket queues.

Children outlive a run.  A run checks out up to ``M`` idle children from a
process-wide pool, spawns only the shortfall, and configures every one of
them afresh; after a run that succeeds they go back to the pool.  The
children are claimed and configured first, before the parent builds its
plan (:meth:`ProcBackend.prepared`, which
:func:`~repro.runtime.backends.plan_and_run` enters before the build), so
each child rebuilds its replica while the parent plans; the parent then
awaits every Ready and only then sends any Start.  The handshake is typed
frames (:mod:`repro.runtime.messages`), on the same codec as the run's
messages::

    child  -> parent   Hello(worker, token)                     once, on connect
    parent -> child    RunConfig(worker, config, scales, obs)
    child  -> parent   Ready(worker)          (or SetupError(traceback))
    parent -> child    Start()
                       ... the run: message frames both ways ...
    child  -> parent   RunEnd(timers, bn_stats, rows)
                       ... idle in the pool until the next RunConfig ...

``RunEnd`` is the run boundary.  When the budget is met the server actor
sends every child one Shutdown; the inbox then reads each link until its
RunEnd is in, for at most :data:`RUN_END_GRACE` seconds, and only then does
the loop end, so ``wall_time`` ends with the last RunEnd (or the grace).
The parent reads nothing of a link after its RunEnd, and
the child skips any message frame of the finished run before reading the
next RunConfig, so no frame of one run is ever read as part of the next.  The
RunConfig names the run's worker id and gradient codec
(``TrainingConfig.comm_codec``); both ends arm a fresh codec on every
RunConfig, so no codec state (topk's residual) crosses a run.  A peer
speaking another protocol version is rejected on its first frame with a
reason (best-effort ``Reject`` back) and the run fails fast instead of
hanging.

No weights travel at startup: on every config the child rebuilds its
replica + loader from ``(TrainingConfig, worker_id)`` via
:class:`~repro.runtime.session.WorkerRuntime` — identical initialization
is re-derived from the seed (a reused child's dataset table already holds
the set), and only weights/gradients/BN stats cross the wire afterwards.

The pool hands a child only to a run whose *spawn signature* — the
interpreter, the source root, the protocol version and the environment the
child was given, token aside — equals the one it was spawned under; it
retires idle children of any other signature at checkout and keeps at
most :data:`MAX_IDLE_CHILDREN`; the signature is rebuilt only when the
environment changes.  Failure containment, all on the one serving thread:
a child that dies (crash, OOM-kill, nonzero exit) closes its socket, and
the EOF fails the run at once, naming the worker and its exit code; a
garbled frame fails it the same way; and every read and send, a frame's
later bytes included, ends by the run's ``timeout``, so a child that hangs,
even mid-frame, fails the run ("exceeded timeout") instead of hanging it.
A link that fails after the budget is met, or whose RunEnd is not in
:data:`RUN_END_GRACE` seconds after the Shutdown, costs its child only its
place in the pool.  A failed, timed-out or interrupted run reaps every one of its
children (terminate, then kill) before ``run`` returns, so it can never
leave orphan processes or a hung parent behind; only a child that ended a
successful run with its RunEnd is kept, and one found dead at checkout is
replaced.
Idle children end with the parent: an ``atexit`` hook closes and reaps
them, and a parent that dies without running it leaves them an EOF, on
which they exit.  A forked process starts with an empty pool.

``bn_mode="local"`` evaluation borrows worker 0's running BN statistics,
which live in a child's address space here; worker 0's RunEnd carries
them and the final evaluation installs them.  Mid-run curve points in
this mode use the parent eval model's own (initial) running statistics —
if you need a faithful local-BN *curve*, use the sim or thread backend.
Every RunEnd carries the child's Timer totals, which the parent folds
into the plan's timer, so ``RunResult.timers["worker_compute_ms"]`` is
measured here as on the in-process backends, and under obs the child's
trace rows, which the parent merges into the plan's recorder.
"""

from __future__ import annotations

import atexit
import collections
import contextlib
import os
import secrets
import selectors
import socket
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.lockorder import make_lock
from repro.cluster.network import NetworkModel
from repro.core.metrics import RunResult
from repro.nn.norm import bn_layers, load_bn_running_stats
from repro.runtime.codecs import make_codec
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
from repro.runtime.server_actor import RunControl, server_actor_loop
from repro.runtime.session import ExperimentPlan, ExperimentSession
from repro.runtime.transport import CommStats, link_delay
from repro.runtime import wire
from repro.runtime.wire import ConnectionClosed, FrameConnection, ProtocolMismatch, WireError
from repro.utils.logging import get_logger

logger = get_logger("runtime.proc")

#: env var carrying the per-spawn handshake token to children (env, not
#: argv: command lines are world-readable in ``ps``)
TOKEN_ENV = "REPRO_PROC_TOKEN"

#: Idle children one process keeps between runs.  16 is the largest M in the
#: paper's grid (Table 1), so a sweep of M=16 cells spawns for its first cell
#: only; an idle child holds about 51 MB RSS and one thread, so a full pool
#: costs about 0.8 GB until the parent exits.
MAX_IDLE_CHILDREN = 16

#: Seconds the inbox waits for the children's RunEnds once Shutdown is out;
#: a child still silent then is reaped, not kept, and the run succeeds.
RUN_END_GRACE = 10.0


class SocketTransport:
    """The server-side message fabric over per-worker socket links.

    Exposes the same surface as :class:`~repro.runtime.transport.
    InProcTransport` — ``server_inbox`` / ``to_server`` / ``to_worker`` /
    ``wake_all_workers`` — so :func:`server_actor_loop` runs unchanged, on
    the thread that serves the run.  The link-delay contract also carries
    over: worker -> server sends charge the sender's uplink (the child
    sleeps before writing), and server -> worker messages are stamped with
    a ``delay`` the child's mailbox sleeps out, so the server actor is
    never blocked by a slow emulated downlink.

    ``server_inbox`` is the transport itself: :meth:`get` reads the next
    frame from whichever attached link a selector finds readable (a lone
    link is read without one), on the caller's thread, and every read and
    send ends by ``timeout`` seconds after the transport was built.  A
    link that fails (EOF, a garbled frame) fails the read or send, naming
    the worker, until Shutdown has been broadcast; after that it only
    costs that child its place in :meth:`ended`, as does a child whose
    RunEnd is not in :data:`RUN_END_GRACE` seconds after the broadcast.
    """

    def __init__(
        self,
        num_workers: int,
        network: Optional[NetworkModel] = None,
        time_scale: float = 0.0,
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
        #: the server actor's inbox: :meth:`get` reads the links themselves
        self.server_inbox = self
        #: unified byte accounting (uplink frames measured as received,
        #: downlink frames as sent — real socket bytes, codec included)
        self.stats = CommStats(self.num_workers)
        self._conns: List[Optional[FrameConnection]] = [None] * self.num_workers
        self._procs: List[Optional[subprocess.Popen]] = [None] * self.num_workers
        #: the links still read from: attached, not yet ended or failed
        self._selector = selectors.DefaultSelector()
        self._loopback: Deque[Message] = collections.deque()
        #: links besides the one read that the last select found readable
        self._waiting = 0
        #: when reads stop
        self._deadline = time.monotonic() + self.timeout
        #: when the wait for RunEnds ends; set by the Shutdown broadcast
        self._drain_deadline: Optional[float] = None
        #: worker -> the RunEnd its child ended the run with
        self._ended: Dict[int, RunEnd] = {}

    # ------------------------------------------------------------------ #
    def attach(
        self, worker: int, conn: FrameConnection, proc: Optional[subprocess.Popen] = None
    ) -> None:
        """Read ``worker``'s frames from ``conn``; ``proc`` names its exit code on failure."""
        if self._conns[worker] is not None:
            raise ValueError(f"worker {worker} already attached")
        self._conns[worker] = conn
        self._procs[worker] = proc
        self._selector.register(conn, selectors.EVENT_READ, worker)

    def get(self, timeout: Optional[float] = None) -> Message:
        """The next message for the server actor, read on the calling thread.

        A loopback message comes first; otherwise the next frame from any
        live link, in each link's order.  RunEnd frames are collected, not
        returned.  Once Shutdown has been broadcast, every link is read
        until its RunEnd is in (or it fails, or the wait passes
        :data:`RUN_END_GRACE` or the deadline), and then Shutdown is
        returned.  ``timeout`` seconds, if given, end the read before the
        run's deadline does.
        """
        if self._loopback:
            return self._loopback.popleft()
        deadline, budget = self._deadline, self.timeout
        if timeout is not None and time.monotonic() + timeout < deadline:
            deadline, budget = time.monotonic() + timeout, timeout
        if self._drain_deadline is not None:
            deadline = min(deadline, self._drain_deadline)
            while self._selector.get_map() and time.monotonic() < deadline:
                try:
                    self._receive(deadline, budget)  # a straggler of the run is dropped
                except RuntimeError as exc:  # its link is dropped, not the run
                    logger.debug("after the run: %s", exc)
            return Shutdown()
        while True:
            message = self._receive(deadline, budget)
            if message is not None:
                return message

    def approx_len(self) -> int:
        """Queue depth for the trace: loopback messages plus the links with a frame waiting.

        A lower bound on what waits: a link counts once however many
        frames its socket holds.
        """
        return len(self._loopback) + self._waiting

    def _receive(self, deadline: float, budget: float) -> Optional[Message]:
        """The next frame any live link delivers; ``None`` for a collected RunEnd.

        A failed read drops its link and raises a RuntimeError that says
        why; ``budget`` is the timeout that ``deadline`` stands for.
        """
        remaining = deadline - time.monotonic()
        links = self._selector.get_map()
        if remaining > 0 and len(links) == 1:  # a lone link's own read does the wait
            (key,) = links.values()
            self._waiting = 0
        else:
            events = self._selector.select(remaining) if remaining > 0 else []
            if not events:
                raise RuntimeError(f"proc backend exceeded timeout={budget}s")
            key = events[0][0]
            self._waiting = len(events) - 1
        conn, worker = key.fileobj, key.data
        try:
            # a frame's later bytes may stall: the deadline bounds them too
            conn.settimeout(max(deadline - time.monotonic(), 1e-3))
            message, _, nbytes, wire_nbytes = conn.recv_info()
        except Exception as exc:
            # broad on purpose: any escape (EOF, garbled frame, a decode
            # KeyError from a version-skewed child) must fail the run fast
            self._selector.unregister(conn)
            raise RuntimeError(self._describe_failure(worker, exc, budget)) from exc
        if isinstance(message, RunEnd):
            # the child's last frame of this run: stop reading its link, so
            # nothing after it is taken for part of this run
            self._ended[worker] = message
            self._selector.unregister(conn)
            return None
        self.stats.count(worker, nbytes, wire_nbytes)
        return message

    def _describe_failure(self, worker: int, exc: Exception, budget: float) -> str:
        if isinstance(exc, socket.timeout):
            return f"proc backend exceeded timeout={budget}s"
        proc, code = self._procs[worker], None
        if proc is not None:
            with contextlib.suppress(subprocess.TimeoutExpired):
                # an EOF comes as the child exits: give it a moment to be reaped
                code = proc.wait(timeout=1.0) if isinstance(exc, ConnectionClosed) else proc.poll()
        state = "dropped its connection" if code is None else f"exited with code {code}"
        return f"worker child {worker} {state} before the run finished ({exc})"

    def ended(self) -> Dict[int, RunEnd]:
        """worker -> RunEnd, for every child that ended its run."""
        return dict(self._ended)

    # ------------------------------------------------------------------ #
    def to_server(self, worker: int, message: Message, nbytes: int = 0) -> None:
        """Worker -> server send; the emulated uplink delays the caller.

        On the parent side this is a loopback used by tests and tooling,
        served ahead of the links by the next :meth:`get` on this thread —
        live worker traffic arrives on the links, with the uplink delay
        slept in the child (same contract, other process).
        """
        delay = link_delay(self.network, self.time_scale, worker, nbytes)
        if delay > 0:
            time.sleep(delay)
        self.stats.count(worker, nbytes)
        self._loopback.append(message)

    def to_worker(self, worker: int, message: Message, nbytes: int = 0) -> None:
        """Server -> worker send; the delay rides the frame, not the caller.

        A send that fails (a dead child, or one whose socket stays full
        past the run's deadline) raises a RuntimeError naming why.
        """
        conn = self._conns[worker]
        if conn is None:
            raise RuntimeError(f"worker {worker} is not attached")
        delay = link_delay(self.network, self.time_scale, worker, nbytes)
        try:
            conn.settimeout(max(self._deadline - time.monotonic(), 1e-3))
            wire_nbytes = conn.send_message(message, delay=delay, nbytes=nbytes)
        except OSError as exc:
            raise RuntimeError(self._describe_failure(worker, exc, self.timeout)) from exc
        self.stats.count(worker, nbytes, wire_nbytes)

    def comm_summary(self) -> Dict[str, float]:
        """The unified :class:`CommStats` keys."""
        return self.stats.summary()

    def wake_all_workers(self, message: Message) -> None:
        """Deliver ``message`` (Shutdown) to every live worker; dead links are skipped.

        From here on :meth:`get` collects the children's RunEnds, for at
        most :data:`RUN_END_GRACE` seconds.
        """
        self._drain_deadline = min(self._deadline, time.monotonic() + RUN_END_GRACE)
        for conn in self._conns:
            if conn is None:
                continue
            try:
                conn.settimeout(max(self._drain_deadline - time.monotonic(), 1e-3))
                conn.send_message(message)
            except (OSError, WireError):
                pass  # a dying child fails its read, or loses its place in the pool

    def close(self, keep: Sequence[FrameConnection] = ()) -> None:
        """Tear down every link but ``keep``."""
        self._selector.close()
        for conn in self._conns:
            if conn is not None and not any(conn is kept for kept in keep):
                conn.close()


# ---------------------------------------------------------------------- #
# the idle pool
# ---------------------------------------------------------------------- #
@dataclass(eq=False)
class _Child:
    """One worker child: its process, its authenticated link, how it was spawned."""

    proc: subprocess.Popen
    sock: socket.socket
    conn: FrameConnection
    signature: tuple


def _reap(procs: Sequence[subprocess.Popen], force: bool = False) -> None:
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


def _close_and_reap(children: Sequence[_Child], force: bool = False) -> None:
    """Close every link (the child sees EOF and exits), then reap."""
    for child in children:
        child.conn.close()
    _reap([child.proc for child in children], force=force)


class _IdlePool:
    """Worker children between runs, oldest first."""

    def __init__(self) -> None:
        self._lock = make_lock("IdlePool._lock")
        self._idle: List[_Child] = []  # guarded-by: _lock

    def checkout(self, signature: tuple, count: int) -> List[_Child]:
        """Up to ``count`` live idle children spawned under ``signature``.

        Dead ones met on the way are reaped, not returned.  Idle children
        spawned under another signature are retired: the environment they
        were given is no longer this process's, so no run would take them.
        """
        with self._lock:
            matching = [c for c in self._idle if c.signature == signature]
            retired = [c for c in self._idle if c.signature != signature]
            taken, self._idle = matching[:count], matching[count:]
        live = []
        for child in taken:
            (live if child.proc.poll() is None else retired).append(child)
        _close_and_reap(retired, force=True)
        return live

    def checkin(self, children: Sequence[_Child]) -> None:
        """Keep ``children`` for later runs; the oldest beyond the bound end."""
        with self._lock:
            self._idle.extend(children)
            excess = self._idle[: max(0, len(self._idle) - MAX_IDLE_CHILDREN)]
            del self._idle[: len(excess)]
        _close_and_reap(excess)

    def drain(self) -> List[_Child]:
        """Remove and return every idle child."""
        with self._lock:
            children, self._idle = self._idle, []
        return children

    def pids(self) -> List[int]:
        with self._lock:
            return sorted(child.proc.pid for child in self._idle)

    def close_fds_after_fork(self) -> None:
        """In a forked process: drop this process's copies of the links.

        ``socket.close`` releases the inherited descriptor only;
        ``FrameConnection.close`` would ``shutdown`` the parent's live
        connection.  No lock: only the forking thread exists here.
        """
        for child in self._idle:
            child.sock.close()


_POOL = _IdlePool()
#: pools a forked process inherited: their children belong to the process
#: that spawned them, which alone can wait on them, so their handles are
#: kept here (finalizing one warns that the subprocess "is still running")
_INHERITED: List[_IdlePool] = []


def _forget_pool_after_fork() -> None:
    global _POOL
    _POOL.close_fds_after_fork()
    _INHERITED.append(_POOL)
    _POOL = _IdlePool()


def _close_idle_children() -> None:
    _close_and_reap(_POOL.drain())


def idle_pids() -> List[int]:
    """Pids of this process's idle worker children, sorted."""
    return _POOL.pids()


# an idle child must not outlive the parent (it would exit on EOF anyway;
# reaping here leaves no zombie and no "still running" warning), and a
# forked child (the pool executor's default start method) must neither use
# nor inherit a lock another thread held at the fork
atexit.register(_close_idle_children)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool_after_fork)


#: ``(key, env, signature)`` of the last :func:`_spawn_env` rebuild
_SPAWN_ENV: Optional[Tuple[tuple, Dict[str, str], tuple]] = None


def _spawn_env() -> Tuple[Dict[str, str], tuple]:
    """The environment new children get, token aside, and its spawn signature.

    Rebuilt only when the environment (or the protocol version) changed
    since the last call; otherwise the same two objects are returned.
    """
    global _SPAWN_ENV
    # os.environ keeps its variables undecoded in ``_data`` (bytes on
    # POSIX): copying that decodes nothing, which a rebuild mostly is
    key = (wire.PROTOCOL_VERSION, dict(os.environ._data))
    cached = _SPAWN_ENV
    if cached is not None and cached[0] == key:
        return cached[1], cached[2]
    import repro

    env = dict(os.environ)
    env.pop(TOKEN_ENV, None)
    # pytest rewrites this one per test; no child reads it, and keeping it
    # would make every test's children unreusable by the next test
    env.pop("PYTEST_CURRENT_TEST", None)
    # children must import the same repro the parent runs, installed or not
    src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    existing = env.get("PYTHONPATH", "")
    if src_root not in existing.split(os.pathsep):
        env["PYTHONPATH"] = src_root + (os.pathsep + existing if existing else "")
    signature = (sys.executable, src_root, wire.PROTOCOL_VERSION, tuple(sorted(env.items())))
    _SPAWN_ENV = (key, env, signature)
    return env, signature


# ---------------------------------------------------------------------- #
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
        Hard cap in real seconds on the training phase, RunEnds included,
        before the run is declared hung (crashed children fail faster, at
        their socket's EOF).
    startup_timeout:
        Cap on spawning the shortfall (process start, imports, hello) plus
        every child's replica rebuild and ``ready``; the parent's plan
        build, which overlaps the rebuild, counts against it too.
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
        obs = bool(getattr(plan.recorder, "enabled", False))
        with self.prepared(plan.config, obs) as run:
            return run(plan)

    @contextlib.contextmanager
    def prepared(self, config, obs: bool) -> Iterator[Callable[[ExperimentPlan], RunResult]]:
        """Claim the run's children and send each its RunConfig; yield ``run(plan)``.

        The children rebuild their replicas while the caller builds the
        plan; ``run`` awaits every Ready before any Start.  Leaving the
        block reaps every child that did not end a successful run, so a
        plan build that raises leaves nothing behind.
        """
        if config.algorithm == "ad-psgd":
            raise ValueError(
                "the proc backend is a parameter-server runtime; run 'ad-psgd' "
                "on sim or thread (the gossip backend picks one of the two)"
            )
        deadline = time.monotonic() + self.startup_timeout
        children = self._handshake(config.num_workers, config, obs, deadline)
        # the children that ended a successful run with a RunEnd: only
        # these go back to the pool
        kept: List[_Child] = []
        try:
            yield lambda plan: self._run(plan, children, deadline, kept)
        finally:
            _close_and_reap(
                [c for c in children if not any(c is k for k in kept)], force=True
            )
            _POOL.checkin(kept)

    def _run(
        self,
        plan: ExperimentPlan,
        children: List[_Child],
        deadline: float,
        kept: List[_Child],
    ) -> RunResult:
        """Await every Ready, then run; ``kept`` gains the children that ended it."""
        config = plan.config
        # bn_mode="local" evaluation borrows worker 0's running BN stats,
        # which live in a child here: its RunEnd carries them and the final
        # evaluation below uses them.  Mid-run curve points see the eval
        # model's own (initial) running stats — only the final point is
        # faithful in this mode.
        needs_local_bn = config.bn_mode == "local" and bool(bn_layers(plan.eval_model))
        session = ExperimentSession(plan)
        num_workers = config.num_workers
        # a failure here leaves every child to prepared(), which reaps them
        self._await_ready(children, config, deadline)
        transport = SocketTransport(
            num_workers,
            network=plan.network if self.time_scale > 0 else None,
            time_scale=self.time_scale,
            timeout=self.timeout,
        )
        ctl = RunControl()
        try:
            for worker, child in enumerate(children):
                child.conn.send_message(Start())
                transport.attach(worker, child.conn, child.proc)

            ctl.start_clock()
            # the server actor runs here: the transport reads the links on
            # this thread, and its inbox ends with every child's RunEnd
            server_actor_loop(session, transport, ctl)
            elapsed = ctl.clock()
            ctl.raise_if_failed()

            # a child whose link failed after the budget was met has no
            # RunEnd: it is reaped instead of kept
            ended = transport.ended()
            for end in ended.values():
                plan.timer.merge(end.timers)
                if plan.recorder.enabled:
                    # each row is re-validated against the event registry
                    plan.recorder.ingest_rows(end.rows)
            if plan.recorder.enabled and len(ended) < num_workers:
                logger.warning("obs: not every worker child streamed its trace rows")

            if needs_local_bn:
                if 0 not in ended:
                    raise RuntimeError(
                        "bn_mode='local': worker child 0 did not end its run, "
                        "so its BN running statistics are missing"
                    )
                load_bn_running_stats(plan.eval_model, list(ended[0].bn_stats))
                session.record_point(elapsed)  # the one faithful local-BN point
            session.ensure_final_eval(elapsed)
            logger.info(
                "proc backend finished: algo=%s M=%d updates=%d wall=%.2fs",
                config.algorithm, num_workers, plan.server.batches_processed, elapsed,
            )
            result = session.build_result(
                elapsed,
                backend=self.name,
                wall_time=elapsed,
                comm=transport.comm_summary(),
                codec=config.comm_codec,
            )
            kept.extend(children[worker] for worker in sorted(ended))
            return result
        finally:
            transport.close(keep=[child.conn for child in kept])

    # ------------------------------------------------------------------ #
    def _handshake(
        self, num_workers: int, config, obs: bool, deadline: float
    ) -> List[_Child]:
        """The run's children, index = worker id, each sent its RunConfig.

        Idle children spawned under this run's signature come first; the
        shortfall is spawned.  On any failure every child is reaped.
        """
        env, signature = _spawn_env()
        children = _POOL.checkout(signature, num_workers)
        try:
            if len(children) < num_workers:
                children += self._spawn(
                    range(len(children), num_workers), env, signature, deadline
                )
            document = config.to_dict()
            for worker, child in enumerate(children):
                child.conn.settimeout(self.startup_timeout)
                child.conn.send_message(
                    RunConfig(
                        worker, document, time_scale=self.time_scale,
                        compute_scale=self.compute_scale, obs=obs,
                    )
                )
        except BaseException:
            _close_and_reap(children, force=True)
            raise
        return children

    def _spawn(
        self, worker_ids: range, env: Dict[str, str], signature: tuple, deadline: float
    ) -> List[_Child]:
        """Launch one ``python -m repro.runtime.proc_worker`` per id and
        accept each one's authenticated :class:`Hello`."""
        token = secrets.token_hex(16)
        procs: Dict[int, subprocess.Popen] = {}
        links: Dict[int, Tuple[socket.socket, FrameConnection]] = {}
        with socket.create_server(("127.0.0.1", 0)) as listener:
            listener.settimeout(0.2)
            port = listener.getsockname()[1]
            try:
                for worker in worker_ids:
                    procs[worker] = subprocess.Popen(
                        [
                            sys.executable, "-m", "repro.runtime.proc_worker",
                            "--host", "127.0.0.1",
                            "--port", str(port),
                            "--worker-id", str(worker),
                        ],
                        env=dict(env, **{TOKEN_ENV: token}),
                    )
                while len(links) < len(procs):
                    self._check_startup(procs, deadline, phase="connect")
                    try:
                        sock, _ = listener.accept()
                    except socket.timeout:
                        continue
                    sock.settimeout(self.startup_timeout)
                    conn = FrameConnection(sock)
                    try:
                        hello, _ = conn.recv()
                    except ProtocolMismatch as exc:
                        # a version-skewed child: tell it why (best effort —
                        # it may not parse our frames either), then fail the
                        # run fast rather than time the handshake out
                        self._reject(conn, str(exc))
                        raise RuntimeError(f"proc handshake rejected a peer: {exc}") from exc
                    except WireError:
                        logger.warning("rejecting stray connection during handshake")
                        conn.close()
                        continue
                    if (
                        not isinstance(hello, Hello)
                        or not secrets.compare_digest(hello.token.encode(), token.encode())
                        or hello.worker not in procs
                        or hello.worker in links
                    ):
                        logger.warning("rejecting stray connection during handshake")
                        conn.close()
                        continue
                    links[hello.worker] = (sock, conn)
            except BaseException:
                for _, conn in links.values():
                    conn.close()
                _reap(list(procs.values()), force=True)
                raise
        return [_Child(procs[w], *links[w], signature) for w in worker_ids]

    def _await_ready(self, children: List[_Child], config, deadline: float) -> None:
        """Confirm each configured child's :class:`Ready`."""
        procs = {worker: child.proc for worker, child in enumerate(children)}
        for worker, child in enumerate(children):
            self._check_startup(procs, deadline, phase="initialize")
            ready, _ = child.conn.recv()
            if isinstance(ready, SetupError):
                raise RuntimeError(
                    f"worker child {worker} failed to initialize:\n{ready.traceback}"
                )
            if not isinstance(ready, Ready) or ready.worker != worker:
                raise RuntimeError(
                    f"worker child {worker} broke the handshake: {ready!r}"
                )
            # the negotiated downlink codec, fresh per run and per
            # connection: topk keeps per-receiver state (decode is stateless)
            child.conn.codec = make_codec(config.comm_codec)

    @staticmethod
    def _reject(conn: FrameConnection, reason: str) -> None:
        """Best-effort reject-with-reason before dropping a bad peer."""
        try:
            conn.send_message(Reject(reason))
        except (OSError, WireError):
            pass
        conn.close()

    def _check_startup(
        self, procs: Dict[int, subprocess.Popen], deadline: float, phase: str
    ) -> None:
        if time.monotonic() > deadline:
            raise RuntimeError(
                f"proc backend startup ({phase}) exceeded "
                f"startup_timeout={self.startup_timeout}s"
            )
        for worker, proc in procs.items():
            code = proc.poll()
            if code is not None:
                raise RuntimeError(
                    f"worker child {worker} exited with code {code} during startup"
                )
