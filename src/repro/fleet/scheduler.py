"""FleetExecutor: schedule campaign cells across remote agent daemons.

Implements the :class:`~repro.experiments.executors.Executor` protocol —
``run(jobs, total, events)`` yields ``(index, spec, result)`` triples as
cells complete — so :class:`~repro.experiments.campaign.Campaign`,
:class:`~repro.experiments.store.ResultStore` persistence, resume and
:class:`~repro.experiments.events.CampaignEvents` all work unchanged on a
multi-host fleet.  Construction is cheap; connections open inside
``run`` and close when the generator finishes.

Scheduling is greedy: every agent advertises ``slots`` in its Welcome and
the scheduler keeps each one saturated from a single pending deque —
faster hosts simply drain more cells, which is the right policy for a
grid of independent runs of wildly different durations.

Fault model (the reason this file exists):

* **agent death** — socket EOF or a missed-heartbeat window marks the
  agent dead; its in-flight cells requeue onto the surviving agents.
  Death is *not* charged to the cell — a host crash says nothing about
  the experiment.
* **cell failure** — a ``JobError`` frame means the spec itself raised
  inside the agent.  The cell is retried once (on any agent — a flaky
  host's failure shouldn't doom a healthy spec), and a second failure
  fails the campaign fast with the remote traceback: a deterministic bug
  would otherwise ping-pong across the fleet forever.
* **total loss** — if every agent is dead while cells remain, the run
  raises rather than hanging.

Results stream back exactly once per cell: a cell that completes on an
agent we later declare dead is never re-yielded (the ``done`` set), and a
requeued cell whose first attempt turns out to have finished is dropped
on arrival.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from typing import Dict, Iterator, List, Sequence, Tuple, Union

from repro.core.metrics import CurvePoint, RunResult
from repro.experiments.events import CampaignEvents
from repro.experiments.executors import Executor, Job
from repro.experiments.spec import ExperimentSpec
from repro.analysis.lockorder import make_lock
from repro.fleet.protocol import parse_agent_addrs
from repro.obs.recorder import make_recorder
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

logger = get_logger("fleet.scheduler")

#: how many times one cell may raise before the campaign fails fast
MAX_CELL_ATTEMPTS = 2

#: an address is "host:port" or an already-split (host, port) pair
Address = Union[str, Tuple[str, int]]


class FleetError(RuntimeError):
    """No usable agents, every agent died, or a cell failed twice."""


class AgentLink:
    """One connected agent: its socket, reader thread and slot bookkeeping."""

    def __init__(
        self,
        host: str,
        port: int,
        events_out: "queue.Queue[Tuple[AgentLink, Union[Frame, Exception]]]",
        connect_timeout: float,
    ) -> None:
        import socket as _socket

        self.host, self.port = host, int(port)
        self.addr = f"{host}:{port}"
        self.name = self.addr  # refined by the Welcome
        self._events_out = events_out
        self.slots = 0
        self.inflight: Dict[str, Tuple[int, ExperimentSpec, int]] = {}
        self.alive = True
        self.last_seen = time.monotonic()
        self._send_lock = make_lock("AgentLink._send_lock")

        sock = _socket.create_connection((host, self.port), timeout=connect_timeout)
        self.conn = FrameConnection(sock)
        try:
            self.conn.settimeout(connect_timeout)
            self.conn.send_message(FleetHello())
            welcome, _ = self.conn.recv()
            if isinstance(welcome, Busy):
                raise FleetError(f"agent {self.addr} is busy with another scheduler")
            if not isinstance(welcome, Welcome):
                raise FleetError(
                    f"agent {self.addr} answered hello with {type(welcome).__name__}"
                )
        except BaseException:
            self.conn.close()  # never leave a half-open link behind
            raise
        self.slots = welcome.slots
        self.name = welcome.agent
        self.conn.settimeout(None)
        self._reader = threading.Thread(
            target=self._reader_loop, name=f"repro-fleet-link-{self.addr}", daemon=True
        )
        self._reader.start()
        # heartbeats flow both ways: the agent abandons a session that goes
        # silent (a scheduler host that died without FIN must not hold the
        # one-session lock forever), so prove liveness even when no jobs
        # are being dispatched
        self._hb_stop = threading.Event()
        self._pulse = threading.Thread(
            target=self._pulse_loop, name=f"repro-fleet-pulse-{self.addr}", daemon=True
        )
        self._pulse.start()

    # ------------------------------------------------------------------ #
    def _pulse_loop(self) -> None:
        from repro.fleet.agent import HEARTBEAT_INTERVAL

        n = 0
        while not self._hb_stop.wait(timeout=HEARTBEAT_INTERVAL):
            n += 1
            try:
                with self._send_lock:
                    self.conn.send_message(Heartbeat(n))
            except (OSError, WireError):
                return  # the reader surfaces the death; nothing to add

    def _reader_loop(self) -> None:
        try:
            while True:
                frame, _ = self.conn.recv()
                self.last_seen = time.monotonic()
                self._events_out.put((self, frame))
        except (WireError, OSError) as exc:  # EOF, a malformed frame, a reset
            self._events_out.put((self, exc))

    def free_slots(self) -> int:
        return self.slots - len(self.inflight) if self.alive else 0

    def send_job(self, job_id: str, spec: ExperimentSpec, obs: bool = False) -> bool:
        """Dispatch one cell; False means the link just died."""
        try:
            with self._send_lock:
                self.conn.send_message(Job(job_id, to_jsonable(spec.to_dict()), obs))
            return True
        except (OSError, WireError):
            return False

    def close(self) -> None:
        self.alive = False
        self._hb_stop.set()
        self.conn.close()


class FleetExecutor(Executor):
    """Run campaign cells on remote :class:`~repro.fleet.agent.FleetAgent`s.

    Parameters
    ----------
    agents:
        Agent addresses — ``"host:port"`` strings or ``(host, port)``
        pairs.  Unreachable agents are skipped with a note; zero reachable
        agents raises.
    heartbeat_timeout:
        Seconds without any frame from an agent before it is declared
        dead.  Must exceed the agents' heartbeat interval (default 2 s)
        with margin.
    connect_timeout:
        Cap on the per-agent TCP connect + hello/welcome handshake.
    obs:
        Run every cell with a live trace recorder.  Agents ship each
        cell's trace rows back (``JobTrace`` frames) into this executor's
        campaign-level :attr:`recorder`, which also collects the
        scheduler's own ``heartbeat``/``requeue`` events — one trace for
        the whole campaign's control plane.
    """

    name = "fleet"

    def __init__(
        self,
        agents: Sequence[Address],
        heartbeat_timeout: float = 10.0,
        connect_timeout: float = 10.0,
        obs: bool = False,
    ) -> None:
        if not agents:
            raise ValueError("FleetExecutor needs at least one agent address")
        if heartbeat_timeout <= 0 or connect_timeout <= 0:
            raise ValueError("timeouts must be positive")
        self.addresses: List[Tuple[str, int]] = []
        for addr in agents:
            if isinstance(addr, str):
                self.addresses.extend(parse_agent_addrs(addr))
            else:
                host, port = addr
                self.addresses.append((host, int(port)))
        self.heartbeat_timeout = float(heartbeat_timeout)
        self.connect_timeout = float(connect_timeout)
        #: campaign-level trace: agent cell traces + scheduler events
        self.recorder = make_recorder(obs, run_id="fleet-campaign")
        self._t0 = 0.0  # scheduler clock epoch, set when run() starts

    # ------------------------------------------------------------------ #
    def run(
        self, jobs: Sequence[Job], total: int, events: CampaignEvents
    ) -> Iterator[Tuple[int, ExperimentSpec, RunResult]]:
        if not jobs:
            return
        self._t0 = time.monotonic()
        inbox: "queue.Queue[Tuple[AgentLink, Union[Frame, Exception]]]" = queue.Queue()
        links = self._connect(inbox, events)
        try:
            yield from self._schedule(list(jobs), total, events, links, inbox)
        finally:
            for link in links:
                link.close()

    def _connect(self, inbox, events: CampaignEvents) -> List[AgentLink]:
        links: List[AgentLink] = []
        failures: List[str] = []
        for host, port in self.addresses:
            try:
                links.append(AgentLink(host, port, inbox, self.connect_timeout))
            except (OSError, WireError, FleetError) as exc:
                failures.append(f"{host}:{port} ({exc})")
        for failure in failures:
            events.on_note(f"fleet: agent {failure} unavailable, continuing without it")
        if not links:
            raise FleetError(
                "no fleet agents reachable: " + "; ".join(failures)
            )
        # the "fleet: agents " prefix is load-bearing: DashboardEvents
        # mirrors this roster into its state document for watchers
        events.on_note(
            "fleet: agents "
            + ", ".join(f"{l.name} x{l.slots}" for l in links)
        )
        return links

    # ------------------------------------------------------------------ #
    def _schedule(
        self,
        jobs: List[Job],
        total: int,
        events: CampaignEvents,
        links: List[AgentLink],
        inbox: "queue.Queue[Tuple[AgentLink, Union[Frame, Exception]]]",
    ) -> Iterator[Tuple[int, ExperimentSpec, RunResult]]:
        #: (index, spec, attempts) — attempts counts the cell's own raises
        pending: deque = deque((index, spec, 0) for index, spec in jobs)
        started: set = set()  # indices whose on_run_start already fired
        done: set = set()  # indices already yielded (never re-yield)

        recorder = self.recorder

        def now() -> float:
            return time.monotonic() - self._t0

        def live_links() -> List[AgentLink]:
            return [l for l in links if l.alive]

        def mark_dead(link: AgentLink, why: str) -> None:
            if not link.alive:
                return
            link.alive = False
            link.conn.close()
            requeued = 0
            for job_id, (index, spec, attempts) in sorted(link.inflight.items()):
                if index not in done:
                    # a host death says nothing about the cell: same attempts
                    pending.appendleft((index, spec, attempts))
                    requeued += 1
                    if recorder.enabled:
                        recorder.emit(now(), "requeue", job=int(index), peer=link.name)
            link.inflight.clear()
            note = f"fleet: agent {link.name} died ({why})"
            if requeued:
                note += f"; requeued {requeued} cell(s)"
            logger.warning(note)
            events.on_note(note)

        def dispatch() -> None:
            for link in live_links():
                while pending and link.free_slots() > 0:
                    index, spec, attempts = pending.popleft()
                    if index in done:
                        continue
                    job_id = str(index)
                    if not link.send_job(job_id, spec, obs=recorder.enabled):
                        pending.appendleft((index, spec, attempts))
                        mark_dead(link, "send failed")
                        break
                    link.inflight[job_id] = (index, spec, attempts)
                    if index not in started:
                        started.add(index)
                        events.on_run_start(spec, index, total)

        while pending or any(l.inflight for l in live_links()):
            if not live_links():
                unfinished = len(pending) + len(
                    {i for l in links for (i, _, _) in l.inflight.values()} - done
                )
                raise FleetError(
                    f"every fleet agent died with {unfinished} cell(s) unfinished"
                )
            dispatch()
            try:
                link, frame = inbox.get(timeout=0.2)
            except queue.Empty:
                self._check_heartbeats(links, mark_dead)
                continue
            if isinstance(frame, Exception):  # the link's end
                closed = isinstance(frame, (ConnectionClosed, OSError))
                why = "connection closed" if closed else f"protocol violation: {frame}"
                mark_dead(link, why)
                continue
            if not link.alive:
                continue  # stale frame from a link we already wrote off
            if isinstance(frame, Heartbeat):
                if recorder.enabled:
                    recorder.emit(now(), "heartbeat", peer=link.name, n=frame.n)
                continue
            if isinstance(frame, JobTrace):
                # an obs cell's finished trace: merge it (rows re-validated
                # against the event registry) into the campaign recorder
                if recorder.enabled and link.inflight.get(frame.id) is not None:
                    try:
                        recorder.ingest_rows(frame.rows)
                    except (ValueError, TypeError) as exc:
                        mark_dead(link, f"undecodable trace rows: {exc!r}")
                continue
            if isinstance(frame, JobCurvePoint):
                entry = link.inflight.get(frame.id)
                if entry is not None:
                    try:
                        point = CurvePoint.from_dict(frame.point)
                    except Exception as exc:
                        mark_dead(link, f"undecodable curve point: {exc!r}")
                        continue
                    events.on_curve_point(entry[1], point)
                continue
            if isinstance(frame, JobResult):
                entry = link.inflight.get(frame.id)
                if entry is None:
                    continue  # duplicate of a cell another agent finished
                try:
                    result = RunResult.from_dict(frame.result)
                except Exception as exc:
                    # a skewed agent's garbage is the agent's fault, not
                    # the cell's: fault the link (the entry is still in
                    # its inflight map, so mark_dead requeues it) instead
                    # of crashing the whole campaign
                    mark_dead(link, f"undecodable result: {exc!r}")
                    continue
                link.inflight.pop(frame.id, None)
                index, spec, _ = entry
                if index in done:
                    continue
                done.add(index)
                yield index, spec, result
                continue
            if isinstance(frame, JobError):
                entry = link.inflight.pop(frame.id, None)
                if entry is None:
                    continue
                index, spec, attempts = entry
                attempts += 1
                if attempts >= MAX_CELL_ATTEMPTS:
                    raise FleetError(
                        f"cell {spec.label()} failed {attempts} time(s); last "
                        f"failure on {link.name}: {frame.error}\n{frame.traceback}"
                    )
                events.on_note(
                    f"fleet: {spec.label()} raised on {link.name} "
                    f"({frame.error}); retrying"
                )
                pending.append((index, spec, attempts))
                continue
            mark_dead(link, f"unexpected {type(frame).__name__} frame mid-session")

    def _check_heartbeats(self, links: List[AgentLink], mark_dead) -> None:
        now = time.monotonic()
        for link in links:
            if link.alive and now - link.last_seen > self.heartbeat_timeout:
                mark_dead(
                    link,
                    f"no heartbeat for {now - link.last_seen:.1f}s "
                    f"(timeout {self.heartbeat_timeout}s)",
                )
