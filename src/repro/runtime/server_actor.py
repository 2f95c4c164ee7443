"""The server actor: every server-based backend's driver of Algorithm 2.

One thread owns the :class:`~repro.core.server.ParameterServer` and is the
only thread that ever calls its handlers — the math needs no locks because
the actor loop serializes every message.  Every server-based backend runs
the loop on the thread that called its ``run``: the thread backend after
starting its worker threads, proc after starting its child processes, and
the sim (:class:`~repro.core.trainer.DistributedTrainer`) over an inbox
that is its event queue.  The loop ends the same way on all three: once
the budget is met, ``wake_all_workers(Shutdown())`` tells every worker,
and the inbox then yields that Shutdown behind whatever the workers
already sent (a thread worker that fails queues the same Shutdown; a
handler or a read that fails ends the loop at once).  The inbox also
bounds the run: its ``get()`` fails once the backend's ``timeout`` has
passed (the sim's, once its event budget is spent).  What each message
*means* is :func:`repro.runtime.cycle.dispatch`; this module keeps what
is particular to serving a run: draining the inbox, the queue-depth
gauge, the evaluation cadence, and the run's shared state
(:class:`RunControl`).  The loop is transport-agnostic: anything exposing
the :class:`~repro.runtime.transport.InProcTransport` surface
(``server_inbox`` / ``to_worker`` / ``wake_all_workers``) can feed it —
in-process mailboxes for the thread backend, sockets for proc, virtual
links for the sim.  The inbox needs only ``get()`` (blocking) and
``approx_len()``.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional

from repro.analysis.lockorder import make_lock
from repro.runtime.cycle import dispatch
from repro.runtime.messages import Shutdown
from repro.runtime.session import ExperimentSession


class RunControl:
    """Shared run state: the run's clock, the done flag, the first error.

    ``clock`` is the run's time: the sim passes its virtual now; without
    one, ``clock()`` reads real seconds since :meth:`start_clock`.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self.done = threading.Event()
        self._start = 0.0
        self.clock = clock or self._wall_clock
        self._error: Optional[BaseException] = None  # guarded-by: _error_lock
        self._error_lock = make_lock("RunControl._error_lock")

    def start_clock(self) -> None:
        self._start = time.perf_counter()

    def _wall_clock(self) -> float:
        """Real seconds since the run started."""
        return time.perf_counter() - self._start

    def fail(self, exc: BaseException) -> None:
        """Record the first failure and unblock everyone."""
        with self._error_lock:
            if self._error is None:
                self._error = exc
        self.done.set()

    @property
    def error(self) -> Optional[BaseException]:
        with self._error_lock:
            return self._error

    def raise_if_failed(self) -> None:
        """Re-raise the first recorded failure with its original traceback.

        The exception object still carries the frames of the worker/server
        thread that raised it; re-raising via ``with_traceback`` keeps them
        at the head of the chain so the crash site stays visible.
        """
        error = self.error
        if error is not None:
            raise error.with_traceback(error.__traceback__)


def server_actor_loop(session: ExperimentSession, transport, ctl: RunControl) -> None:
    """Drain the server inbox through the shared dispatch until Shutdown.

    ``transport`` is anything with the InProcTransport surface.  Failures
    propagate to the backend through ``ctl``; workers are woken so nobody
    blocks on a mailbox that will never fill again.
    """
    plan = session.plan
    server = plan.server
    recorder = plan.recorder
    inbox = transport.server_inbox
    try:
        while True:
            msg = inbox.get()
            if isinstance(msg, Shutdown):
                return
            if ctl.done.is_set():
                continue  # budget met: drop straggler traffic
            now = ctl.clock()
            if recorder.enabled:
                recorder.emit(
                    now, "queue_depth", msg.worker,
                    queue="server_inbox", depth=inbox.approx_len(),
                )
            applied = server.batches_processed
            for worker, reply, nbytes in dispatch(session, msg, now):
                transport.to_worker(worker, reply, nbytes=nbytes)
            if server.batches_processed != applied:
                session.maybe_evaluate(ctl.clock())
                if server.batches_processed >= plan.total_updates:
                    ctl.done.set()
                    transport.wake_all_workers(Shutdown())
    except BaseException as exc:  # propagate to the caller via ctl
        ctl.fail(exc)
        transport.wake_all_workers(Shutdown())
