"""Real concurrent execution: a thread-based parameter-server runtime.

Topology: ``M`` worker threads, each driving the one worker cycle
(:func:`repro.runtime.cycle.worker_cycle`, through a
:class:`~repro.runtime.cycle.BlockingDriver`) over an
:class:`~repro.runtime.transport.InProcTransport`, and the *server actor*
(:func:`~repro.runtime.server_actor.server_actor_loop`), which owns the
:class:`~repro.core.server.ParameterServer` and runs on the thread that
called :meth:`ThreadBackend.run`, as on proc — a run starts ``M`` threads.
Staleness here is *real*: it is however many gradients the server actor
applied between a worker's pull and its push, as decided by genuine thread
interleaving (and, optionally, by emulated link/compute delays).

A worker learns that the run is over only from the Shutdown its next call
to the server gets back, as a proc child does, so a run sends the same
messages whichever thread wins a race at the end: a pull sent before the
Shutdown arrives is counted, on thread as on proc.  A gossip worker makes
no call to get it from: it stops at the budget, since a local step past it
would move a replica the final consensus evaluation reads.  The run ends
after its worker threads are joined; a failed worker, a failed handler or
a run past ``timeout`` fails it with that error.

Two scheduling modes:

* **free-running** (default) — workers race; clocks, ``t_comm``/``t_comp``
  features and staleness all come from the real wall clock.  Two runs with
  the same seed will differ, exactly like a real cluster.
* **deterministic** — a round-robin turnstile serializes worker cycles
  (worker ``m`` runs one full pull-to-push cycle, then hands the turn to
  ``m+1``), and each worker's clock is virtual: it advances by the plan's
  sampled compute durations and link transfer times, never by the wall
  clock.  Message order at the server is then a pure function of the
  seed, so two runs produce bit-identical parameters — this is what the
  parity and reproducibility tests rely on.  The cost is that the
  serialized schedule pins observed staleness to 0.

``ad-psgd`` runs here too, serverless: the actor only logs each worker's
gossip reports, and each worker's driver runs
:func:`~repro.runtime.cycle.gossip_cycle` and meets its partner on the
:class:`~repro.runtime.gossip_backend.PairingBoard`.  It has no
deterministic mode — pairing and the consensus evaluation race the
workers — so the sim backend is its reproducible runtime.
"""

from __future__ import annotations

import threading
from functools import partial
from typing import Optional

from repro.analysis.lockorder import make_condition
from repro.core.metrics import RunResult
from repro.runtime.cycle import BlockingDriver
from repro.runtime.messages import Shutdown
from repro.runtime.server_actor import RunControl, server_actor_loop
from repro.runtime.session import ExperimentPlan, ExperimentSession
from repro.runtime.transport import InProcTransport
from repro.utils.logging import get_logger

logger = get_logger("runtime.thread")


class RoundRobinTurnstile:
    """Grants worker turns in cyclic id order (deterministic mode).

    A worker holds the turn for one full pull-to-push cycle; exited workers
    are retired from the rotation so the remaining ones keep cycling.
    """

    def __init__(self, num_workers: int) -> None:
        self._cond = make_condition("RoundRobinTurnstile._cond")
        self._order = list(range(num_workers))  # guarded-by: _cond
        self._turn = 0  # guarded-by: _cond — index into _order

    def _holder(self) -> Optional[int]:
        return self._order[self._turn] if self._order else None

    def acquire(self, worker: int, done: Optional[threading.Event] = None) -> bool:
        """Block until it is ``worker``'s turn; False if ``done`` was set first."""
        with self._cond:
            while self._holder() != worker:
                if (done is not None and done.is_set()) or worker not in self._order:
                    return False
                self._cond.wait(timeout=0.05)
            return True

    def release(self, worker: int) -> None:
        """Pass the turn to the next worker in the rotation."""
        with self._cond:
            if self._holder() == worker:
                self._turn = (self._turn + 1) % len(self._order)
            self._cond.notify_all()

    def retire(self, worker: int) -> None:
        """Drop an exiting worker from the rotation."""
        with self._cond:
            if worker in self._order:
                idx = self._order.index(worker)
                self._order.remove(worker)
                if self._order and idx < self._turn:
                    self._turn -= 1
                if self._order:
                    self._turn %= len(self._order)
            self._cond.notify_all()


class ThreadBackend:
    """Execute an :class:`ExperimentPlan` on real threads.

    Parameters
    ----------
    deterministic:
        Serialize worker cycles round-robin and use virtual timing features
        so runs reproduce bit-for-bit (see module docstring).  ``ad-psgd``
        plans refuse it.
    time_scale:
        Real seconds of emulated link delay per virtual second of the
        plan's network model (0 disables link emulation).  Ignored in
        deterministic mode.
    compute_scale:
        Real seconds slept per virtual second of the plan's compute model,
        emulating heterogeneous/straggling nodes on top of the real math
        (0 disables).  Ignored in deterministic mode.
    timeout:
        Hard cap in real seconds before the run is declared hung.
    """

    name = "thread"

    def __init__(
        self,
        deterministic: bool = False,
        time_scale: float = 0.0,
        compute_scale: float = 0.0,
        timeout: float = 600.0,
    ) -> None:
        if time_scale < 0 or compute_scale < 0:
            raise ValueError("time_scale and compute_scale must be >= 0")
        if timeout <= 0:
            raise ValueError("timeout must be positive")
        self.deterministic = bool(deterministic)
        self.time_scale = 0.0 if deterministic else float(time_scale)
        self.compute_scale = 0.0 if deterministic else float(compute_scale)
        self.timeout = float(timeout)

    # ------------------------------------------------------------------ #
    def run(self, plan: ExperimentPlan) -> RunResult:
        """Run the plan to completion and return its RunResult."""
        config = plan.config
        num_workers = config.num_workers
        # ad-psgd has no server math: the actor only logs the workers'
        # reports, which move at memory speed; a peer send sleeps out its
        # own edge's delay, and no gradient crosses a codec
        gossip = config.algorithm == "ad-psgd"
        name = "gossip" if gossip else self.name
        if gossip and self.deterministic:
            raise ValueError(
                "deterministic thread runs cannot reproduce 'ad-psgd': pairing on "
                "the board and the consensus evaluation race the workers; run it "
                "on backend='sim' for a bit-reproducible gossip run"
            )
        session = ExperimentSession(plan)
        ctl = RunControl()
        codec = "" if gossip else config.comm_codec
        transport = InProcTransport(
            num_workers,
            network=plan.network if self.time_scale > 0 and not gossip else None,
            time_scale=self.time_scale,
            codec_name=codec,
            recorder=plan.recorder,
            clock=ctl.clock,
            timeout=self.timeout,
        )
        turnstile = RoundRobinTurnstile(num_workers) if self.deterministic else None
        wiring = [{}] * num_workers
        if gossip:
            from repro.runtime.gossip_backend import thread_wiring

            wiring = thread_wiring(session, transport, ctl, self.time_scale)
        drivers = [
            BlockingDriver(
                plan.workers[m],
                plan,
                send=partial(transport.to_server, m),
                recv=transport.worker_inboxes[m].get,
                clock=None if self.deterministic else ctl.clock,
                compute_scale=self.compute_scale,
                **wiring[m],
            )
            for m in range(num_workers)
        ]

        def work(m: int) -> None:
            # a server-based worker stops only on the Shutdown its next call
            # gets back (see the module docstring); a gossip worker has none
            try:
                while not (gossip and ctl.done.is_set()):
                    if turnstile is not None:
                        turnstile.acquire(m)
                    try:
                        if not drivers[m].run_cycle():
                            break  # the server's Shutdown
                    finally:
                        if turnstile is not None:
                            turnstile.release(m)
            except BaseException as exc:
                ctl.fail(exc)
                transport.wake_all_workers(Shutdown())
            finally:
                if turnstile is not None:
                    turnstile.retire(m)

        threads = [
            threading.Thread(target=work, args=(m,), name=f"repro-worker-{m}", daemon=True)
            for m in range(num_workers)
        ]
        ctl.start_clock()
        for t in threads:
            t.start()
        try:
            # the server actor runs here; its inbox fails the run past the timeout
            server_actor_loop(session, transport, ctl)
        finally:
            ctl.done.set()
            transport.wake_all_workers(Shutdown())
            for t in threads:
                t.join(timeout=30.0)
        elapsed = ctl.clock()
        ctl.raise_if_failed()
        stuck = [t.name for t in threads if t.is_alive()]
        if stuck:
            raise RuntimeError(f"{name} backend failed to join threads: {stuck}")

        session.ensure_final_eval(elapsed)
        logger.info(
            "thread backend finished: algo=%s M=%d updates=%d wall=%.2fs",
            config.algorithm, num_workers, plan.server.batches_processed, elapsed,
        )
        return session.build_result(
            elapsed,
            backend=name,
            wall_time=elapsed,
            comm=transport.comm_summary(),
            codec=codec,
        )
