"""The DistributedTrainer: the virtual-time (sim) driver of a plan.

Algorithm 1's worker cycle and Algorithm 2's dispatch are stated once, in
:mod:`repro.runtime.cycle`, and the server side of every server-based
backend is :func:`~repro.runtime.server_actor.server_actor_loop`; the
experiment wiring lives in :class:`~repro.runtime.session.ExperimentPlan`
and the trace/curve/result machinery in :class:`~repro.runtime.session.
ExperimentSession`.  This module only decides what the cycle's effects
*cost* under the simulator, and is the sim's transport:

* ``compute`` advances the worker's pending virtual time by the sampled
  duration (forward is 1/3 of a batch time, backward 2/3);
* ``call`` / ``post`` put the message on the worker's uplink: it is
  delivered to the server's inbox after the pending compute plus the
  sampled transfer time, and each reply the server sends travels back down
  the link (:meth:`DistributedTrainer.to_worker`) before the worker's cycle
  resumes.  A posting worker resumes when its push is delivered — FIFO per
  connection: the next pull request leaves with (and is processed after)
  the gradient push, so a worker always sees its own update and sequential
  SGD is exactly staleness-0.

The trainer is its own ``server_inbox``, as the thread and proc transports
are: its ``get()`` runs events until one delivers a message, so the shared
loop serves the run inside virtual time, and ``wake_all_workers`` ends it.
Both directions count in one :class:`~repro.runtime.transport.CommStats`;
the sim applies no codec, so its ``wire_bytes`` equal its logical bytes.

Real mathematics runs inside the event callbacks; virtual timestamps decide
the interleaving, so runs reproduce bit-for-bit.  The thread and proc
flavors (:mod:`repro.runtime.thread_backend`,
:mod:`repro.runtime.proc_worker`) drive the same cycle over real links.
"""

from __future__ import annotations

import time
from collections import deque
from functools import partial
from typing import Deque, Generator, List, Optional

from repro.cluster.simulator import Simulator
from repro.core.config import TrainingConfig
from repro.core.metrics import RunResult
from repro.runtime.cycle import COMPUTE, POST, worker_cycle
from repro.runtime.messages import Message, Shutdown
from repro.runtime.server_actor import RunControl, server_actor_loop
from repro.runtime.session import ExperimentPlan, ExperimentSession
from repro.runtime.transport import CommStats


class DistributedTrainer:
    """Run one configured experiment end to end and return a RunResult.

    Accepts either a :class:`~repro.core.config.TrainingConfig` (a plan is
    built internally) or a pre-built :class:`~repro.runtime.session.
    ExperimentPlan` via ``plan=`` (how :class:`~repro.runtime.backends.
    SimBackend` drives it).  Plan components are exposed as attributes
    (``workers``, ``server``, ``compute``, ...) for tests and tooling.
    """

    def __init__(
        self, config: Optional[TrainingConfig] = None, plan: Optional[ExperimentPlan] = None
    ) -> None:
        if plan is None:
            if config is None:
                raise ValueError("DistributedTrainer needs a config or a plan")
            plan = ExperimentPlan.from_config(config)
        if plan.config.algorithm == "ad-psgd":
            # no parameter server exists in a decentralized run; silently
            # treating the gossip rule as a server rule would "work" but
            # simulate the wrong system
            raise ValueError(
                "DistributedTrainer simulates a parameter server; run "
                "'ad-psgd' through run_experiment(..., backend='sim') so it "
                "dispatches to the gossip runtime"
            )
        self.plan = plan
        self.session = ExperimentSession(plan)

        # plan aliases (stable public surface) -------------------------------------------
        self.config = plan.config
        self.trace = self.session.trace
        self.train_set = plan.train_set
        self.workers = plan.workers
        self.server = plan.server
        self.compute = plan.compute
        self.network = plan.network
        self.model_bytes = plan.model_bytes

        self.sim = Simulator()
        #: virtual seconds of compute each worker has done since its last
        #: link effect (its local clock runs ahead of the event clock by this)
        self._pending = [0.0] * self.config.num_workers
        #: the cycle of each worker parked on a call, awaiting its reply
        self._parked: List[Optional[Generator]] = [None] * self.config.num_workers
        #: the trainer is the server's inbox; ``_delivered`` holds what
        #: reached the server and was not served yet
        self.server_inbox = self
        self._delivered: Deque[Message] = deque()
        self._stopped = False
        self.stats = CommStats(self.config.num_workers)
        # generous event budget: each update takes a bounded handful of events
        self._max_events = 40 * plan.total_updates + 10_000

    # ------------------------------------------------------------------ #
    # the sim driver: cycle effects -> Simulator events
    # ------------------------------------------------------------------ #
    def _start_cycle(self, m: int) -> None:
        if self.server.batches_processed >= self.plan.total_updates:
            return
        # the worker's virtual now: the event clock plus its pending compute
        sim, pending = self.sim, self._pending
        cycle = worker_cycle(self.workers[m], self.plan, lambda: sim.now + pending[m])
        self._resume(m, cycle, None)

    def _resume(self, m: int, cycle: Generator, answer) -> None:
        """Run ``m``'s cycle up to its next link effect and schedule that."""
        pending = self._pending
        try:
            effect = cycle.send(answer)
            while effect[0] is COMPUTE:
                # a virtual clock charges exactly the sampled duration
                pending[m] += effect[1]
                effect = cycle.send(effect[1])
        except StopIteration:
            self._start_cycle(m)
            return
        kind, message, nbytes = effect
        self.stats.count(m, nbytes)
        delay = pending[m] + self.network.transfer_time(m, nbytes)
        pending[m] = 0.0
        self.sim.schedule(delay, partial(self._delivered.append, message))
        if kind is POST:
            # same delay, scheduled second: the worker resumes right after
            # the server processed its push
            self.sim.schedule(delay, partial(self._resume, m, cycle, None))
        else:
            self._parked[m] = cycle

    # ------------------------------------------------------------------ #
    # the transport surface server_actor_loop serves
    # ------------------------------------------------------------------ #
    def get(self) -> Message:
        """Run events until one delivers a message to the server; Shutdown
        once the run has stopped or no event is left."""
        delivered, sim = self._delivered, self.sim
        while not delivered:
            if self._stopped or not sim.step():
                return Shutdown()
            if sim.processed_events >= self._max_events:
                raise RuntimeError(
                    f"simulator exceeded max_events={self._max_events}; "
                    "likely a scheduling loop"
                )
        return delivered.popleft()

    def approx_len(self) -> int:
        """Messages delivered and not yet served, for the queue-depth gauge."""
        return len(self._delivered)

    def to_worker(self, worker: int, message: Message, nbytes: int = 0) -> None:
        """The reply travels down ``worker``'s link; its parked cycle resumes."""
        self.stats.count(worker, nbytes)
        down = self.network.transfer_time(worker, nbytes)
        self.sim.schedule(down, partial(self._resume, worker, self._parked[worker], message))

    def wake_all_workers(self, message: Message) -> None:
        """The run is over: no further event runs."""
        self._stopped = True

    # ------------------------------------------------------------------ #
    def run(self) -> RunResult:
        """Execute the configured run and collect the result."""
        # wall_time is reporting-only, never fed back into the simulation
        # (virtual time drives everything else)  # lint-ok: determinism
        wall_start = time.perf_counter()
        start_jitter = self.plan.rng_tree.child("start").generator("jitter")
        for m in range(self.config.num_workers):
            delay = float(start_jitter.uniform(0.0, 1e-4))
            self.sim.schedule(delay, partial(self._start_cycle, m))
        sim = self.sim
        ctl = RunControl(lambda: sim.now)
        server_actor_loop(self.session, self, ctl)
        ctl.raise_if_failed()

        # degenerate runs (e.g. max_updates smaller than one epoch and the
        # finish-eval raced the stop): take one final snapshot
        self.session.ensure_final_eval(sim.now)
        return self.session.build_result(
            sim.now,
            backend="sim",
            wall_time=time.perf_counter() - wall_start,  # lint-ok: determinism
            comm=self.stats.summary(),
        )
