"""The DistributedTrainer: the virtual-time (sim) driver of a plan.

Algorithm 1's worker cycle and Algorithm 2's dispatch are stated once, in
:mod:`repro.runtime.cycle`; the experiment wiring lives in
:class:`~repro.runtime.session.ExperimentPlan` and the trace/curve/result
machinery in :class:`~repro.runtime.session.ExperimentSession`.  This
module only decides what the cycle's effects *cost* under the simulator:

* ``compute`` advances the worker's pending virtual time by the sampled
  duration (forward is 1/3 of a batch time, backward 2/3);
* ``call`` / ``post`` put the message on the worker's uplink: it reaches
  the shared dispatch after the pending compute plus the sampled transfer
  time, and each reply the dispatch names travels back down the link
  before the worker's cycle resumes.  A posting worker resumes when its
  push is delivered — FIFO per connection: the next pull request leaves
  with (and is processed after) the gradient push, so a worker always sees
  its own update and sequential SGD is exactly staleness-0.

Real mathematics runs inside the event callbacks; virtual timestamps decide
the interleaving, so runs reproduce bit-for-bit.  The thread and proc
flavors (:mod:`repro.runtime.thread_backend`,
:mod:`repro.runtime.proc_worker`) drive the same cycle over real links.
"""

from __future__ import annotations

import time
from functools import partial
from typing import Generator, List, Optional

from repro.cluster.simulator import Simulator
from repro.core.config import TrainingConfig
from repro.core.metrics import RunResult
from repro.runtime.cycle import COMPUTE, POST, dispatch, worker_cycle
from repro.runtime.messages import Message
from repro.runtime.session import ExperimentPlan, ExperimentSession
from repro.utils.logging import get_logger

logger = get_logger("core.trainer")


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
        self.rng_tree = plan.rng_tree
        self.timer = plan.timer
        self.trace = self.session.trace
        self.train_set = plan.train_set
        self.test_set = plan.test_set
        self.num_classes = plan.num_classes
        self.eval_model = plan.eval_model
        self.workers = plan.workers
        self.server = plan.server
        self.compute = plan.compute
        self.network = plan.network
        self.iters_per_epoch = plan.iters_per_epoch
        self.total_updates = plan.total_updates
        self.model_bytes = plan.model_bytes
        self.state_bytes = plan.state_bytes
        self._eval_indices = self.session._eval_indices

        self.sim = Simulator()
        #: virtual seconds of compute each worker has done since its last
        #: link effect (its local clock runs ahead of the event clock by this)
        self._pending = [0.0] * self.config.num_workers
        #: the cycle of each worker parked on a call, awaiting its reply
        self._parked: List[Optional[Generator]] = [None] * self.config.num_workers

    # ------------------------------------------------------------------ #
    # the sim driver: cycle effects -> Simulator events
    # ------------------------------------------------------------------ #
    def _start_cycle(self, m: int) -> None:
        if self.server.batches_processed >= self.total_updates:
            return
        # the worker's virtual now: the event clock plus its pending compute
        now, pending = self.sim.clock, self._pending
        cycle = worker_cycle(self.workers[m], self.plan, lambda: now() + pending[m])
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
        delay = pending[m] + self.network.transfer_time(m, nbytes)
        pending[m] = 0.0
        self.sim.schedule(delay, partial(self._arrive, message))
        if kind is POST:
            # same delay, scheduled second: the worker resumes right after
            # the server processed its push
            self.sim.schedule(delay, partial(self._resume, m, cycle, None))
        else:
            self._parked[m] = cycle

    def _arrive(self, message: Message) -> None:
        """A message reached the server: dispatch it, send the replies down."""
        now = self.sim.now
        server = self.server
        applied = server.batches_processed
        for worker, reply, nbytes in dispatch(self.session, message, now):
            down = self.network.transfer_time(worker, nbytes)
            self.sim.schedule(down, partial(self._resume, worker, self._parked[worker], reply))
        if server.batches_processed != applied:
            self.session.maybe_evaluate(now)
            if server.batches_processed >= self.total_updates:
                self.sim.stop()

    # ------------------------------------------------------------------ #
    def run(self) -> RunResult:
        """Execute the configured run and collect the result."""
        # wall_time is reporting-only, never fed back into the simulation
        # (virtual time drives everything else)  # lint-ok: determinism
        wall_start = time.perf_counter()
        start_jitter = self.rng_tree.child("start").generator("jitter")
        for m in range(self.config.num_workers):
            delay = float(start_jitter.uniform(0.0, 1e-4))
            self.sim.schedule(delay, partial(self._start_cycle, m))
        # generous event budget: each update takes a bounded handful of events
        self.sim.run(max_events=40 * self.total_updates + 10_000)

        # degenerate runs (e.g. max_updates smaller than one epoch and the
        # finish-eval raced the stop): take one final snapshot
        self.session.ensure_final_eval(self.sim.now)
        return self.session.build_result(
            self.sim.now,
            backend="sim",
            wall_time=time.perf_counter() - wall_start,  # lint-ok: determinism
        )
