"""Algorithm 1's worker cycle and Algorithm 2's dispatch, each stated once.

**The cycle** (:func:`worker_cycle`) is a generator that does the real
mathematics of one pull -> forward -> [state push -> compensation] ->
backward -> push round and *yields* everything that takes time or touches
a link, so it never reads a transport and never sleeps:

* ``(CALL, message, nbytes)`` — send ``message`` to the server and resume
  with the server's reply;
* ``(POST, message, nbytes)`` — send ``message``; resume once delivered;
* ``(COMPUTE, seconds)`` — ``seconds`` of *virtual* work was just done;
  resume with the duration the driver charged for it (the sampled value
  itself under a virtual clock, measured wall seconds otherwise).

The compensation round trip is the only branch: LC-ASGD calls with
``state_m`` and waits for ``l_delay`` before backward; every other rule
posts state and gradient fused and awaits nothing.

**The gossip cycle** (:func:`gossip_cycle`) is AD-PSGD's step in the same
terms: a local step on the worker's own vector, ``COMPUTE``, ``POST`` of a
:class:`~repro.runtime.messages.GossipReport`, then one more effect:

* ``(EXCHANGE, mine)`` — offer this worker's :class:`~repro.runtime.
  messages.WeightExchange`; resume with the partner's, or None when the
  worker averages with nobody this step.

**The dispatch** (:func:`dispatch`) maps one arrived message to the
server handler, logs the update it applied, and names the replies to send.

Drivers decide what an effect costs.  The sim driver
(:class:`~repro.core.trainer.DistributedTrainer`) turns effects into
:class:`~repro.cluster.simulator.Simulator` events, whose deliveries fill
its event-queue inbox; :class:`BlockingDriver` runs them over blocking
``send``/``recv`` callables for worker threads
(:mod:`~repro.runtime.thread_backend`) and worker processes
(:mod:`~repro.runtime.proc_worker`); the server side of all three is
:func:`~repro.runtime.server_actor.server_actor_loop`.  AD-PSGD has no
server: its reports still go through the dispatch, and its exchanges are
answered by the gossip sim's rounds or, on worker threads, by a
:class:`BlockingDriver` whose ``exchange`` meets a partner on the
:class:`~repro.runtime.gossip_backend.PairingBoard`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Generator, Optional, Sequence, Tuple

import numpy as np

from repro.core.algorithms.adpsgd import gossip_staleness
from repro.core.algorithms.base import UpdateRule
from repro.core.worker import DistributedWorker
from repro.nn.norm import bn_layers, running_bn_stats
from repro.runtime.messages import (
    CombinedPush,
    CompensationMessage,
    GossipReport,
    GradientPush,
    Message,
    PullReply,
    PullRequest,
    Shutdown,
    StatePush,
    WeightExchange,
)
from repro.runtime.session import REQUEST_BYTES, ExperimentSession

CALL, POST, COMPUTE, EXCHANGE = "call", "post", "compute", "exchange"

#: ``(worker, reply, logical bytes)`` — one message the server owes a worker
Reply = Tuple[int, Message, int]


def worker_cycle(
    worker: DistributedWorker, wiring, clock: Callable[[], float]
) -> Generator[tuple, object, None]:
    """One Algorithm-1 round for ``worker``, as effects for a driver.

    ``wiring`` is the :class:`~repro.runtime.session.ExperimentPlan` or the
    child-side :class:`~repro.runtime.session.WorkerRuntime` (both carry
    ``config``/``compute``/``timer``/``recorder``/``requires_compensation``
    and the byte budgets); ``clock`` is the driver's notion of now.
    ``model_lock`` spans only the mutating math, never a wait — holding it
    across the compensation wait would deadlock against an evaluating
    server actor in local-BN mode.  Spans (``wire``/``compute``/``encode``)
    are emitted on the driver's clock when the recorder is enabled.
    """
    m = worker.worker_id
    config = wiring.config
    compute = wiring.compute
    timer = wiring.timer
    recorder = wiring.recorder
    obs = recorder.enabled

    t0 = clock()
    pulled = yield CALL, PullRequest(m, sent_at=t0), REQUEST_BYTES
    now = clock()
    if obs:
        recorder.emit(now, "span", m, phase="wire", dur_ms=(now - t0) * 1e3)
    worker.load_params(pulled.weights, pulled.version, now - pulled.request_sent_at)
    del pulled

    with worker.model_lock, timer.section("worker-compute"):
        state = worker.forward()
    spent = yield COMPUTE, compute.duration(m, fraction=1.0 / 3.0)
    if obs:
        recorder.emit(clock(), "span", m, phase="compute", dur_ms=spent * 1e3)

    reply = None
    compensated = wiring.requires_compensation
    if compensated:
        t0 = clock() if obs else 0.0
        reply = (yield CALL, StatePush(m, state=state), wiring.state_bytes).reply
        if obs:
            now = clock()
            recorder.emit(now, "span", m, phase="wire", dur_ms=(now - t0) * 1e3)

    with worker.model_lock, timer.section("worker-compute"):
        payload = worker.backward(
            reply=reply, lc_lambda=config.lc_lambda, compensation=config.compensation
        )
    # the next state push's t_comp feature is what the driver charged
    worker.last_t_comp = spent = yield COMPUTE, compute.duration(m, fraction=2.0 / 3.0)
    if obs:
        recorder.emit(clock(), "span", m, phase="compute", dur_ms=spent * 1e3)

    if compensated:
        push, nbytes = GradientPush(m, payload=payload), wiring.model_bytes
    else:
        push = CombinedPush(m, state=state, payload=payload)
        nbytes = wiring.model_bytes + wiring.state_bytes
    del state, payload
    t0 = clock() if obs else 0.0
    yield POST, push, nbytes
    if obs:
        now = clock()
        recorder.emit(now, "span", m, phase="encode", dur_ms=(now - t0) * 1e3)


@dataclass
class GossipReplica:
    """What one AD-PSGD worker carries from step to step.

    ``params`` is its authoritative flat vector (no server holds one),
    ``rule`` its local optimizer with its own momentum, ``steps`` the local
    steps taken and ``averaged_at`` the step count at its last average.
    """

    params: np.ndarray
    rule: UpdateRule
    steps: int = 0
    averaged_at: int = 0


def gossip_cycle(
    replica: GossipReplica, worker: DistributedWorker, wiring, clock: Callable[[], float]
) -> Generator[tuple, object, None]:
    """One AD-PSGD step for ``worker`` (Lian et al.), as effects for a driver.

    The local step updates ``replica.params``, its report goes through the
    dispatch like a gradient push (its staleness is the steps since the
    last average), and the worker offers a snapshot of its weights and BN
    running statistics.  Given the partner's, it moves to the midpoint in
    place: ``x += y; x *= 0.5`` rounds exactly like ``(x + y) * 0.5``, so
    both members of a pair hold the same bits afterwards.  ``model_lock``
    spans the math and the snapshot, never a wait, so the consensus
    evaluation always reads a whole step.  ``clock`` is unused: no
    compensation reads a gossip worker's ``t_comm`` feature.
    """
    m = worker.worker_id
    params = replica.params
    duration = wiring.compute.duration(m, fraction=1.0)
    lr = wiring.server.current_lr
    with worker.model_lock, wiring.timer.section("worker-compute"):
        worker.load_params(params, version=replica.steps, t_comm=0.0)
        _, payload = worker.forward_backward(t_comp=duration)
        replica.rule.apply_gradient(params, payload, lr, version=replica.steps)
    replica.steps += 1
    yield COMPUTE, duration

    staleness = gossip_staleness(replica.steps, replica.averaged_at)
    yield POST, GossipReport(m, loss=payload.loss, staleness=staleness), REQUEST_BYTES

    with worker.model_lock:
        mine = WeightExchange(m, weights=params.copy(), bn_stats=running_bn_stats(worker.model))
    theirs = yield EXCHANGE, mine
    if theirs is None:
        return
    with worker.model_lock:
        params += theirs.weights
        params *= 0.5
        for layer, (mean, var) in zip(bn_layers(worker.model), theirs.bn_stats):
            layer.running_mean += mean
            layer.running_mean *= 0.5
            layer.running_var += var
            layer.running_var *= 0.5
    replica.averaged_at = replica.steps


def dispatch(session: ExperimentSession, message: Message, now: float) -> Sequence[Reply]:
    """Algorithm 2 for one arrived ``message``; returns the replies owed.

    A pull is answered with the weights (or nothing while the SSGD barrier
    holds it), a state push with the compensation, and a gradient with the
    pull replies its barrier round released, if any.  A gossip report is a
    local step some AD-PSGD worker already applied to its own replica: it
    only advances the server's counters, which serverless runs keep as
    bookkeeping.  Every applied update, gossip included, enters the run
    here through :meth:`~repro.runtime.session.ExperimentSession.record_update`.
    """
    plan = session.plan
    server = plan.server
    m = message.worker
    kind = type(message)
    if kind is PullRequest:
        weights = server.handle_pull(m, request_time=message.sent_at)
        if weights is None:
            return ()
        return [(m, _pull_reply(server, m, weights, message.sent_at), plan.model_bytes)]
    if kind is StatePush:
        reply = server.handle_state(message.state)
        return [(m, CompensationMessage(m, reply=reply), REQUEST_BYTES)]
    if kind is GossipReport:
        server.batches_processed += 1
        server.version += 1
        session.record_update(now, m, message.staleness, message.loss)
        return ()
    if kind is CombinedPush:
        advanced, staleness = server.handle_combined(message.state, message.payload)
    elif kind is GradientPush:
        advanced, staleness = server.handle_gradient(message.payload)
    else:
        raise TypeError(f"server received {kind.__name__}")
    session.record_update(now, m, staleness, message.payload.loss)
    if not advanced:
        return ()
    return [
        (w, _pull_reply(server, w, server.params.copy(), sent_at), plan.model_bytes)
        for w, sent_at in server.drain_pending_pulls()
    ]


def _pull_reply(server, worker: int, weights, sent_at: float) -> PullReply:
    return PullReply(
        worker, weights=weights, version=server.pull_versions[worker], request_sent_at=sent_at
    )


class BlockingDriver:
    """Runs one worker's cycles over blocking ``send`` / ``recv`` callables.

    ``send(message, nbytes)`` delivers to the server (sleeping out any
    emulated uplink itself) and ``recv()`` blocks for the next message to
    this worker.  ``cycle`` builds each cycle from ``(worker, wiring,
    clock)``: :func:`worker_cycle` by default, or a :func:`gossip_cycle`
    bound to its replica, whose ``EXCHANGE`` is answered by
    ``exchange(mine)``.  With a ``clock`` the driver is free-running: compute
    effects sleep ``compute_scale`` real seconds per virtual second and
    are answered with the wall seconds since the cycle last resumed (the
    real math plus that sleep).  With ``clock=None`` it is deterministic:
    a per-worker virtual clock advances by each sampled compute duration
    and each link leg's modelled transfer time, nothing sleeps, and two
    runs see identical timing features.
    """

    def __init__(
        self,
        worker: DistributedWorker,
        wiring,
        send: Callable[[Message, int], None],
        recv: Callable[[], Message],
        clock: Optional[Callable[[], float]] = None,
        compute_scale: float = 0.0,
        cycle: Callable[..., Generator] = worker_cycle,
        exchange: Optional[Callable[[WeightExchange], Optional[WeightExchange]]] = None,
    ) -> None:
        self.worker = worker
        self.wiring = wiring
        self.send = send
        self.recv = recv
        self.cycle = cycle
        self.exchange = exchange
        self.virtual = clock is None
        self.clock = self._virtual_now if clock is None else clock
        self.compute_scale = float(compute_scale)
        self._vnow = 0.0

    def _virtual_now(self) -> float:
        return self._vnow

    def _link(self, nbytes: int) -> None:
        """One link leg: only the virtual clock is charged here (a real
        uplink is slept out by ``send``, a real downlink by ``recv``)."""
        if self.virtual:
            self._vnow += self.wiring.network.transfer_time(self.worker.worker_id, nbytes)

    def _computed(self, seconds: float, resumed: float) -> float:
        """What ``seconds`` of virtual work cost on this driver's clock."""
        if self.virtual:
            self._vnow += seconds
            return seconds
        if self.compute_scale > 0:
            time.sleep(self.compute_scale * seconds)
        return time.perf_counter() - resumed

    def run_cycle(self) -> bool:
        """One full cycle; False when a Shutdown ended it mid-way."""
        cycle = self.cycle(self.worker, self.wiring, self.clock)
        answer: object = None
        resumed = time.perf_counter()
        while True:
            try:
                effect = cycle.send(answer)
            except StopIteration:
                return True
            if effect[0] is COMPUTE:
                answer = self._computed(effect[1], resumed)
            elif effect[0] is EXCHANGE:
                answer = self.exchange(effect[1])
            else:
                kind, message, nbytes = effect
                self.send(message, nbytes)
                self._link(nbytes)
                answer = None
                if kind is CALL:
                    answer = self.recv()
                    if isinstance(answer, Shutdown):
                        cycle.close()
                        return False
                    self._link(
                        self.wiring.model_bytes if type(answer) is PullReply else REQUEST_BYTES
                    )
            resumed = time.perf_counter()
