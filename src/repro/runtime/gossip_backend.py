"""Decentralized (serverless) execution: the AD-PSGD gossip runtime.

No parameter server exists here.  Every worker owns an authoritative flat
parameter vector, takes local SGD steps, and once per step averages that
vector with one neighbor on a :class:`~repro.cluster.topology.TopologyModel`
graph (Lian et al. 2018).  Parameters only ever travel worker-to-worker.
The step is :func:`~repro.runtime.cycle.gossip_cycle`, stated once; its
report goes through the shared :func:`~repro.runtime.cycle.dispatch`,
exactly like a gradient push, which logs the update and advances the
plan's :class:`~repro.core.server.ParameterServer` as bookkeeping (its
``batches_processed`` counter and lr schedule — its parameter vector is
never trained against).  Two drivers answer the cycle's ``EXCHANGE``:

* the sim's rounds (:func:`run_rounds`) — single-threaded virtual time.
  Each round steps every worker's cycle to its exchange in id order (its
  report dispatched at the worker's own virtual clock), then the
  topology's seeded :meth:`~repro.cluster.topology.TopologyModel.round_pairs`
  matching pairs the workers that got there, over per-edge links.
  Everything derives from ``config.seed`` via name-keyed RNG streams, so
  two runs produce bit-identical curves.
* worker threads — :class:`~repro.runtime.thread_backend.ThreadBackend`
  runs ``ad-psgd`` on its own server actor (on the calling thread),
  transport and :class:`~repro.runtime.cycle.BlockingDriver`.  Its ``exchange``
  (:func:`thread_wiring`) picks a neighbor
  (:meth:`~repro.cluster.topology.TopologyModel.partner`), meets a partner
  on the :class:`PairingBoard`, sends through
  :meth:`~repro.runtime.transport.InProcTransport.to_peer` and waits for
  the partner's frame.  Staleness and interleaving are real.

:class:`GossipBackend` only picks one of the two.  Both account
communication per endpoint: the busiest endpoint in a gossip run is a
*worker* moving O(1) exchanges per step regardless of cluster size,
versus the server endpoint's O(N) in the centralized backends — the
scaling claim ``benchmarks/bench_gossip_scaling.py`` measures.
"""

from __future__ import annotations

import threading
import time
from contextlib import suppress
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.lockorder import make_condition
from repro.cluster.network import LinkModel
from repro.cluster.topology import TopologyModel, make_topology
from repro.core.algorithms import make_update_rule
from repro.core.metrics import RunResult
from repro.nn.module import get_flat_params, set_flat_params
from repro.nn.norm import load_bn_running_stats, running_bn_stats
from repro.obs.recorder import NULL_RECORDER
from repro.runtime.cycle import GossipReplica, dispatch, gossip_cycle
from repro.runtime.messages import Shutdown, WeightExchange
from repro.runtime.server_actor import RunControl
from repro.runtime.session import ExperimentPlan, ExperimentSession
from repro.runtime.thread_backend import ThreadBackend
from repro.runtime.transport import CommStats, InProcTransport
from repro.utils.logging import get_logger

logger = get_logger("runtime.gossip")


class PairingBoard:
    """Atomic matchmaker for pairwise averaging (the deadlock-free core).

    Protocol: a worker finishes a local step and calls :meth:`request` with
    its randomly chosen neighbor.  Under one lock, the board either (a)
    matches it immediately — with its desired partner if that partner is
    waiting, else with *any* waiting neighbor (AD-PSGD's passive side
    accepts whoever shows up) — or (b) parks it as waiting.  Matching is
    therefore atomic: both members learn their partner inside the same
    critical section, and a matched worker proceeds to a send-then-receive
    exchange.

    Why no deadlock: a worker never holds one partner while waiting for
    another — it is either unmatched-and-waiting (holding nobody) or
    matched-and-committed (its partner is committed to it and to nobody
    else), so the hold-and-wait condition of the classic cycle cannot
    arise.  Nor can everyone park: a connected topology has an edge inside
    any all-workers waiting set, and the last worker to arrive would have
    matched across it — so some worker is always runnable until the run's
    ``done`` event is set (budget met, or a thread failed); parked workers
    poll it and return None.
    """

    def __init__(
        self, topology: TopologyModel, done: threading.Event, recorder=None, clock=None
    ) -> None:
        self._topology = topology
        self._done = done
        self._cond = make_condition("PairingBoard._cond")
        self._waiting: Dict[int, int] = {}  # guarded-by: _cond — worker -> desired partner
        self._matches: Dict[int, int] = {}  # guarded-by: _cond — worker -> assigned partner
        # optional trace sink: how long each worker parks before matching
        self._recorder = recorder if recorder is not None else NULL_RECORDER
        self._clock = clock if clock is not None else (lambda: 0.0)

    def _pick_partner(self, worker: int, desired: int) -> Optional[int]:
        """Choose a waiting neighbor under the lock (desired first)."""
        if desired in self._waiting:
            return desired
        neighbors = set(self._topology.neighbors(worker))
        candidates = [w for w in self._waiting if w in neighbors]
        return min(candidates) if candidates else None

    def request(self, worker: int, desired: int) -> Optional[int]:
        """Block until matched with a neighbor; None when the run ended."""
        start = self._clock() if self._recorder.enabled else 0.0
        with self._cond:
            partner = self._pick_partner(worker, desired)
            if partner is not None:
                del self._waiting[partner]
                self._matches[partner] = worker
                self._cond.notify_all()
            else:
                self._waiting[worker] = desired
                while not self._done.is_set() and worker not in self._matches:
                    self._cond.wait(timeout=0.05)
                self._waiting.pop(worker, None)
                partner = self._matches.pop(worker, None)
        if self._recorder.enabled:
            now = self._clock()
            self._recorder.emit(
                now, "pairing_wait", worker,
                dur_ms=(now - start) * 1e3,
                partner=-1 if partner is None else partner,
            )
        return partner


class GossipBackend:
    """Run ``ad-psgd`` on the sim's rounds or on worker threads.

    Parameters
    ----------
    mode:
        ``"sim"`` (deterministic virtual-time rounds, the default) or
        ``"thread"`` (real concurrent workers, on :class:`ThreadBackend`).
    time_scale:
        Thread mode only: real seconds of emulated per-edge link delay per
        virtual second (0 disables; nonzero values double as the delay
        injection the deadlock tests use).
    compute_scale:
        Thread mode only: real seconds slept per virtual compute second.
    timeout:
        Thread mode only: hard cap in real seconds before the run is
        declared hung.
    """

    name = "gossip"

    def __init__(
        self,
        mode: str = "sim",
        time_scale: float = 0.0,
        compute_scale: float = 0.0,
        timeout: float = 600.0,
    ) -> None:
        if mode not in ("sim", "thread"):
            raise ValueError(f"mode must be 'sim' or 'thread', got {mode!r}")
        self.mode = mode
        self._threads = ThreadBackend(
            time_scale=time_scale, compute_scale=compute_scale, timeout=timeout
        )

    def run(self, plan: ExperimentPlan) -> RunResult:
        """Run the plan to completion and return its RunResult."""
        if plan.config.algorithm != "ad-psgd":
            raise ValueError(
                f"gossip backend executes 'ad-psgd' only, got {plan.config.algorithm!r}"
            )
        if self.mode == "sim":
            return run_rounds(plan)
        return self._threads.run(plan)


def gossip_replicas(session: ExperimentSession) -> Tuple[TopologyModel, List[GossipReplica]]:
    """The peer graph and each worker's replica; installs the consensus eval."""
    plan = session.plan
    config = plan.config
    if not plan.workers:
        raise ValueError("gossip backend needs in-process worker replicas")
    cl = config.cluster
    topology = make_topology(
        config.topology,
        config.num_workers,
        link=LinkModel(
            base_latency=cl.link_latency,
            bandwidth=cl.link_bandwidth,
            jitter_sigma=cl.link_jitter,
        ),
        heterogeneity=cl.network_heterogeneity,
        seed=plan.rng_tree.child("topology").seed,
    )
    replicas = [
        GossipReplica(
            get_flat_params(worker.model),  # float64, like the server's vector
            make_update_rule("ad-psgd", num_workers=config.num_workers, momentum=config.momentum),
        )
        for worker in plan.workers
    ]
    session.eval_sync = _make_eval_sync(plan, [r.params for r in replicas])
    return topology, replicas


def run_rounds(plan: ExperimentPlan) -> RunResult:
    """The sim driver: synchronous rounds of every worker's gossip cycle.

    Each round steps the cycles to their exchange in id order, dispatching
    each report at that worker's virtual clock, until the budget is met;
    then the round's matching pairs the workers that reached their
    exchange.  A pair's clocks both move to the later one plus the edge's
    sampled transfer time, and each side receives one model payload.
    """
    config = plan.config
    server = plan.server
    recorder = plan.recorder
    n = config.num_workers
    start = time.perf_counter()
    session = ExperimentSession(plan)
    topology, replicas = gossip_replicas(session)
    match_rng = plan.rng_tree.child("gossip").generator("matching")
    clocks = [0.0] * n
    stats = CommStats(n)

    round_index = 0
    while server.batches_processed < plan.total_updates:
        offers: Dict[int, Tuple] = {}  # worker -> (its cycle, its WeightExchange)
        for m in range(n):
            if server.batches_processed >= plan.total_updates:
                break
            cycle = gossip_cycle(replicas[m], plan.workers[m], plan, partial(clocks.__getitem__, m))
            clocks[m] += next(cycle)[1]  # COMPUTE: a virtual clock charges the sample
            dispatch(session, cycle.send(None)[1], clocks[m])  # POST the report
            session.maybe_evaluate(max(clocks))
            offers[m] = (cycle, cycle.send(None)[1])  # EXCHANGE
        answers: Dict[int, Optional[WeightExchange]] = dict.fromkeys(offers)
        for i, j in topology.round_pairs(round_index, match_rng):
            if i not in offers or j not in offers:
                continue  # the budget ended this round before one of them stepped
            t_done = max(clocks[i], clocks[j]) + topology.transfer_time(i, j, plan.model_bytes)
            clocks[i] = clocks[j] = t_done
            answers[i], answers[j] = offers[j][1], offers[i][1]
            for sender, receiver in ((i, j), (j, i)):  # full duplex: one payload each way
                stats.count_peer(sender, receiver, plan.model_bytes)
                if recorder.enabled:
                    recorder.emit(
                        t_done, "wire_bytes", sender, direction="peer",
                        logical=int(plan.model_bytes), wire=int(plan.model_bytes),
                    )
        for m, (cycle, _) in offers.items():
            with suppress(StopIteration):
                cycle.send(answers[m])  # average, and end the step
        round_index += 1

    total_time = max(clocks)
    session.ensure_final_eval(total_time)
    logger.info(
        "gossip sim finished: topology=%s M=%d updates=%d rounds=%d t=%.1fs",
        config.topology, n, server.batches_processed, round_index, total_time,
    )
    return session.build_result(
        total_time,
        backend=GossipBackend.name,
        wall_time=time.perf_counter() - start,
        comm=stats.summary(),
    )


def thread_wiring(
    session: ExperimentSession, transport: InProcTransport, ctl: RunControl, time_scale: float
) -> List[dict]:
    """Each worker thread's :class:`BlockingDriver` ``cycle`` and ``exchange``.

    A worker's exchange picks a neighbor, meets a partner on the board,
    sends, then waits for the partner's frame.  It answers None when the
    worker has no neighbor (one worker runs plain local SGD) or the run
    ended while it waited on the board.  A normal-completion Shutdown does
    not abort the wait — the partner is committed and sends before it
    receives; only an error Shutdown (a thread died) gives up.
    """
    plan = session.plan
    topology, replicas = gossip_replicas(session)
    board = PairingBoard(topology, ctl.done, recorder=plan.recorder, clock=ctl.clock)

    def exchange(m: int, rng, mine: WeightExchange) -> Optional[WeightExchange]:
        desired = topology.partner(m, rng)
        partner = None if desired is None else board.request(m, desired)
        if partner is None:
            return None
        delay = 0.0
        if time_scale > 0:
            delay = time_scale * topology.transfer_time(m, partner, plan.model_bytes)
        transport.to_peer(m, partner, mine, nbytes=plan.model_bytes, delay=delay)
        inbox = transport.worker_inboxes[m]
        while True:
            msg = inbox.get()
            if isinstance(msg, WeightExchange):
                return msg
            if isinstance(msg, Shutdown) and ctl.error is not None:
                return None

    return [
        dict(
            cycle=partial(gossip_cycle, replica),
            exchange=partial(
                exchange, m, plan.rng_tree.child(f"gossip-worker-{m}").generator("partners")
            ),
        )
        for m, replica in enumerate(replicas)
    ]


def _make_eval_sync(plan: ExperimentPlan, local_params: List[np.ndarray]) -> Callable[[], None]:
    """Eval hook: install the mean of all replicas into ``eval_model``.

    Decentralized runs have no authoritative vector, so evaluation uses the
    consensus estimate ``x̄ = (1/N) Σ x_i`` (the quantity AD-PSGD's analysis
    tracks).  BN running statistics are averaged the same way.  Snapshots
    take each replica's lock one at a time — cheap, and workers never hold
    a lock across a wait.
    """

    def eval_sync() -> None:
        vecs, stats = [], []
        for worker, params in zip(plan.workers, local_params):
            with worker.model_lock:
                vecs.append(params.copy())
                stats.append(running_bn_stats(worker.model))
        set_flat_params(plan.eval_model, _mean(vecs))
        load_bn_running_stats(
            plan.eval_model,
            [(_mean([m for m, _ in layer]), _mean([v for _, v in layer])) for layer in zip(*stats)],
        )

    return eval_sync


def _mean(arrays: List[np.ndarray]) -> np.ndarray:
    """``(a_0 + a_1 + ...) / n``, summed left to right."""
    return sum(arrays[1:], arrays[0]) / len(arrays)
