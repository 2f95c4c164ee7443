"""Decentralized (serverless) execution: the AD-PSGD gossip runtime.

No parameter server exists here.  Every worker owns an authoritative flat
parameter vector, takes local SGD steps, and once per step averages that
vector with one neighbor on a :class:`~repro.cluster.topology.TopologyModel`
graph (Lian et al. 2018).  Parameters only ever travel worker-to-worker.
Each finished local step becomes a :class:`~repro.runtime.messages.
GossipReport` that goes through the shared
:func:`~repro.runtime.cycle.dispatch`, exactly like a gradient push on the
server backends: it logs the update and advances the plan's
:class:`~repro.core.server.ParameterServer`, which serves here purely as
bookkeeping (its ``batches_processed`` counter and lr schedule — its
parameter vector is never trained against).

Two execution modes, selected by ``mode=``:

* ``sim`` — single-threaded virtual-time rounds.  Each round every worker
  takes one local step (durations sampled from the plan's
  :class:`~repro.cluster.node.ComputeModel`) and dispatches its report at
  its own virtual clock, then the topology's seeded
  :meth:`~repro.cluster.topology.TopologyModel.round_pairs` matching
  exchanges weights over per-edge links.  Everything derives from
  ``config.seed`` via name-keyed RNG streams, so two runs produce
  bit-identical curves.
* ``thread`` — genuinely concurrent workers over an
  :class:`~repro.runtime.transport.InProcTransport`: the shared
  :func:`~repro.runtime.server_actor.server_actor_loop` drains the reports
  from the server mailbox and ends the run once the budget is met, and
  matched peers exchange weights through
  :meth:`~repro.runtime.transport.InProcTransport.to_peer`.  Pairing goes through
  the :class:`PairingBoard`, an atomic matchmaker: a worker is either
  *waiting* on the board or *committed* to exactly one partner, never
  holding one partner while waiting for another — which is what makes the
  pairwise averaging deadlock-free (see the class docstring for the
  argument).  Staleness and interleaving are real.

Both modes account communication per endpoint: the busiest endpoint in a
gossip run is a *worker* moving O(1) exchanges per step regardless of
cluster size, versus the server endpoint's O(N) in the centralized
backends — the scaling claim ``benchmarks/bench_gossip_scaling.py``
measures.
"""

from __future__ import annotations

import threading
import time
from functools import partial
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.lockorder import make_condition
from repro.cluster.network import LinkModel
from repro.cluster.topology import TopologyModel, make_topology
from repro.core.algorithms import make_update_rule
from repro.core.algorithms.adpsgd import gossip_staleness, pairwise_average
from repro.core.metrics import RunResult
from repro.nn.module import get_flat_params, set_flat_params
from repro.nn.norm import bn_layers, load_bn_running_stats
from repro.obs.recorder import NULL_RECORDER
from repro.runtime.cycle import dispatch
from repro.runtime.messages import GossipReport, Shutdown, WeightExchange
from repro.runtime.server_actor import RunControl, run_actor_threads, server_actor_loop
from repro.runtime.session import REQUEST_BYTES, ExperimentPlan, ExperimentSession
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
    """Execute an ``ad-psgd`` :class:`ExperimentPlan` without a server.

    Parameters
    ----------
    mode:
        ``"sim"`` (deterministic virtual-time rounds, the default) or
        ``"thread"`` (real concurrent workers).
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
        if time_scale < 0 or compute_scale < 0:
            raise ValueError("time_scale and compute_scale must be >= 0")
        if timeout <= 0:
            raise ValueError("timeout must be positive")
        self.mode = mode
        self.time_scale = float(time_scale)
        self.compute_scale = float(compute_scale)
        self.timeout = float(timeout)

    # ------------------------------------------------------------------ #
    def run(self, plan: ExperimentPlan) -> RunResult:
        """Run the plan to completion and return its RunResult."""
        config = plan.config
        if config.algorithm != "ad-psgd":
            raise ValueError(
                f"gossip backend executes 'ad-psgd' only, got {config.algorithm!r}"
            )
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
        session = ExperimentSession(plan)
        local_params = [
            get_flat_params(worker.model) for worker in plan.workers
        ]  # per-worker authoritative vectors (float64, like the server's)
        session.eval_sync = _make_eval_sync(plan, local_params)
        if self.mode == "sim":
            return self._run_sim(plan, session, topology, local_params)
        return self._run_threads(plan, session, topology, local_params)

    # ------------------------------------------------------------------ #
    # deterministic virtual-time mode
    # ------------------------------------------------------------------ #
    def _run_sim(
        self,
        plan: ExperimentPlan,
        session: ExperimentSession,
        topology: TopologyModel,
        local_params: List[np.ndarray],
    ) -> RunResult:
        config = plan.config
        server = plan.server
        n = config.num_workers
        start = time.perf_counter()

        rules = [
            make_update_rule("ad-psgd", num_workers=n, momentum=config.momentum)
            for _ in range(n)
        ]
        match_rng = plan.rng_tree.child("gossip").generator("matching")
        clocks = [0.0] * n
        steps = [0] * n
        last_avg = [0] * n
        last_t_comm = [0.0] * n
        stats = CommStats(n)

        round_index = 0
        while server.batches_processed < plan.total_updates:
            # one local step per worker, in id order (the deterministic
            # schedule; real asynchrony lives in thread mode)
            for m in range(n):
                if server.batches_processed >= plan.total_updates:
                    break
                worker = plan.workers[m]
                duration = plan.compute.duration(m, fraction=1.0)
                lr = server.current_lr
                worker.load_params(local_params[m], version=steps[m], t_comm=last_t_comm[m])
                with plan.timer.section("worker-compute"):
                    _, payload = worker.forward_backward(t_comp=duration)
                rules[m].apply_gradient(local_params[m], payload, lr, version=steps[m])
                steps[m] += 1
                clocks[m] += duration
                report = GossipReport(
                    m, loss=payload.loss, staleness=gossip_staleness(steps[m], last_avg[m])
                )
                dispatch(session, report, clocks[m])
                session.maybe_evaluate(max(clocks))

            # gossip: a conflict-free matching over the topology
            for i, j in topology.round_pairs(round_index, match_rng):
                t_done = max(clocks[i], clocks[j]) + topology.transfer_time(
                    i, j, plan.model_bytes
                )
                last_t_comm[i] = last_t_comm[j] = t_done - max(clocks[i], clocks[j])
                clocks[i] = clocks[j] = t_done
                avg_i, avg_j = pairwise_average(local_params[i], local_params[j])
                local_params[i][:] = avg_i
                local_params[j][:] = avg_j
                _average_bn_pair(plan.workers[i].model, plan.workers[j].model)
                last_avg[i] = steps[i]
                last_avg[j] = steps[j]
                # full-duplex exchange: one model payload each way
                stats.count_peer(i, j, plan.model_bytes)
                stats.count_peer(j, i, plan.model_bytes)
                if plan.recorder.enabled:
                    for sender in (i, j):
                        plan.recorder.emit(
                            t_done, "wire_bytes", sender, direction="peer",
                            logical=int(plan.model_bytes), wire=int(plan.model_bytes),
                        )
            round_index += 1

        total_time = max(clocks) if clocks else 0.0
        session.ensure_final_eval(total_time)
        elapsed = time.perf_counter() - start
        comm = stats.summary()
        logger.info(
            "gossip sim finished: topology=%s M=%d updates=%d rounds=%d t=%.1fs",
            config.topology, n, server.batches_processed, round_index, total_time,
        )
        return session.build_result(
            total_time, backend=self.name, wall_time=elapsed, comm=comm
        )

    # ------------------------------------------------------------------ #
    # concurrent thread mode
    # ------------------------------------------------------------------ #
    def _run_threads(
        self,
        plan: ExperimentPlan,
        session: ExperimentSession,
        topology: TopologyModel,
        local_params: List[np.ndarray],
    ) -> RunResult:
        config = plan.config
        n = config.num_workers
        ctl = RunControl()
        # no network model: reports move at memory speed, and each peer
        # exchange's per-edge delay is computed by the sending worker
        transport = InProcTransport(n, recorder=plan.recorder, clock=ctl.clock)
        board = PairingBoard(topology, ctl.done, recorder=plan.recorder, clock=ctl.clock)

        server_thread = threading.Thread(
            target=server_actor_loop,
            args=(session, transport, ctl),
            name="repro-gossip-server",
            daemon=True,
        )
        workers = [
            threading.Thread(
                target=self._worker_loop,
                args=(m, session, transport, ctl, board, topology, local_params),
                name=f"repro-gossip-worker-{m}",
                daemon=True,
            )
            for m in range(n)
        ]

        elapsed = run_actor_threads(
            ctl,
            server_thread,
            transport.server_inbox,
            workers,
            wake_workers=partial(transport.wake_all_workers, Shutdown()),
            timeout=self.timeout,
            name="gossip",
        )

        session.ensure_final_eval(elapsed)
        logger.info(
            "gossip thread finished: topology=%s M=%d updates=%d wall=%.2fs",
            config.topology, n, plan.server.batches_processed, elapsed,
        )
        return session.build_result(
            elapsed, backend=self.name, wall_time=elapsed, comm=transport.comm_summary()
        )

    # ------------------------------------------------------------------ #
    def _worker_loop(
        self,
        m: int,
        session: ExperimentSession,
        transport: InProcTransport,
        ctl: RunControl,
        board: PairingBoard,
        topology: TopologyModel,
        local_params: List[np.ndarray],
    ) -> None:
        plan = session.plan
        config = plan.config
        worker = plan.workers[m]
        inbox = transport.worker_inboxes[m]
        params = local_params[m]
        rule = make_update_rule(
            "ad-psgd", num_workers=config.num_workers, momentum=config.momentum
        )
        partner_rng = plan.rng_tree.child(f"gossip-worker-{m}").generator("partners")
        step = 0
        last_avg = 0
        try:
            while not ctl.done.is_set():
                # local step: the model lock spans all replica/vector math so
                # eval snapshots stay consistent; never held across a wait
                duration = plan.compute.duration(m, fraction=1.0)
                lr = plan.server.current_lr
                with worker.model_lock, plan.timer.section("worker-compute"):
                    worker.load_params(params, version=step, t_comm=0.0)
                    _, payload = worker.forward_backward(t_comp=duration)
                    rule.apply_gradient(params, payload, lr, version=step)
                step += 1
                if self.compute_scale > 0:
                    time.sleep(self.compute_scale * duration)
                transport.to_server(
                    m,
                    GossipReport(
                        m, loss=payload.loss, staleness=gossip_staleness(step, last_avg)
                    ),
                    nbytes=REQUEST_BYTES,
                )

                # gossip: atomic pairing, then send-before-receive
                desired = topology.partner(m, partner_rng)
                if desired is None:
                    continue  # single-worker graph: pure local SGD
                partner = board.request(m, desired)
                if partner is None:
                    break  # run ended while waiting on the board
                with worker.model_lock:
                    snapshot = params.copy()
                    bn_stats = _snapshot_bn(worker.model)
                delay = 0.0
                if self.time_scale > 0:
                    delay = self.time_scale * topology.transfer_time(
                        m, partner, plan.model_bytes
                    )
                transport.to_peer(
                    m,
                    partner,
                    WeightExchange(m, weights=snapshot, bn_stats=bn_stats),
                    nbytes=plan.model_bytes,
                    delay=delay,
                )
                theirs = self._receive_exchange(inbox, ctl)
                if theirs is None:
                    break  # partner died mid-exchange (error path only)
                with worker.model_lock:
                    mine, _ = pairwise_average(params, theirs.weights)
                    params[:] = mine
                    _average_bn_into(worker.model, theirs.bn_stats)
                last_avg = step
        except BaseException as exc:
            ctl.fail(exc)

    @staticmethod
    def _receive_exchange(inbox, ctl: RunControl) -> Optional[WeightExchange]:
        """Wait for the committed partner's weights.

        A normal-completion Shutdown does not abort the exchange — the
        partner is committed and will send (both sides send before either
        receives); only an error Shutdown (a thread actually died) gives up.
        """
        while True:
            msg = inbox.get()
            if isinstance(msg, WeightExchange):
                return msg
            if isinstance(msg, Shutdown) and ctl.error is not None:
                return None


# ---------------------------------------------------------------------- #
# replica averaging helpers (shared by both modes)
# ---------------------------------------------------------------------- #
def _snapshot_bn(model) -> tuple:
    """Copy a model's BN running statistics (caller holds the lock)."""
    return tuple(
        (layer.running_mean.copy(), layer.running_var.copy())
        for layer in bn_layers(model)
    )


def _average_bn_into(model, partner_stats: tuple) -> None:
    """Average partner BN running stats into ``model`` in place."""
    layers = bn_layers(model)
    if not partner_stats or len(partner_stats) != len(layers):
        return
    for layer, (mean, var) in zip(layers, partner_stats):
        layer.running_mean[:] = 0.5 * (layer.running_mean + mean)
        layer.running_var[:] = 0.5 * (layer.running_var + var)


def _average_bn_pair(model_a, model_b) -> None:
    """Set both models' BN running stats to their elementwise mean."""
    layers_a, layers_b = bn_layers(model_a), bn_layers(model_b)
    for la, lb in zip(layers_a, layers_b):
        mean = 0.5 * (la.running_mean + lb.running_mean)
        var = 0.5 * (la.running_var + lb.running_var)
        la.running_mean[:] = mean
        lb.running_mean[:] = mean.copy()
        la.running_var[:] = var
        lb.running_var[:] = var.copy()


def _make_eval_sync(plan: ExperimentPlan, local_params: List[np.ndarray]):
    """Eval hook: install the mean of all replicas into ``eval_model``.

    Decentralized runs have no authoritative vector, so evaluation uses the
    consensus estimate ``x̄ = (1/N) Σ x_i`` (the quantity AD-PSGD's analysis
    tracks).  BN running statistics are averaged the same way.  Snapshots
    take each replica's lock one at a time — cheap, and workers never hold
    a lock across a wait.
    """

    def eval_sync() -> None:
        acc: Optional[np.ndarray] = None
        bn_acc: Optional[List[Tuple[np.ndarray, np.ndarray]]] = None
        n = len(plan.workers)
        for worker, params in zip(plan.workers, local_params):
            with worker.model_lock:
                vec = params.copy()
                stats = _snapshot_bn(worker.model)
            acc = vec if acc is None else acc + vec
            if bn_acc is None:
                bn_acc = [[mean, var] for mean, var in stats]
            else:
                for slot, (mean, var) in zip(bn_acc, stats):
                    slot[0] = slot[0] + mean
                    slot[1] = slot[1] + var
        if acc is None:
            return
        set_flat_params(plan.eval_model, acc / n)
        if bn_acc:
            load_bn_running_stats(
                plan.eval_model, [(mean / n, var / n) for mean, var in bn_acc]
            )

    return eval_sync
