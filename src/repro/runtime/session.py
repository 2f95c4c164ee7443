"""Backend-agnostic experiment wiring: the ExperimentPlan and its session.

Historically all of this lived inside ``DistributedTrainer.__init__``, which
welded the experiment *specification* (datasets, model replicas, server,
predictors, timing models) to the virtual-time *executor*.  The runtime
split pulls the wiring out so that any :class:`~repro.runtime.backends.
ExecutionBackend` — the event-loop simulator or the real thread runtime —
consumes one :class:`ExperimentPlan` and produces one
:class:`~repro.core.metrics.RunResult`:

* :class:`ExperimentPlan` — everything a backend needs to execute a
  configured run: the datasets, the model replicas (one initialization),
  the :class:`~repro.core.server.ParameterServer` (with predictors and BN
  strategy attached), the cluster timing models, and the derived byte/
  iteration budgets.  Building a plan performs no training.
* :class:`ExperimentSession` — the clock-agnostic run state layered on a
  plan: the update log, the learning curve, epoch-boundary evaluation,
  and final :class:`~repro.core.metrics.RunResult` assembly.  Backends feed
  it their own notion of "now" (virtual seconds for the simulator, real
  seconds since start for the thread runtime).

Thread-safety contract: a plan is built single-threaded.  During execution,
``server``, ``eval_model`` and the session's trace/curve must only be
touched by whichever thread drives the server (the actor loop in the thread
backend); each worker replica and its loader belong to exactly one worker
thread.  The ``compute``/``network`` models keep independent per-worker RNG
streams, so per-worker sampling is safe from that worker's thread.  The
one cross-thread read — local-BN-mode evaluation borrowing worker 0's
running statistics — synchronizes on that worker's ``model_lock``.

Process-backend contract: replicas need not share an address space at all.
Because every stochastic component re-derives from ``config.seed`` via
name-keyed :class:`~repro.utils.rng.RngTree` streams (never call order),
a child process can rebuild *just its own* replica + loader with
:class:`WorkerRuntime` and arrive at bit-identical initialization — only
weights travel over the wire after that.  The parent's plan keeps its
replicas untouched; its ``server``/session side is driven exactly as in
the thread backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.network import LinkModel, NetworkModel
from repro.cluster.node import ComputeModel, StragglerModel
from repro.cluster.trace import ClusterTrace
from repro.core.algorithms import make_update_rule
from repro.core.batchnorm_sync import make_bn_strategy
from repro.core.config import TrainingConfig
from repro.core.metrics import CurvePoint, RunResult, evaluate_model
from repro.core.predictors import make_loss_predictor, make_step_predictor
from repro.core.server import ParameterServer
from repro.core.worker import DistributedWorker
from repro.data.dataset import ArrayDataset
from repro.data.loader import DataLoader
from repro.data.registry import build_dataset
from repro.nn.module import Module, get_flat_params, set_flat_params
from repro.nn.norm import bn_layers, load_bn_running_stats
from repro.nn.registry import build_model
from repro.obs.recorder import NULL_RECORDER
from repro.optim.lr_scheduler import MultiStepLR
from repro.utils.logging import get_logger
from repro.utils.rng import RngTree
from repro.utils.timer import Timer

logger = get_logger("runtime.session")

#: pull request / small control messages on the wire
REQUEST_BYTES = 256
#: loss + costs envelope of a ``state_m`` push; BN stats added per feature
STATE_OVERHEAD_BYTES = 1024


# ``build_dataset`` / ``build_model`` used to live here as if/elif chains;
# they are now the name-keyed registries of repro.data.registry and
# repro.nn.registry, imported above and re-exported for existing callers.


def build_worker(
    config: TrainingConfig,
    train_set: ArrayDataset,
    num_classes: int,
    worker_id: int,
    rng_tree: Optional[RngTree] = None,
    init: Optional[np.ndarray] = None,
) -> DistributedWorker:
    """One replica + loader for worker ``worker_id``, derived from the seed.

    Given ``init``, the plan's one initialization as a flat vector, the
    replica draws nothing and is loaded from it.  Without one it draws its
    own from ``config.seed`` (``build_model`` reseeds on every call), which
    is what a proc child does; loader streams are keyed by worker name, so
    any process can rebuild any single worker bit-identically without
    constructing the other ``M - 1``.
    """
    rng_tree = rng_tree if rng_tree is not None else RngTree(config.seed)
    model = build_model(config, train_set.input_shape, num_classes, init)
    loader = DataLoader(
        train_set,
        config.batch_size,
        shuffle=True,
        seed=rng_tree.child(f"worker-{worker_id}").generator("batches"),
    )
    return DistributedWorker(
        worker_id, model, loader, collect_bn=config.bn_mode != "local"
    )


def _build_cluster_models(
    config: TrainingConfig, rng_tree: RngTree
) -> Tuple[ComputeModel, NetworkModel]:
    """The virtual compute/network timing models one config implies."""
    cl = config.cluster
    sequential = config.algorithm == "sgd"
    compute = ComputeModel(
        config.num_workers,
        mean_batch_time=cl.mean_batch_time,
        heterogeneity=0.0 if sequential else cl.compute_heterogeneity,
        jitter_sigma=0.0 if sequential else cl.compute_jitter,
        straggler=StragglerModel(cl.straggler_probability, cl.straggler_slowdown),
        seed=rng_tree.child("compute"),
    )
    link = LinkModel(
        base_latency=0.0 if sequential else cl.link_latency,
        bandwidth=cl.link_bandwidth,
        jitter_sigma=0.0 if sequential else cl.link_jitter,
    )
    network = NetworkModel(
        config.num_workers,
        link=link,
        heterogeneity=0.0 if sequential else cl.network_heterogeneity,
        seed=rng_tree.child("network"),
    )
    return compute, network


def _state_bytes_for(config: TrainingConfig, feature_sizes: List[int]) -> int:
    """Wire size of one ``state_m`` push for this config's model."""
    bn_payload = sum(2 * s * 4 for s in feature_sizes)
    return STATE_OVERHEAD_BYTES + (bn_payload if config.bn_mode != "local" else 0)


@dataclass
class ExperimentPlan:
    """Everything a backend needs to execute one configured run.

    Build with :meth:`from_config`; a plan is single-use (its server and
    replicas are mutated by execution).
    """

    config: TrainingConfig
    rng_tree: RngTree
    timer: Timer
    train_set: ArrayDataset
    test_set: ArrayDataset
    num_classes: int
    eval_model: Module
    workers: List[DistributedWorker]
    server: ParameterServer
    compute: ComputeModel
    network: NetworkModel
    iters_per_epoch: int
    total_updates: int
    model_bytes: int
    state_bytes: int
    #: optional observer called with each CurvePoint as it is recorded —
    #: how the campaign layer streams progress without owning the backend.
    #: Called from whichever thread drives the server; keep it cheap.
    on_curve_point: Optional[Callable[[CurvePoint], None]] = field(
        default=None, compare=False
    )
    #: trace event sink (NULL_RECORDER = obs off, a no-op).  Backends and
    #: transports emit spans/events here; like ``on_curve_point`` it is
    #: execution wiring, not run identity, so it never enters spec keys.
    recorder: object = field(default=NULL_RECORDER, compare=False)

    @property
    def requires_compensation(self) -> bool:
        """Whether the rule runs the state push -> compensation round trip."""
        return self.server.rule.requires_compensation

    @classmethod
    def from_config(
        cls, config: TrainingConfig, build_workers: bool = True
    ) -> "ExperimentPlan":
        """Wire one experiment: datasets, replicas, server, cluster models.

        The weights are drawn once, for ``eval_model``; the server and every
        in-process replica start from that vector.  ``build_workers=False``
        skips the ``M`` replicas for backends whose workers live elsewhere
        (proc children draw their own from the seed, the same draw).
        """
        rng_tree = RngTree(config.seed)
        timer = Timer()

        train_set, test_set, num_classes = build_dataset(config)
        input_shape = train_set.input_shape

        # model replicas (one draw, for eval_model) --------------------------------------
        eval_model = build_model(config, input_shape, num_classes)
        init_params = get_flat_params(eval_model)
        workers: List[DistributedWorker] = [
            build_worker(config, train_set, num_classes, m, rng_tree, init_params)
            for m in range(config.num_workers if build_workers else 0)
        ]

        # server --------------------------------------------------------------------------
        iters_per_epoch = max(1, int(np.ceil(len(train_set) / config.batch_size)))
        if config.max_updates is not None:
            total_updates = int(config.max_updates)
        else:
            total_updates = config.epochs * iters_per_epoch

        feature_sizes = [layer.num_features for layer in bn_layers(eval_model)]
        bn_strategy = make_bn_strategy(config.bn_mode, feature_sizes, decay=config.bn_decay)

        loss_predictor = step_predictor = None
        if config.algorithm == "lc-asgd":
            p = config.predictor
            pred_seed = rng_tree.child("predictors").seed
            loss_kwargs = {}
            step_kwargs = {"max_step": max(4 * config.num_workers, 8)}
            if p.loss_variant == "lstm":
                loss_kwargs = dict(
                    hidden_size=p.loss_hidden, window=p.loss_window,
                    lr=p.lr, momentum=p.momentum, train_every=p.train_every, seed=pred_seed,
                )
            elif p.loss_variant == "linear":
                loss_kwargs = dict(window=p.loss_window)
            if p.step_variant == "lstm":
                step_kwargs.update(
                    hidden_size=p.step_hidden, window=p.step_window,
                    lr=p.lr, momentum=p.momentum, train_every=p.train_every, seed=pred_seed,
                )
            loss_predictor = make_loss_predictor(p.loss_variant, **loss_kwargs)
            step_predictor = make_step_predictor(p.step_variant, **step_kwargs)

        rule = make_update_rule(
            config.algorithm,
            num_workers=config.num_workers,
            momentum=config.momentum,
            dc_lambda=config.dc_lambda,
            dc_adaptive=config.dc_adaptive,
        )
        schedule = MultiStepLR(config.base_lr, config.lr_milestones, config.lr_gamma)
        server = ParameterServer(
            init_params,
            rule,
            schedule,
            iters_per_epoch,
            bn_strategy=bn_strategy,
            loss_predictor=loss_predictor,
            step_predictor=step_predictor,
            lc_lambda=config.lc_lambda,
            compensation=config.compensation,
            timer=timer,
        )
        model_bytes = init_params.size * 4  # float32 wire format
        state_bytes = _state_bytes_for(config, feature_sizes)

        # cluster --------------------------------------------------------------------------
        compute, network = _build_cluster_models(config, rng_tree)

        return cls(
            config=config,
            rng_tree=rng_tree,
            timer=timer,
            train_set=train_set,
            test_set=test_set,
            num_classes=num_classes,
            eval_model=eval_model,
            workers=workers,
            server=server,
            compute=compute,
            network=network,
            iters_per_epoch=iters_per_epoch,
            total_updates=total_updates,
            model_bytes=model_bytes,
            state_bytes=state_bytes,
        )


@dataclass
class WorkerRuntime:
    """The slice of an :class:`ExperimentPlan` one proc-backend child needs.

    A child process re-derives everything below from ``(config, worker_id)``
    alone: the dataset, its own identically-initialized replica + loader,
    the virtual timing models it uses for delay emulation, and the derived
    wire-size/protocol facts.  No weights are shipped at startup — the seed
    is the contract (see the module docstring's process-backend section).
    """

    config: TrainingConfig
    worker_id: int
    worker: DistributedWorker
    compute: ComputeModel
    network: NetworkModel
    model_bytes: int
    state_bytes: int
    #: whether the algorithm runs the state push -> compensation round trip
    requires_compensation: bool
    #: the child's own ``worker-compute`` sections and trace sink — the
    #: same two names the cycle reads off an :class:`ExperimentPlan`
    timer: Timer = field(default_factory=Timer, compare=False)
    recorder: object = field(default=NULL_RECORDER, compare=False)

    @classmethod
    def from_config(cls, config: TrainingConfig, worker_id: int) -> "WorkerRuntime":
        """Rebuild worker ``worker_id``'s runtime from the config alone."""
        if not 0 <= worker_id < config.num_workers:
            raise ValueError(
                f"worker_id {worker_id} out of range for num_workers={config.num_workers}"
            )
        rng_tree = RngTree(config.seed)
        train_set, _, num_classes = build_dataset(config)
        worker = build_worker(config, train_set, num_classes, worker_id, rng_tree)
        compute, network = _build_cluster_models(config, rng_tree)
        init_params = get_flat_params(worker.model)
        feature_sizes = [layer.num_features for layer in bn_layers(worker.model)]
        rule = make_update_rule(
            config.algorithm,
            num_workers=config.num_workers,
            momentum=config.momentum,
            dc_lambda=config.dc_lambda,
            dc_adaptive=config.dc_adaptive,
        )
        return cls(
            config=config,
            worker_id=worker_id,
            worker=worker,
            compute=compute,
            network=network,
            model_bytes=init_params.size * 4,
            state_bytes=_state_bytes_for(config, feature_sizes),
            requires_compensation=rule.requires_compensation,
        )


class ExperimentSession:
    """Run state shared by every backend: trace, curve, evaluation, result.

    The session never reads a clock itself; backends pass their "now"
    (virtual or real seconds) into :meth:`maybe_evaluate` and
    :meth:`build_result`, which is what lets one evaluation/result path
    serve both execution models.
    """

    def __init__(self, plan: ExperimentPlan) -> None:
        self.plan = plan
        self.trace = ClusterTrace()
        self.curve: List[CurvePoint] = []
        self._last_eval_epoch = -1
        self._eval_indices = self._pick_eval_indices()
        #: backend override for installing weights into ``eval_model``.
        #: Server-based backends leave this None (the server's params are
        #: the model); the gossip runtime sets it to average the worker
        #: replicas, since decentralized runs have no single authoritative
        #: parameter vector.
        self.eval_sync: Optional[Callable[[], None]] = None

    # ------------------------------------------------------------------ #
    def _pick_eval_indices(self) -> Tuple[np.ndarray, np.ndarray]:
        """Fixed train/test evaluation subsets (same across all epochs)."""
        plan = self.plan
        rng = plan.rng_tree.child("eval").generator("subsets")
        n_train = min(plan.config.eval_train_samples, len(plan.train_set))
        n_test = min(plan.config.eval_test_samples, len(plan.test_set))
        train_idx = rng.permutation(len(plan.train_set))[:n_train]
        test_idx = rng.permutation(len(plan.test_set))[:n_test]
        return np.sort(train_idx), np.sort(test_idx)

    def sync_eval_model(self) -> None:
        """Install the server's weights + the appropriate BN stats for eval."""
        plan = self.plan
        if self.eval_sync is not None:
            self.eval_sync()
            return
        set_flat_params(plan.eval_model, plan.server.params)
        if plan.server.bn_strategy is not None:
            load_bn_running_stats(plan.eval_model, plan.server.bn_strategy.current())
        elif plan.workers:  # local mode: sequential SGD's own running
            # statistics.  The lock keeps the snapshot consistent when
            # worker 0 is a live thread mid-forward (thread backend,
            # bn_mode="local", M > 1).  Worker-replica-free plans (proc)
            # only reach local mode when the model has no BN layers — the
            # proc backend rejects the combination otherwise — so there is
            # nothing to borrow.
            with plan.workers[0].model_lock:
                source_layers = bn_layers(plan.workers[0].model)
                stats = [(l.running_mean.copy(), l.running_var.copy()) for l in source_layers]
            load_bn_running_stats(plan.eval_model, stats)

    def record_update(self, now: float, worker: int, staleness: int, loss: float) -> None:
        """The one place an applied update enters a run, on every backend.

        Called only from :func:`repro.runtime.cycle.dispatch`.  The update
        log feeds ``RunResult.staleness`` and ``finishing_order``, and the
        recorder's ``"staleness"`` event feeds the obs histogram; writing
        both here is what keeps the two equal.  ``now`` is the backend's
        clock — virtual seconds under the simulator.  ``loss``, the update's
        training loss, is not logged; it is passed so that a spy on this
        call (the reuse and gossip oracle tests) sees the whole update.
        """
        self.trace.record(worker, staleness)
        recorder = self.plan.recorder
        if recorder.enabled:
            recorder.emit(
                now, "staleness", worker,
                value=float(int(staleness)), version=self.plan.server.version,
            )

    def evaluate(self, now: float) -> CurvePoint:
        """One evaluation snapshot stamped with the backend's clock."""
        plan = self.plan
        self.sync_eval_model()
        train_idx, test_idx = self._eval_indices
        train_err, train_loss = evaluate_model(
            plan.eval_model, plan.train_set.inputs[train_idx], plan.train_set.targets[train_idx]
        )
        test_err, test_loss = evaluate_model(
            plan.eval_model, plan.test_set.inputs[test_idx], plan.test_set.targets[test_idx]
        )
        return CurvePoint(
            epoch=plan.server.epoch,
            time=now,
            train_error=train_err,
            train_loss=train_loss,
            test_error=test_err,
            test_loss=test_loss,
        )

    def maybe_evaluate(self, now: float) -> None:
        """Evaluate at epoch boundaries / run end, honouring the cadence."""
        plan = self.plan
        epoch = plan.server.epoch
        boundary = (
            plan.server.batches_processed % plan.iters_per_epoch == 0
            and plan.server.batches_processed > 0
        )
        finished = plan.server.batches_processed >= plan.total_updates
        if not boundary and not finished:
            return
        completed_epoch = epoch - 1 if boundary else epoch
        if completed_epoch <= self._last_eval_epoch and not finished:
            return
        if (
            not finished
            and plan.config.eval_every_epochs > 1
            and (completed_epoch + 1) % plan.config.eval_every_epochs != 0
        ):
            self._last_eval_epoch = completed_epoch
            return
        point = self.evaluate(now)
        self._record_point(point)
        self._last_eval_epoch = completed_epoch
        logger.info(
            "algo=%s M=%d epoch=%d t=%.1fs train_err=%.4f test_err=%.4f",
            plan.config.algorithm,
            plan.config.num_workers,
            point.epoch,
            point.time,
            point.train_error,
            point.test_error,
        )

    def record_point(self, now: float) -> CurvePoint:
        """Evaluate immediately and append the point to the curve.

        Backends use this for out-of-band snapshots — e.g. the proc
        backend's final local-BN evaluation after worker 0's running
        statistics arrive — without going through the epoch-cadence
        logic of :meth:`maybe_evaluate`.
        """
        point = self.evaluate(now)
        self._record_point(point)
        return point

    def ensure_final_eval(self, now: float) -> None:
        """Guarantee at least one curve point (degenerate short runs)."""
        if not self.curve:
            self.record_point(now)

    def _record_point(self, point: CurvePoint) -> None:
        """Append to the curve and notify the plan's observer, if any."""
        self.curve.append(point)
        if self.plan.on_curve_point is not None:
            self.plan.on_curve_point(point)

    # ------------------------------------------------------------------ #
    def build_result(
        self,
        clock: float,
        backend: str = "sim",
        wall_time: float = 0.0,
        comm: Optional[Dict[str, float]] = None,
        codec: str = "",
    ) -> RunResult:
        """Assemble the RunResult from the plan + trace + curve.

        ``clock`` is the backend's final "now" (virtual seconds for the
        simulator, real elapsed seconds for the thread runtime);
        ``wall_time`` is always real elapsed seconds.  ``comm`` is the
        backend's unified :class:`~repro.runtime.transport.CommStats`
        accounting, when it keeps one, and ``codec`` the gradient codec
        its transport honored ("" when it moved no bytes).
        """
        plan = self.plan
        # Tables 2-3 report cost *per training iteration*: total section time
        # divided by the number of gradients processed (one iteration = one
        # batch = one server update attempt).
        updates = max(plan.server.batches_processed, 1)
        timers = {
            "loss_pred_ms": plan.timer.total("loss-pred") * 1e3 / updates,
            "step_pred_ms": plan.timer.total("step-pred") * 1e3 / updates,
            "worker_compute_ms": plan.timer.total("worker-compute") * 1e3 / updates,
        }
        obs: Dict = {}
        recorder = plan.recorder
        if getattr(recorder, "enabled", False):
            # fold the wall-clock Timer totals into the trace meta so
            # per-phase cost lives in one place (spans + timer sections)
            recorder.set_timer_totals(plan.timer.totals())
            from repro.obs.hub import MetricsHub

            hub = MetricsHub()
            records = recorder.records()  # decode once, aggregate twice
            hub.ingest(records)
            obs = {
                "enabled": True,
                "records": len(recorder),
                "dropped": recorder.dropped,
                "spans_ms": recorder.phase_totals_ms(records),
                "hub": hub.snapshot(),
            }
        return RunResult(
            algorithm=plan.config.algorithm,
            num_workers=plan.config.num_workers,
            bn_mode=plan.config.bn_mode,
            curve=list(self.curve),
            staleness=self.trace.staleness_stats(),
            loss_prediction_pairs=list(plan.server.loss_prediction_pairs),
            step_prediction_pairs=list(plan.server.step_prediction_pairs),
            finishing_order=self.trace.finishing_order(),
            timers=timers,
            total_updates=plan.server.batches_processed,
            total_virtual_time=clock,
            seed=plan.config.seed,
            backend=backend,
            wall_time=wall_time,
            topology=plan.config.topology if plan.config.algorithm == "ad-psgd" else "",
            codec=codec,
            comm=dict(comm) if comm else {},
            obs=obs,
        )
