"""Execution backends: one ExperimentPlan in, one RunResult out.

The :class:`ExecutionBackend` protocol is deliberately tiny — ``run(plan)``
— so the *same* servers, workers, update rules and predictors execute under
completely different schedulers:

* ``sim`` — the deterministic virtual-time event loop
  (:class:`~repro.core.trainer.DistributedTrainer`); staleness comes from
  simulated timing, runs reproduce bit-for-bit.  Its server runs the same
  :func:`~repro.runtime.server_actor.server_actor_loop` as thread and
  proc, over an inbox that is the event queue.
* ``thread`` — the real concurrent runtime
  (:class:`~repro.runtime.thread_backend.ThreadBackend`); staleness comes
  from genuine thread interleaving and the clock is the wall clock.
* ``proc`` — real OS-process workers over sockets
  (:class:`~repro.runtime.proc_backend.ProcBackend`); no shared GIL, so
  compute overlaps genuinely and communication crosses real kernel queues.
* ``gossip`` — serverless ``ad-psgd``
  (:class:`~repro.runtime.gossip_backend.GossipBackend`), which only picks
  the sim's gossip rounds or the thread backend; ``sim`` and ``thread``
  hand ``ad-psgd`` plans to those same two drivers.

Backends register by name so callers (CLI, benches, tests) select one with
a string::

    from repro.runtime import run_experiment
    result = run_experiment(config, backend="thread")
"""

from __future__ import annotations

import contextlib
from typing import Callable, Tuple

from repro.core.config import TrainingConfig
from repro.core.metrics import RunResult
from repro.runtime.gossip_backend import GossipBackend, run_rounds
from repro.runtime.proc_backend import ProcBackend
from repro.runtime.session import ExperimentPlan
from repro.runtime.thread_backend import ThreadBackend
from repro.utils.registry import Registry


class ExecutionBackend:
    """Protocol every backend implements: execute a plan, return a result."""

    #: registry key; subclasses override
    name = "abstract"

    #: False for backends whose workers rebuild their replicas in another
    #: process (proc): plan builders then skip the M in-process replicas
    needs_worker_replicas = True

    #: optional ``prepared(config, obs)`` context manager yielding the
    #: ``run(plan)`` to call: setup that needs no plan (proc's children)
    #: starts there, before :func:`plan_and_run` builds the plan
    prepared = None

    def run(self, plan: ExperimentPlan) -> RunResult:
        """Execute ``plan`` to completion (mutating it) and build the result."""
        raise NotImplementedError


class SimBackend(ExecutionBackend):
    """The virtual-time event-loop executor, wrapped as a backend.

    Delegates to :class:`~repro.core.trainer.DistributedTrainer`, the sim
    driver of the worker cycle.  Imported lazily to keep ``repro.runtime``
    importable without dragging in the trainer (and to avoid a cycle: the
    trainer itself builds plans from this package).
    """

    name = "sim"

    def run(self, plan: ExperimentPlan) -> RunResult:
        if plan.config.algorithm == "ad-psgd":
            # decentralized runs have no server for the event loop to drive;
            # the gossip sim's rounds are the sim equivalent, so one sweep
            # grid can span server-based and serverless cells
            return run_rounds(plan)
        from repro.core.trainer import DistributedTrainer

        return DistributedTrainer(plan.config, plan=plan).run()


BACKENDS: Registry = Registry("backend")


def register_backend(
    name: str, factory: Callable[..., ExecutionBackend], override: bool = False
) -> None:
    """Register a backend factory under ``name``.

    Duplicate names raise unless ``override=True`` — silently replacing
    ``"sim"`` would change what every stored result key means.
    """
    BACKENDS.register(name, factory, override=override)


def available_backends() -> Tuple[str, ...]:
    """Registered backend names, sorted."""
    return BACKENDS.names()


def get_backend(name: str, **options) -> ExecutionBackend:
    """Instantiate the backend registered under ``name``.

    ``options`` are forwarded to the factory (e.g. ``deterministic=True``
    for the thread backend).
    """
    return BACKENDS.get(name)(**options)


def plan_and_run(
    executor: ExecutionBackend,
    config: TrainingConfig,
    recorder=None,
    on_curve_point=None,
) -> RunResult:
    """Build ``config``'s plan and execute it on ``executor``.

    A backend with a ``prepared`` hook starts its plan-free setup first
    (proc children rebuild their replicas while this process plans); the
    rest run the plan as it is.  ``recorder`` (default: the no-op one) is
    decided before either, because the proc children learn ``obs`` first.
    """
    prepared = getattr(executor, "prepared", None)
    obs = bool(getattr(recorder, "enabled", False))
    with prepared(config, obs) if prepared else contextlib.nullcontext(executor.run) as run:
        plan = ExperimentPlan.from_config(
            config, build_workers=getattr(executor, "needs_worker_replicas", True)
        )
        if recorder is not None:
            plan.recorder = recorder
        plan.on_curve_point = on_curve_point
        return run(plan)


def run_experiment(
    config: TrainingConfig,
    backend: str = "sim",
    obs: bool = False,
    trace_path: str = "",
    **backend_options,
) -> RunResult:
    """Build a fresh plan from ``config`` and execute it on ``backend``.

    ``obs=True`` attaches a live :class:`~repro.obs.recorder.TraceRecorder`
    to the plan (the default is the no-op recorder, so un-instrumented
    runs pay nothing); ``trace_path`` additionally dumps the finished
    trace as JSONL.  Observability is execution wiring, not run identity —
    it never changes results or spec keys.
    """
    executor = get_backend(backend, **backend_options)
    recorder = None
    if obs or trace_path:
        from repro.obs.recorder import TraceRecorder

        recorder = TraceRecorder(
            run_id=f"{config.algorithm}-M{config.num_workers}-seed{config.seed}-{backend}"
        )
    result = plan_and_run(executor, config, recorder)
    if trace_path:
        recorder.dump_jsonl(trace_path)
    return result


register_backend("sim", SimBackend)
register_backend("thread", ThreadBackend)
register_backend("proc", ProcBackend)
register_backend("gossip", GossipBackend)
