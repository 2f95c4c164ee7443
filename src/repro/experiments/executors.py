"""Campaign executors: how a batch of specs actually gets run.

Strategies behind one protocol (plus the multi-host
:class:`~repro.fleet.scheduler.FleetExecutor`, which lives in
:mod:`repro.fleet` and implements the same ``run(jobs, total, events)``
generator contract):

* :class:`SerialExecutor` — in-process, one spec at a time.  Fully
  deterministic ordering; ``on_curve_point`` events fire synchronously
  (the run shares the observer's process).
* :class:`MultiprocessExecutor` — a ``multiprocessing`` pool.  The sim
  backend is single-threaded pure NumPy, so a compare-style grid
  parallelizes embarrassingly across processes: a genuine wall-clock
  speedup (see ``benchmarks/bench_campaign_executors.py``).  Restricted to
  the ``sim`` backend — the thread and proc backends already saturate
  cores with their own workers, and forking a threaded runtime is unsound;
  their grids stay on :class:`SerialExecutor`.

Executors receive ``(index, spec)`` jobs (indices are campaign-global so
progress lines count cached runs too) and *yield* ``(index, spec, result)``
triples as each run completes — streaming is load-bearing: the Campaign
persists every triple the moment it arrives, which is what makes a killed
campaign resumable from its completed prefix.  Persistence stays in the
Campaign, so a pool worker never touches the store.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from collections import deque
from typing import Dict, Iterator, Sequence, Tuple

from repro.core.metrics import RunResult
from repro.experiments.events import CampaignEvents
from repro.experiments.spec import ExperimentSpec
from repro.runtime.backends import get_backend, plan_and_run

#: an executor job: (campaign-global index, spec)
Job = Tuple[int, ExperimentSpec]


def execute_spec(
    spec: ExperimentSpec, on_curve_point=None, obs: bool = False, recorder=None
) -> RunResult:
    """Run one spec to completion through :func:`plan_and_run`.

    Module-level so multiprocessing can pickle it by reference.
    ``on_curve_point`` (in-process callers only) receives each CurvePoint
    as it is recorded.  ``obs=True`` attaches a live trace recorder, so
    ``RunResult.obs`` carries the run's metrics-hub snapshot — execution
    wiring only, never part of the spec (store keys stay obs-agnostic).
    Callers that need the raw trace afterwards (the fleet agent ships it
    over its ``trace`` frame) pass their own ``recorder`` instead.
    """
    if recorder is None and obs:
        from repro.obs.recorder import TraceRecorder

        recorder = TraceRecorder(run_id=spec.label())
    return plan_and_run(
        get_backend(spec.backend, **spec.backend_options), spec.config, recorder, on_curve_point
    )


#: pool-worker state installed by :func:`_pool_init` (fork or spawn): the
#: parent's curve-point queue and the campaign's obs flag.  Module globals
#: because pool workers can only receive mp.Queues by inheritance at
#: Pool() creation, not per-task.
_POOL_CURVE_QUEUE = None
_POOL_OBS = False


def _pool_init(queue, obs: bool) -> None:
    """Pool initializer: arm curve-point streaming in this worker."""
    global _POOL_CURVE_QUEUE, _POOL_OBS
    _POOL_CURVE_QUEUE = queue
    _POOL_OBS = bool(obs)


def _execute_job(job: Job) -> Tuple[int, RunResult]:
    """Pool worker wrapper keeping the campaign-global index attached.

    When the pool was armed with a curve queue, every CurvePoint is shipped
    to the parent as ``(index, point)`` the moment it is recorded — the
    parent's poll loop replays them into ``events.on_curve_point``, closing
    the old "pool runs are silent until they finish" gap.
    """
    index, spec = job
    on_curve_point = None
    queue = _POOL_CURVE_QUEUE
    if queue is not None:
        def on_curve_point(point, index=index, queue=queue):
            queue.put((index, point))
    return index, execute_spec(spec, on_curve_point=on_curve_point, obs=_POOL_OBS)


class Executor:
    """Protocol: run jobs, fire events, yield (index, spec, result) as done."""

    name = "abstract"

    def run(
        self, jobs: Sequence[Job], total: int, events: CampaignEvents
    ) -> Iterator[Tuple[int, ExperimentSpec, RunResult]]:
        raise NotImplementedError


class SerialExecutor(Executor):
    """One spec at a time, in-process, with live curve-point streaming."""

    name = "serial"

    def __init__(self, obs: bool = False) -> None:
        self.obs = bool(obs)

    def run(
        self, jobs: Sequence[Job], total: int, events: CampaignEvents
    ) -> Iterator[Tuple[int, ExperimentSpec, RunResult]]:
        for index, spec in jobs:
            events.on_run_start(spec, index, total)
            result = execute_spec(
                spec,
                on_curve_point=lambda point, spec=spec: events.on_curve_point(spec, point),
                obs=self.obs,
            )
            yield index, spec, result


class MultiprocessExecutor(Executor):
    """A process pool over sim-backend specs.

    ``processes`` defaults to ``os.cpu_count()`` capped at the job count.
    ``start_method`` defaults to ``fork`` where the platform offers it
    (cheap on Linux) and ``spawn`` elsewhere; workers re-import ``repro``,
    so the package must be importable in children (it is whenever the
    parent could import it).
    """

    name = "pool"

    def __init__(self, processes: int = 0, start_method: str = "", obs: bool = False) -> None:
        self.processes = processes
        self.start_method = start_method
        self.obs = bool(obs)

    def _context(self):
        method = self.start_method
        if not method:
            method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        return mp.get_context(method)

    def run(
        self, jobs: Sequence[Job], total: int, events: CampaignEvents
    ) -> Iterator[Tuple[int, ExperimentSpec, RunResult]]:
        for _, spec in jobs:
            if spec.backend != "sim":
                raise ValueError(
                    f"MultiprocessExecutor only runs the 'sim' backend; "
                    f"{spec.label()} requests {spec.backend!r} "
                    f"(use SerialExecutor for thread/proc-backend grids)"
                )
        return self._stream(list(jobs), total, events)

    def _stream(
        self, jobs: Sequence[Job], total: int, events: CampaignEvents
    ) -> Iterator[Tuple[int, ExperimentSpec, RunResult]]:
        if not jobs:
            return
        procs = self.processes or (mp.cpu_count() or 1)
        procs = max(1, min(procs, len(jobs)))
        ctx = self._context()
        specs_by_index = {index: spec for index, spec in jobs}
        curve_queue = ctx.Queue()
        # Jobs are submitted one per free pool slot and on_run_start fires
        # at submission, so a start line means the run is actually beginning
        # — not "every cell started at t=0" as the old bulk submit claimed.
        # Completed runs are yielded (and persisted by the Campaign) the
        # moment they land, never behind a slower earlier job.  Workers
        # stream CurvePoints back over curve_queue (inherited at Pool
        # creation); the poll loop replays them into the observer live.
        with ctx.Pool(
            processes=procs, initializer=_pool_init, initargs=(curve_queue, self.obs)
        ) as pool:
            pending = deque(jobs)
            inflight: Dict[int, Tuple[ExperimentSpec, "mp.pool.AsyncResult"]] = {}
            while pending or inflight:
                while pending and len(inflight) < procs:
                    index, spec = pending.popleft()
                    events.on_run_start(spec, index, total)
                    inflight[index] = (
                        spec,
                        pool.apply_async(_execute_job, ((index, spec),)),
                    )
                self._drain_curve_points(curve_queue, specs_by_index, events)
                done = [i for i, (_, handle) in inflight.items() if handle.ready()]
                if not done:
                    time.sleep(0.01)
                    continue
                for i in sorted(done):
                    spec, handle = inflight.pop(i)
                    index, result = handle.get()  # re-raises a job's failure
                    yield index, spec, result
            self._drain_curve_points(curve_queue, specs_by_index, events)

    @staticmethod
    def _drain_curve_points(queue, specs_by_index, events: CampaignEvents) -> None:
        """Replay every queued (index, CurvePoint) into the observer."""
        while True:
            try:
                index, point = queue.get_nowait()
            except Exception:  # queue.Empty — nothing buffered right now
                return
            spec = specs_by_index.get(index)
            if spec is not None:
                events.on_curve_point(spec, point)


def make_executor(
    jobs: int = 1, agents: str = "", agent_timeout: float = 0.0, obs: bool = False
) -> Executor:
    """The CLI's executor rule: ``--agents`` -> fleet, ``--jobs N`` -> pool.

    ``agents`` is a ``"host:port,host:port"`` roster; when given it wins
    (and combining it with ``--jobs > 1`` is a caller error the CLI
    rejects before getting here).  ``agent_timeout`` overrides the
    scheduler's liveness window — it must exceed the agents' heartbeat
    interval (``repro agent --heartbeat``), so raise both together.
    Imported lazily: the fleet scheduler builds on this module, not the
    other way around.
    """
    if agents:
        from repro.fleet.scheduler import FleetExecutor

        options = {"heartbeat_timeout": agent_timeout} if agent_timeout else {}
        return FleetExecutor(agents=[agents], obs=obs, **options)
    if jobs <= 1:
        return SerialExecutor(obs=obs)
    return MultiprocessExecutor(processes=jobs, obs=obs)
