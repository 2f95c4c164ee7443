"""repro.runtime — pluggable execution backends for the reproduction.

The paper's claims are about wall-clock behavior under genuine asynchrony;
this package provides the execution layer that makes those runnable two
ways from one experiment specification:

* :mod:`repro.runtime.session` — :class:`ExperimentPlan` (backend-agnostic
  wiring of datasets, replicas, server, predictors and timing models) and
  :class:`ExperimentSession` (clock-agnostic trace/curve/eval/result state).
* :mod:`repro.runtime.backends` — the :class:`ExecutionBackend` protocol,
  the name registry, :class:`SimBackend` (virtual-time event loop),
  ``plan_and_run`` (the one plan-then-run path, which lets proc configure
  its children before the plan is built) and :func:`run_experiment`.
* :mod:`repro.runtime.thread_backend` — :class:`ThreadBackend`: N worker
  threads with real wall-clock staleness, the server actor run on the
  calling thread, an optional deterministic round-robin mode, and
  emulated link/compute delays.
* :mod:`repro.runtime.proc_backend` / :mod:`repro.runtime.proc_worker` —
  :class:`ProcBackend`: the same server actor, run on the calling thread,
  but every worker is a real OS process speaking the
  :mod:`repro.runtime.wire` protocol over a loopback socket — genuinely
  independent compute, no shared GIL.
* :mod:`repro.runtime.gossip_backend` — the decentralized AD-PSGD
  runtime.  No server at all: workers average weights pairwise over a
  peer topology.  The sim's synchronous rounds drive the gossip cycle
  there; on threads, :class:`ThreadBackend` drives it and pairs workers
  on the :class:`PairingBoard`, whose atomic matching keeps the averaging
  deadlock-free.  :class:`GossipBackend` picks one of the two.
* :mod:`repro.runtime.messages` / :mod:`repro.runtime.transport` /
  :mod:`repro.runtime.wire` / :mod:`repro.runtime.codecs` — the typed
  envelopes, the in-process delay-injecting message fabric with unified
  :class:`CommStats` byte accounting, the zero-copy socket framing, and
  the pluggable gradient codecs (raw32/fp16/topk) every byte-moving
  backend negotiates via ``TrainingConfig.comm_codec``.
* :mod:`repro.runtime.cycle` — Algorithm 1's worker cycle, AD-PSGD's
  gossip cycle and Algorithm 2's per-message dispatch, each written once;
  sim, thread and proc are drivers over them, and every applied update of
  every backend (gossip reports included) enters the run through the
  dispatch.
* :mod:`repro.runtime.server_actor` — the server actor loop the
  concurrent backends share, each on the thread that called its ``run``
  (inbox draining, evaluation cadence, the done/Shutdown protocol);
  gossip thread mode runs it on its reports.

Quickstart::

    from repro.core import TrainingConfig
    from repro.runtime import run_experiment

    cfg = TrainingConfig.small_cifar(algorithm="lc-asgd", num_workers=8)
    result = run_experiment(cfg, backend="thread")
    print(result.wall_time, result.staleness["mean"])
"""

from repro.runtime.backends import (
    ExecutionBackend,
    SimBackend,
    available_backends,
    get_backend,
    register_backend,
    run_experiment,
)
from repro.runtime.codecs import GradientCodec, available_codecs, make_codec
from repro.runtime.gossip_backend import GossipBackend, PairingBoard
from repro.runtime.proc_backend import ProcBackend, SocketTransport
from repro.runtime.server_actor import RunControl, server_actor_loop
from repro.runtime.session import (
    ExperimentPlan,
    ExperimentSession,
    WorkerRuntime,
    build_dataset,
    build_model,
)
from repro.runtime.thread_backend import RoundRobinTurnstile, ThreadBackend
from repro.runtime.transport import CommStats, InProcTransport, Mailbox

__all__ = [
    "CommStats",
    "GradientCodec",
    "available_codecs",
    "make_codec",
    "ExecutionBackend",
    "SimBackend",
    "ThreadBackend",
    "ProcBackend",
    "GossipBackend",
    "PairingBoard",
    "SocketTransport",
    "RoundRobinTurnstile",
    "RunControl",
    "server_actor_loop",
    "ExperimentPlan",
    "ExperimentSession",
    "WorkerRuntime",
    "InProcTransport",
    "Mailbox",
    "available_backends",
    "get_backend",
    "register_backend",
    "run_experiment",
    "build_dataset",
    "build_model",
]
