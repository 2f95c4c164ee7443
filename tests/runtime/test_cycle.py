"""The worker cycle and the server dispatch exist once: structural guards.

An AST walk over ``src/repro`` fails as soon as a second copy of
Algorithm 1's cycle or Algorithm 2's dispatch appears beside
:mod:`repro.runtime.cycle` — a second construction site for a protocol
message, or a second caller of a server handler or of the worker's
forward/backward.
"""

import ast
import functools
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent


@functools.lru_cache(maxsize=None)
def _call_index():
    """``{called name: {(file, enclosing function)}}`` over ``src/repro``."""
    index = {}
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        tree = ast.parse(path.read_text())
        enclosing = {}
        for node in ast.walk(tree):  # outermost first, so the innermost def wins
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for child in ast.walk(node):
                    enclosing[child] = node.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                index.setdefault(called, set()).add((rel, enclosing.get(node, "<module>")))
    return index


def _callers(name, exclude=()):
    """``{(file, enclosing function)}`` of every call to ``name`` / ``x.name``.

    ``exclude`` lists files and directories (relative to ``src/repro``)
    that are not searched.
    """
    return {
        (rel, function)
        for rel, function in _call_index().get(name, ())
        if not any(rel == skip or rel.startswith(skip + "/") for skip in exclude)
    }


@pytest.mark.parametrize("message", ["PullRequest", "StatePush", "GradientPush", "CombinedPush"])
def test_each_protocol_message_is_constructed_at_one_site(message):
    # wire.py is the decoder: it rebuilds messages that arrived as bytes
    assert _callers(message, exclude=["runtime/wire.py"]) == {
        ("runtime/cycle.py", "worker_cycle")
    }


@pytest.mark.parametrize(
    "handler", ["handle_pull", "handle_state", "handle_gradient", "handle_combined"]
)
def test_each_server_handler_is_called_from_one_function(handler):
    assert _callers(handler, exclude=["core/server.py"]) == {("runtime/cycle.py", "dispatch")}


def test_every_server_based_backend_dispatches_through_the_one_server_loop():
    # sim, thread and proc serve through server_actor_loop; the gossip sim's
    # rounds log their reports without one (fleet's dispatch() is its own)
    assert _callers("dispatch", exclude=["fleet"]) == {
        ("runtime/server_actor.py", "server_actor_loop"),
        ("runtime/gossip_backend.py", "run_rounds"),
    }


def test_every_applied_update_enters_the_run_through_dispatch():
    assert _callers("record_update") == {("runtime/cycle.py", "dispatch")}
    # ``ClusterTrace.record`` is the only ``x.record(...)`` in src/repro
    assert _callers("record") == {("runtime/session.py", "record_update")}


@pytest.mark.parametrize("step", ["forward", "backward"])
def test_worker_forward_and_backward_are_called_from_one_function(step):
    # nn/, tensor/ and the predictors call Module.forward / Tensor.backward,
    # which share the method names; nothing there knows a DistributedWorker
    # (gossip's fused ``forward_backward`` is a different name and stays)
    not_worker_code = ["core/worker.py", "nn", "tensor", "core/predictors"]
    assert _callers(step, exclude=not_worker_code) == {("runtime/cycle.py", "worker_cycle")}


@pytest.mark.parametrize("message", ["GossipReport", "WeightExchange"])
def test_each_gossip_message_is_constructed_in_the_gossip_cycle(message):
    # the local step, its report, the weight snapshot and the average are
    # written once; the sim's rounds and worker threads only answer EXCHANGE
    assert _callers(message, exclude=["runtime/wire.py"]) == {
        ("runtime/cycle.py", "gossip_cycle")
    }


def test_the_gossip_local_step_is_taken_in_one_function():
    assert _callers("forward_backward", exclude=["core/worker.py"]) == {
        ("runtime/cycle.py", "gossip_cycle")
    }


# ---------------------------------------------------------------------- #
# the contract between the cycle, the dispatch and a driver
# ---------------------------------------------------------------------- #
def _drive_one_cycle(algorithm):
    """A minimal driver: answer calls through the real dispatch, instantly."""
    from repro.core import TrainingConfig
    from repro.runtime import ExperimentPlan, ExperimentSession
    from repro.runtime.cycle import CALL, COMPUTE, dispatch, worker_cycle

    plan = ExperimentPlan.from_config(TrainingConfig.tiny(algorithm=algorithm, seed=1))
    session = ExperimentSession(plan)
    cycle = worker_cycle(plan.workers[0], plan, clock=lambda: 0.0)
    seen, answer = [], None
    while True:
        try:
            effect = cycle.send(answer)
        except StopIteration:
            return plan, session, seen
        if effect[0] is COMPUTE:
            seen.append(COMPUTE)
            answer = 7.0  # the driver decides what the work cost
            continue
        kind, message, nbytes = effect
        assert nbytes > 0
        seen.append((kind, type(message).__name__))
        replies = dispatch(session, message, now=0.0)
        answer = None
        if kind is CALL:
            ((worker, answer, reply_nbytes),) = replies
            assert worker == 0 and reply_nbytes > 0


def test_uncompensated_cycle_posts_state_and_gradient_fused():
    plan, session, seen = _drive_one_cycle("asgd")
    assert seen == [("call", "PullRequest"), "compute", "compute", ("post", "CombinedPush")]
    assert plan.workers[0].last_t_comp == 7.0
    assert plan.server.batches_processed == 1
    assert (session.trace.order, session.trace.staleness) == ([0], [0])


def test_compensated_cycle_waits_for_the_reply_before_backward():
    plan, session, seen = _drive_one_cycle("lc-asgd")
    assert seen == [
        ("call", "PullRequest"), "compute", ("call", "StatePush"), "compute",
        ("post", "GradientPush"),
    ]
    assert plan.workers[0].last_t_comp == 7.0
    assert (session.trace.order, session.trace.staleness) == ([0], [0])


@pytest.mark.parametrize(
    "algorithm, backend, options",
    [
        ("asgd", "sim", {}),
        ("asgd", "thread", {"timeout": 120.0}),
        ("asgd", "thread", {"deterministic": True, "timeout": 120.0}),
        ("asgd", "proc", {"time_scale": 0.0, "timeout": 120.0}),
        ("ad-psgd", "sim", {}),
        ("ad-psgd", "thread", {"timeout": 120.0}),
    ],
    ids=["sim", "thread", "thread-deterministic", "proc", "gossip-sim", "gossip-thread"],
)
def test_every_applied_update_is_logged_once(algorithm, backend, options):
    from repro.core import TrainingConfig
    from repro.runtime import run_experiment

    cfg = TrainingConfig.tiny(algorithm=algorithm, num_workers=2, seed=3)
    result = run_experiment(cfg, backend=backend, **options)
    assert result.total_updates == len(result.finishing_order) > 0


def test_dispatch_logs_a_gossip_report_as_an_applied_update():
    from repro.core import TrainingConfig
    from repro.runtime import ExperimentPlan, ExperimentSession
    from repro.runtime.cycle import dispatch
    from repro.runtime.messages import GossipReport

    plan = ExperimentPlan.from_config(TrainingConfig.tiny(algorithm="ad-psgd", seed=1))
    session = ExperimentSession(plan)
    server = plan.server
    before = (server.batches_processed, server.version)
    assert dispatch(session, GossipReport(1, loss=0.5, staleness=3), now=0.25) == ()
    assert (server.batches_processed, server.version) == (before[0] + 1, before[1] + 1)
    assert (session.trace.order, session.trace.staleness) == ([1], [3])


def test_dispatch_rejects_a_message_the_server_does_not_handle():
    from repro.core import TrainingConfig
    from repro.runtime import ExperimentPlan, ExperimentSession
    from repro.runtime.cycle import dispatch
    from repro.runtime.messages import PullReply

    session = ExperimentSession(ExperimentPlan.from_config(TrainingConfig.tiny(seed=1)))
    with pytest.raises(TypeError, match="PullReply"):
        dispatch(session, PullReply(0), now=0.0)
