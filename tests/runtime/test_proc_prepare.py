"""A proc run claims and configures its children before the parent plans.

``plan_and_run`` enters ``ProcBackend.prepared`` before it builds the plan,
so each child rebuilds its replica while the parent builds its own.  These
tests pin that order and what the early step must never leave behind: a
refused cell claims nothing, a plan build that raises reaps the children it
configured, and concurrent runs still never share a child.  None of them
measures time.
"""

import sys
import threading
import time

import pytest

from repro.core import TrainingConfig
from repro.experiments.executors import execute_spec
from repro.experiments.spec import ExperimentSpec
from repro.runtime import ExperimentPlan, ProcBackend, proc_backend, run_experiment
from repro.runtime.messages import Ready, RunConfig
from repro.runtime.proc_backend import idle_pids
from repro.runtime.proc_worker import EXIT_INIT_FAILURE
from repro.runtime.wire import FrameConnection
from tests.runtime.test_proc_pool import TIMEOUT, empty_pool, spawned, tiny  # noqa: F401


def spy_order(monkeypatch):
    """Log, in order, each RunConfig the parent sends and each plan built."""
    events = []
    send = FrameConnection.send_message
    build = ExperimentPlan.from_config.__func__

    def send_spy(self, message, *args, **kwargs):
        if isinstance(message, RunConfig):
            events.append(("RunConfig", message.worker))
        return send(self, message, *args, **kwargs)

    def build_spy(cls, *args, **kwargs):
        plan = build(cls, *args, **kwargs)
        events.append(("plan",))
        return plan

    monkeypatch.setattr(FrameConnection, "send_message", send_spy)
    monkeypatch.setattr(ExperimentPlan, "from_config", classmethod(build_spy))
    return events


def test_run_experiment_configures_every_child_before_the_plan_is_built(monkeypatch):
    events = spy_order(monkeypatch)
    result = run_experiment(tiny(), backend="proc", timeout=TIMEOUT)
    assert result.total_updates == 8
    assert events == [("RunConfig", 0), ("RunConfig", 1), ("plan",)]


def test_execute_spec_configures_every_child_before_the_plan_is_built(monkeypatch):
    events = spy_order(monkeypatch)
    result = execute_spec(ExperimentSpec(tiny(), "proc", {"timeout": TIMEOUT}))
    assert result.total_updates == 8
    assert events == [("RunConfig", 0), ("RunConfig", 1), ("plan",)]


def test_adpsgd_is_refused_before_any_child_is_claimed(empty_pool, spawned):
    run_experiment(tiny(), backend="proc", timeout=TIMEOUT)
    idle = idle_pids()
    assert len(spawned) == len(idle) == 2
    cfg = TrainingConfig.tiny(algorithm="ad-psgd", num_workers=2, epochs=1, seed=0)
    with pytest.raises(ValueError, match="parameter-server runtime"):
        run_experiment(cfg, backend="proc", timeout=TIMEOUT)
    assert len(spawned) == 2  # nothing spawned...
    assert idle_pids() == idle  # ...and no idle child claimed, configured or reaped


def test_a_plan_build_that_raises_reaps_the_configured_children(empty_pool, spawned, monkeypatch):
    run_experiment(tiny(), backend="proc", timeout=TIMEOUT)
    configured = list(spawned)

    def broken(*args, **kwargs):
        raise RuntimeError("plan build failed")

    with monkeypatch.context() as patch:
        patch.setattr(ExperimentPlan, "from_config", broken)
        with pytest.raises(RuntimeError, match="plan build failed"):
            run_experiment(tiny(seed=1), backend="proc", timeout=TIMEOUT)
    assert idle_pids() == []  # not checked in...
    assert all(p.poll() is not None for p in configured)  # ...but reaped
    result = run_experiment(tiny(seed=2), backend="proc", timeout=TIMEOUT)
    assert result.total_updates == 8
    assert len(spawned) == 4
    assert idle_pids() == sorted(p.pid for p in spawned[2:])


def test_a_configured_child_sent_another_runconfig_exits(empty_pool):
    """Why a configured child that never started is reaped, never pooled:
    it expects Start, and any other frame ends it."""
    cfg = tiny(num_workers=1)
    backend = ProcBackend(timeout=TIMEOUT)
    (child,) = backend._handshake(1, cfg, False, time.monotonic() + TIMEOUT)
    try:
        ready, _ = child.conn.recv()
        assert isinstance(ready, Ready)
        child.conn.send_message(RunConfig(0, cfg.to_dict()))
        assert child.proc.wait(timeout=TIMEOUT) == EXIT_INIT_FAILURE
    finally:
        proc_backend._close_and_reap([child], force=True)


def test_concurrent_runs_through_run_experiment_never_share_a_child(empty_pool, monkeypatch):
    """The early claim holds a child from the handshake, before the plan is
    built, until it is checked back in; no other run may hold it then."""
    guard = threading.Lock()
    in_use = set()
    shared = []
    handshake = ProcBackend._handshake
    checkin = proc_backend._IdlePool.checkin

    def claim(self, *args, **kwargs):
        children = handshake(self, *args, **kwargs)
        pids = {child.proc.pid for child in children}
        with guard:
            shared.extend(pids & in_use)
            in_use.update(pids)
        return children

    def release(self, children):
        with guard:
            in_use.difference_update(child.proc.pid for child in children)
        checkin(self, children)

    monkeypatch.setattr(ProcBackend, "_handshake", claim)
    monkeypatch.setattr(proc_backend._IdlePool, "checkin", release)
    errors = []

    def cells(offset):
        try:
            for seed in range(3):
                run_experiment(tiny(seed=offset + seed), backend="proc", timeout=TIMEOUT)
        except BaseException as exc:  # pragma: no cover - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        threads = [threading.Thread(target=cells, args=(10 * i,)) for i in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=TIMEOUT)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert shared == []
    assert len(idle_pids()) <= 6
