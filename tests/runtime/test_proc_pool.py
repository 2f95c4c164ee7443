"""ProcBackend's idle pool: worker children are spawned once and reused.

Each hazard of keeping children between runs gets a test: reuse itself,
the bound, a child that died while idle, failed runs, concurrent runs,
forked and spawned processes, and interpreter exit.
"""

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core import TrainingConfig
from repro.experiments.executors import MultiprocessExecutor
from repro.runtime import ExperimentPlan, ProcBackend, proc_backend
from repro.runtime.proc_backend import idle_pids
from repro.runtime.proc_worker import CRASH_AFTER_ENV, CRASH_WORKER_ENV

TIMEOUT = 120.0
SRC = Path(__file__).resolve().parents[2] / "src"


def tiny(num_workers=2, seed=0, **overrides):
    return TrainingConfig.tiny(
        algorithm="asgd", num_workers=num_workers, epochs=1, seed=seed, **overrides
    )


def run_proc(cfg, **options):
    options.setdefault("timeout", TIMEOUT)
    plan = ExperimentPlan.from_config(cfg, build_workers=False)
    return plan, ProcBackend(**options).run(plan)


@pytest.fixture
def empty_pool():
    """Start (and leave) the process-wide pool empty."""
    proc_backend._close_idle_children()
    yield
    proc_backend._close_idle_children()


@pytest.fixture
def spawned(monkeypatch):
    """Every child process the backend starts while the test runs."""
    procs = []
    popen = subprocess.Popen

    def counting(*args, **kwargs):
        proc = popen(*args, **kwargs)
        procs.append(proc)
        return proc

    monkeypatch.setattr(proc_backend.subprocess, "Popen", counting)
    return procs


def test_second_run_spawns_no_process(empty_pool, spawned):
    run_proc(tiny())
    assert len(spawned) == 2
    first = idle_pids()
    assert first == sorted(p.pid for p in spawned)
    _, result = run_proc(tiny(seed=1, comm_codec="fp16"))  # another config, same children
    assert result.total_updates == 8
    assert len(spawned) == 2
    assert idle_pids() == first


def test_a_changed_environment_gets_new_children(empty_pool, spawned, monkeypatch):
    run_proc(tiny(num_workers=1))
    monkeypatch.setenv("REPRO_TEST_SPAWN_SIGNATURE", "1")
    run_proc(tiny(num_workers=1))
    assert len(spawned) == 2  # not handed the child spawned without the variable...
    assert spawned[0].poll() is not None  # ...which was retired, not kept beside it
    assert idle_pids() == [spawned[1].pid]


def test_idle_children_never_exceed_the_bound(empty_pool, spawned, monkeypatch):
    monkeypatch.setattr(proc_backend, "MAX_IDLE_CHILDREN", 1)
    run_proc(tiny(num_workers=2))
    assert len(idle_pids()) == 1
    run_proc(tiny(num_workers=3))
    assert len(idle_pids()) == 1
    kept = set(idle_pids())
    # every child beyond the bound was closed and reaped at check-in
    assert all(p.poll() is not None for p in spawned if p.pid not in kept)


def test_a_child_killed_while_idle_is_replaced(empty_pool, spawned):
    run_proc(tiny())
    victim, survivor = spawned
    victim.kill()
    victim.wait(timeout=10.0)
    _, result = run_proc(tiny(seed=1))
    assert result.total_updates == 8
    assert len(spawned) == 3  # one replacement, the survivor reused
    assert idle_pids() == sorted([survivor.pid, spawned[2].pid])


def test_a_timed_out_run_leaves_nothing_in_the_pool(empty_pool, spawned):
    run_proc(tiny())
    with pytest.raises(RuntimeError, match="exceeded timeout"):
        run_proc(tiny(max_updates=10**6), timeout=0.5)
    assert len(spawned) == 2  # the run had reused both children...
    assert idle_pids() == []  # ...and reaped them
    assert all(p.poll() is not None for p in spawned)


def test_a_crashed_run_leaves_nothing_in_the_pool(empty_pool, spawned, monkeypatch):
    monkeypatch.setenv(CRASH_WORKER_ENV, "1")
    monkeypatch.setenv(CRASH_AFTER_ENV, "1")
    run_proc(tiny(num_workers=1))  # worker 1 crashes; a lone worker 0 does not
    assert len(idle_pids()) == 1
    with pytest.raises(RuntimeError, match="worker child 1"):
        run_proc(tiny(num_workers=2, max_updates=500))
    assert len(spawned) == 2  # worker 0 was the reused child
    assert idle_pids() == []
    assert all(p.poll() is not None for p in spawned)


def test_concurrent_runs_never_share_a_child(empty_pool, monkeypatch):
    """More threads than cores each run proc cells; a child serves one run
    at a time, from the handshake until it is checked back in."""
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
                run_proc(tiny(seed=offset + seed))
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


@pytest.mark.parametrize("method", ["fork", "spawn"])
def test_a_pool_worker_starts_with_an_empty_pool(method, empty_pool, spawned):
    run_proc(tiny())
    parents_children = idle_pids()
    assert len(parents_children) == 2
    ctx = MultiprocessExecutor(processes=1, start_method=method)._context()
    with ctx.Pool(1) as pool:
        assert pool.apply(idle_pids) == []
    # the forked copy let go of its inherited links without shutting the
    # parent's connections down: the same children serve the next run
    _, result = run_proc(tiny(seed=1))
    assert result.total_updates == 8
    assert len(spawned) == 2
    assert idle_pids() == parents_children


def test_idle_children_end_with_their_interpreter():
    # the script's own exit hook is registered first, so it runs last: by
    # then the children must be reaped, not merely told to go.  A forked
    # pool worker in between must not finalize (and warn about) handles
    # to children that are not its own.
    script = (
        "import atexit, os\n"
        "pids = []\n"
        "def report():\n"
        "    alive = []\n"
        "    for pid in pids:\n"
        "        try:\n"
        "            os.kill(pid, 0)\n"
        "            alive.append(pid)\n"
        "        except ProcessLookupError:\n"
        "            pass\n"
        "    print('alive at exit:', *alive)\n"
        "atexit.register(report)\n"
        "from repro.core import TrainingConfig\n"
        "from repro.runtime import run_experiment\n"
        "from repro.runtime.proc_backend import idle_pids\n"
        "for seed in (0, 1):\n"
        "    cfg = TrainingConfig.tiny(algorithm='asgd', num_workers=2, epochs=1, seed=seed)\n"
        "    run_experiment(cfg, backend='proc', timeout=120.0)\n"
        "pids.extend(idle_pids())\n"
        "import multiprocessing\n"
        "with multiprocessing.get_context('fork').Pool(1) as pool:\n"
        "    assert pool.apply(idle_pids) == []\n"
        "print(*pids)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-W", "always::ResourceWarning", "-c", script],
        capture_output=True, text=True, env=env, timeout=2 * TIMEOUT,
    )
    assert proc.returncode == 0, proc.stderr
    listed, at_exit = proc.stdout.splitlines()
    pids = [int(pid) for pid in listed.split()]
    assert len(pids) == 2
    assert at_exit == "alive at exit:"
    assert "still running" not in proc.stderr
    deadline = time.monotonic() + 10.0
    alive = set(pids)
    while alive and time.monotonic() < deadline:
        for pid in list(alive):
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                alive.discard(pid)
        time.sleep(0.05)
    assert alive == set()


def test_child_compute_time_reaches_the_parent_timer():
    """The `done` frame carries the child's Timer totals into plan.timer, so
    lc-asgd's predictor overhead has a denominator on proc."""
    cfg = TrainingConfig.tiny(algorithm="lc-asgd", num_workers=2, epochs=1, seed=1)
    plan, result = run_proc(cfg)
    assert plan.timer.count("worker-compute") >= result.total_updates
    assert result.timers["worker_compute_ms"] > 0
    assert result.timers["loss_pred_ms"] > 0


def test_an_undecodable_hello_is_rejected_as_a_stray(empty_pool, monkeypatch):
    """A peer that knows the token but sends it as a list is a stray
    connection: it is closed, and the real child still joins the run."""
    import secrets
    import socket

    from repro.runtime import wire
    from tests.runtime.test_wire import raw_frame

    token = "0123456789abcdef" * 2
    monkeypatch.setattr(secrets, "token_hex", lambda nbytes=None: token)
    popen = subprocess.Popen
    closed = threading.Event()

    def stray(port):
        conn = wire.FrameConnection(
            socket.create_connection(("127.0.0.1", port), timeout=30.0)
        )
        try:
            conn.send_frame(raw_frame("Hello", 0, blob=[[token]]))
            conn.recv()
        except Exception:
            closed.set()
        finally:
            conn.close()

    def stray_first(args, **kwargs):
        port = int(args[args.index("--port") + 1])
        connector = threading.Thread(target=stray, args=(port,), daemon=True)
        connector.start()
        connector.join(timeout=0.5)  # connected (and sent) before the real child
        return popen(args, **kwargs)

    monkeypatch.setattr(proc_backend.subprocess, "Popen", stray_first)
    _, result = run_proc(tiny(num_workers=1))
    assert result.total_updates == 8
    assert closed.wait(5.0), "the stray connection was left open"
