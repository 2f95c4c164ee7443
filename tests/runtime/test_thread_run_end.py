"""How a thread run ends: on the caller, with the same messages every time.

The server actor of a thread run runs on the thread that called ``run``,
as on proc, so a run starts only its ``M`` worker threads and joins them
before it returns.  A server-based worker learns that the run is over only
from the Shutdown its next call gets back, so a deterministic run sends the
same messages whichever thread wins the race at the end.  The failure
paths end promptly, each with its own error: a run past ``timeout`` and a
handler that raises.
"""

import threading
import time
import traceback

import pytest

from repro.core import TrainingConfig
from repro.core.server import ParameterServer
from repro.core.worker import DistributedWorker
from repro.runtime import ExperimentPlan, ThreadBackend, run_experiment

TIMEOUT = 120.0


@pytest.fixture
def thread_starts(monkeypatch):
    """The name of every thread started from here on."""
    starts = []
    start = threading.Thread.start

    def counting(self, *args, **kwargs):
        starts.append(self.name)
        return start(self, *args, **kwargs)

    monkeypatch.setattr(threading.Thread, "start", counting)
    return starts


def test_a_deterministic_run_sends_the_same_messages_every_time():
    seen = set()
    for _ in range(20):
        cfg = TrainingConfig.tiny(algorithm="asgd", num_workers=2, epochs=1, seed=0)
        result = run_experiment(cfg, backend="thread", deterministic=True, timeout=TIMEOUT)
        assert result.total_updates == 8
        seen.add((result.comm["messages"], result.comm["wire_bytes"]))
    # 8 cycles of pull, reply and push, then each worker's pull that the
    # Shutdown answers
    assert len(seen) == 1, seen
    assert seen.pop()[0] == 8 * 3 + 2


@pytest.mark.parametrize(
    "algorithm, num_workers",
    [("asgd", 2), ("ad-psgd", 3)],
)
def test_a_thread_run_starts_its_workers_and_leaves_none_behind(
    thread_starts, algorithm, num_workers
):
    cfg = TrainingConfig.tiny(algorithm=algorithm, num_workers=num_workers, max_updates=12, seed=8)
    before = threading.active_count()
    result = run_experiment(cfg, backend="thread", timeout=TIMEOUT)
    assert result.total_updates == 12
    assert thread_starts == [f"repro-worker-{m}" for m in range(num_workers)]
    assert threading.active_count() == before


def test_a_stalled_run_fails_with_the_timeout_it_exceeded(monkeypatch):
    stall, timeout = 0.4, 0.5
    forward = DistributedWorker.forward

    def stalled_forward(self, *args, **kwargs):
        time.sleep(stall)
        return forward(self, *args, **kwargs)

    monkeypatch.setattr(DistributedWorker, "forward", stalled_forward)
    cfg = TrainingConfig.tiny(algorithm="asgd", num_workers=2, epochs=1, seed=0)
    plan = ExperimentPlan.from_config(cfg)
    before = threading.active_count()
    started = time.monotonic()
    with pytest.raises(RuntimeError, match=r"exceeded timeout=0\.5s"):
        ThreadBackend(timeout=timeout).run(plan)
    took = time.monotonic() - started
    # the deadline, then each worker's step in flight: no step after it
    assert timeout <= took < timeout + stall + 1.0
    assert plan.server.batches_processed < plan.total_updates
    assert threading.active_count() == before


def test_a_handler_failure_reraises_with_its_frames_and_joins_every_worker(monkeypatch):
    pull = ParameterServer.handle_pull

    def exploding_pull(self, worker, *args, **kwargs):
        if self.batches_processed >= 3:
            raise ValueError("injected handler failure")
        return pull(self, worker, *args, **kwargs)

    monkeypatch.setattr(ParameterServer, "handle_pull", exploding_pull)
    cfg = TrainingConfig.tiny(algorithm="asgd", num_workers=3, epochs=2, seed=0)
    plan = ExperimentPlan.from_config(cfg)
    before = threading.active_count()
    with pytest.raises(ValueError, match="injected handler failure") as excinfo:
        ThreadBackend(timeout=TIMEOUT).run(plan)
    frames = {f.name for f in traceback.extract_tb(excinfo.value.__traceback__)}
    assert {"exploding_pull", "dispatch", "server_actor_loop"} <= frames
    assert threading.active_count() == before
    assert not [t.name for t in threading.enumerate() if t.name.startswith("repro-worker")]
