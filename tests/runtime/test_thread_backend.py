"""ThreadBackend: real concurrency, determinism, parity, and liveness."""

import time

import numpy as np
import pytest

from repro.core import TrainingConfig
from repro.runtime import (
    ExperimentPlan,
    InProcTransport,
    Mailbox,
    RoundRobinTurnstile,
    ThreadBackend,
    run_experiment,
)
from repro.runtime.messages import PullRequest, Shutdown
from repro.runtime.transport import link_delay

TIMEOUT = 120.0


def run_thread(cfg, **options):
    options.setdefault("timeout", TIMEOUT)
    plan = ExperimentPlan.from_config(cfg)
    result = ThreadBackend(**options).run(plan)
    return plan, result


@pytest.mark.parametrize("algorithm", ["sgd", "ssgd", "asgd", "dc-asgd", "lc-asgd", "sa-asgd"])
def test_every_algorithm_completes(algorithm):
    cfg = TrainingConfig.tiny(algorithm=algorithm, num_workers=2, epochs=2, seed=3)
    _, result = run_thread(cfg)
    assert result.backend == "thread"
    assert result.total_updates == cfg.epochs * 8  # 256/32 = 8 iters/epoch
    assert result.wall_time > 0.0
    assert result.final_train_error < 0.95


def test_free_running_has_real_staleness_and_clock():
    cfg = TrainingConfig.tiny(algorithm="asgd", num_workers=4, epochs=2, seed=0)
    _, result = run_thread(cfg)
    # genuine interleaving: four racing workers cannot all be staleness-0
    assert result.staleness["mean"] > 0
    # the curve is stamped with real seconds since run start
    assert all(0.0 <= p.time <= result.wall_time + 1.0 for p in result.curve)
    assert result.total_virtual_time == result.wall_time


def test_ssgd_barrier_holds_under_threads():
    cfg = TrainingConfig.tiny(algorithm="ssgd", num_workers=4, epochs=2, seed=1)
    plan, result = run_thread(cfg)
    assert result.staleness["max"] == 0
    assert plan.server.version == result.total_updates // 4


def test_deterministic_mode_reproduces_bitwise():
    finals, curves = [], []
    for _ in range(2):
        cfg = TrainingConfig.tiny(algorithm="lc-asgd", num_workers=3, epochs=2, seed=9)
        plan, result = run_thread(cfg, deterministic=True)
        finals.append(plan.server.params.copy())
        curves.append([p.train_loss for p in result.curve])
    np.testing.assert_array_equal(finals[0], finals[1])
    np.testing.assert_array_equal(curves[0], curves[1])


@pytest.mark.parametrize("algorithm", ["asgd", "dc-asgd"])
def test_deterministic_thread_matches_sim_single_worker(algorithm):
    """One worker = one schedule: both backends run the identical math."""
    cfg = TrainingConfig.tiny(algorithm=algorithm, num_workers=1, epochs=2, seed=5)
    sim_plan = ExperimentPlan.from_config(cfg)
    from repro.runtime import SimBackend

    sim_result = SimBackend().run(sim_plan)
    thread_plan, thread_result = run_thread(cfg, deterministic=True)
    np.testing.assert_allclose(sim_plan.server.params, thread_plan.server.params, rtol=0, atol=0)
    assert sim_result.final_test_error == thread_result.final_test_error
    assert sim_result.total_updates == thread_result.total_updates


def test_stress_many_workers_no_deadlock():
    """Eight racing workers must drain the budget without hanging."""
    cfg = TrainingConfig.tiny(algorithm="asgd", num_workers=8, max_updates=48, seed=2)
    start = time.perf_counter()
    _, result = run_thread(cfg, timeout=60.0)
    assert result.total_updates == 48
    assert time.perf_counter() - start < 60.0


def test_stress_lc_asgd_compensation_round_trips():
    """The extra state/compensation round trip must not wedge the actor."""
    cfg = TrainingConfig.tiny(algorithm="lc-asgd", num_workers=6, max_updates=36, seed=4)
    _, result = run_thread(cfg, timeout=60.0)
    assert result.total_updates == 36
    assert len(result.loss_prediction_pairs) > 0


def test_local_bn_mode_eval_is_safe_under_threads():
    """Eval borrows worker 0's BN stats; the model_lock keeps it torn-free."""
    cfg = TrainingConfig.tiny(algorithm="asgd", num_workers=3, epochs=2, bn_mode="local", seed=6)
    _, result = run_thread(cfg, timeout=60.0)
    assert result.total_updates == cfg.epochs * 8
    assert all(np.isfinite(p.test_error) for p in result.curve)


def test_max_updates_budget_is_exact():
    cfg = TrainingConfig.tiny(algorithm="asgd", num_workers=3, max_updates=7, seed=0)
    plan, result = run_thread(cfg)
    assert result.total_updates == 7
    assert plan.server.batches_processed == 7
    assert len(result.curve) >= 1


def test_emulated_compute_delay_slows_the_run():
    cfg = TrainingConfig.tiny(algorithm="asgd", num_workers=2, max_updates=8, seed=0)
    _, fast = run_thread(cfg)
    cfg2 = TrainingConfig.tiny(algorithm="asgd", num_workers=2, max_updates=8, seed=0)
    _, slow = run_thread(cfg2, compute_scale=1.0)  # ~30ms per virtual batch
    assert slow.wall_time > fast.wall_time


def test_invalid_backend_options_rejected():
    with pytest.raises(ValueError, match=">= 0"):
        ThreadBackend(time_scale=-1.0)
    with pytest.raises(ValueError, match="positive"):
        ThreadBackend(timeout=0.0)


def test_worker_failure_preserves_original_traceback(monkeypatch):
    """A crash inside a worker thread must re-raise in the caller with the
    failing thread's frames intact, not a bare one-frame re-raise."""
    import traceback

    from repro.core.worker import DistributedWorker

    def exploding_forward(self):
        raise ValueError("injected forward failure")

    monkeypatch.setattr(DistributedWorker, "forward", exploding_forward)
    cfg = TrainingConfig.tiny(algorithm="asgd", num_workers=2, epochs=1, seed=0)
    plan = ExperimentPlan.from_config(cfg)
    with pytest.raises(ValueError, match="injected forward failure") as excinfo:
        ThreadBackend(timeout=30.0).run(plan)
    frames = {f.name for f in traceback.extract_tb(excinfo.value.__traceback__)}
    assert "exploding_forward" in frames  # the crash site survived the hop
    assert "worker_cycle" in frames  # and so did the worker-cycle context


class TestTransport:
    def test_mailbox_fifo(self):
        box = Mailbox()
        box.put(PullRequest(0))
        box.put(Shutdown())
        assert isinstance(box.get(), PullRequest)
        assert isinstance(box.get(), Shutdown)
        assert len(box) == 0

    def test_mailbox_honours_delivery_deadline(self):
        box = Mailbox()
        box.put(PullRequest(0), not_before=time.monotonic() + 0.05)
        start = time.monotonic()
        box.get()
        assert time.monotonic() - start >= 0.04

    def test_shutdown_cancels_pending_delivery_deadlines(self):
        # a Shutdown queued behind a delay-stamped message must not wait
        # out the emulated link delay: enqueueing it expedites everything
        box = Mailbox()
        box.put(PullRequest(0), not_before=time.monotonic() + 30.0)
        box.put(Shutdown())
        start = time.monotonic()
        assert isinstance(box.get(), PullRequest)  # FIFO order kept
        assert isinstance(box.get(), Shutdown)
        assert time.monotonic() - start < 5.0

    def test_shutdown_wakes_receiver_blocked_on_a_deadline(self):
        import threading

        box = Mailbox()
        box.put(PullRequest(0), not_before=time.monotonic() + 30.0)
        got = []
        t = threading.Thread(target=lambda: got.append(box.get()))
        t.start()
        time.sleep(0.05)  # let the receiver block mid-deadline
        box.put(Shutdown())
        t.join(timeout=5.0)
        assert not t.is_alive()
        assert isinstance(got[0], PullRequest)

    def test_link_delay_scales_with_network(self):
        plan = ExperimentPlan.from_config(
            TrainingConfig.tiny(algorithm="asgd", num_workers=2, seed=0)
        )
        transport = InProcTransport(2, network=plan.network, time_scale=0.5)
        delay = link_delay(transport.network, transport.time_scale, 0, 10_000)
        assert delay > 0
        # no network or zero scale disables emulation entirely
        bare = InProcTransport(2)
        assert link_delay(bare.network, bare.time_scale, 0, 10_000) == 0.0
        unscaled = InProcTransport(2, network=plan.network, time_scale=0.0)
        assert link_delay(unscaled.network, unscaled.time_scale, 0, 10_000) == 0.0

    def test_transport_validates_arguments(self):
        with pytest.raises(ValueError, match=">= 1"):
            InProcTransport(0)
        with pytest.raises(ValueError, match=">= 0"):
            InProcTransport(2, time_scale=-0.1)


class TestTurnstile:
    def test_round_robin_order(self):
        import threading

        turnstile = RoundRobinTurnstile(3)
        done = threading.Event()
        order = []

        def spin(worker):
            for _ in range(3):
                assert turnstile.acquire(worker, done)
                order.append(worker)
                turnstile.release(worker)
            turnstile.retire(worker)

        threads = [threading.Thread(target=spin, args=(m,)) for m in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
        assert not any(t.is_alive() for t in threads)
        assert order[:3] == [0, 1, 2] and order == [0, 1, 2] * 3

    def test_retire_unblocks_waiters(self):
        import threading

        turnstile = RoundRobinTurnstile(2)
        done = threading.Event()
        assert turnstile.acquire(0, done)
        got = []

        def waiter():
            got.append(turnstile.acquire(1, done))
            turnstile.release(1)
            turnstile.retire(1)

        t = threading.Thread(target=waiter)
        t.start()
        turnstile.release(0)
        turnstile.retire(0)  # rotation shrinks to worker 1 only
        t.join(timeout=10.0)
        assert not t.is_alive()
        assert got == [True]

    def test_acquire_returns_false_when_done(self):
        import threading

        turnstile = RoundRobinTurnstile(2)
        done = threading.Event()
        done.set()
        # worker 1 is not the holder and the run is over: must not block
        assert turnstile.acquire(1, done) is False


def test_deterministic_thread_refuses_adpsgd():
    """Board pairing and the consensus eval race the workers, so a
    'deterministic' gossip run would silently differ run to run."""
    cfg = TrainingConfig.spirals(
        algorithm="ad-psgd", num_workers=3, topology="ring", epochs=3, seed=7
    )
    with pytest.raises(ValueError, match="backend='sim'"):
        run_experiment(cfg, backend="thread", deterministic=True)


def test_deterministic_compare_skips_adpsgd(monkeypatch, tmp_path, capsys):
    import json

    from repro import cli

    monkeypatch.setattr(cli, "ALGORITHMS", ("asgd", "ad-psgd"))
    out = tmp_path / "compare.json"
    code = cli.main([
        "compare", "--backend", "thread", "--deterministic", "--preset", "tiny",
        "--workers", "2", "--epochs", "1", "--json", str(out),
    ])
    assert code == 0
    assert [p["algorithm"] for p in json.loads(out.read_text())] == ["asgd"]


def test_gossip_threads_under_a_short_switch_interval():
    """More workers than cores, switching threads every microsecond: the
    budget is applied exactly, and each step is followed by one average."""
    import sys
    from unittest import mock

    from repro.runtime import ExperimentSession

    applied = []
    record_update = ExperimentSession.record_update

    def spy(self, now, worker, staleness, loss):
        applied.append(staleness)
        return record_update(self, now, worker, staleness, loss)

    cfg = TrainingConfig.tiny(
        algorithm="ad-psgd", num_workers=6, topology="ring", max_updates=48, seed=8
    )
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.object(ExperimentSession, "record_update", spy):
            _, result = run_thread(cfg, timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert result.total_updates == len(applied) == 48
    assert set(applied) == {1}
    assert all(np.isfinite(p.test_loss) for p in result.curve)
