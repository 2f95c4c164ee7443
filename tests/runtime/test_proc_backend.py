"""ProcBackend: real OS-process workers — completion, parity, crash safety."""

import time

import numpy as np
import pytest

from repro.core import TrainingConfig
from repro.runtime import (
    ExperimentPlan,
    ProcBackend,
    SocketTransport,
    WorkerRuntime,
    run_experiment,
)
from repro.runtime.messages import PullRequest
from repro.runtime.proc_worker import (
    CRASH_AFTER_ENV,
    CRASH_WORKER_ENV,
    EXIT_CRASH_INJECTED,
)
from repro.runtime.transport import link_delay

TIMEOUT = 120.0


def run_proc(cfg, **options):
    options.setdefault("timeout", TIMEOUT)
    plan = ExperimentPlan.from_config(cfg)
    result = ProcBackend(**options).run(plan)
    return plan, result


@pytest.mark.parametrize("algorithm", ["asgd", "lc-asgd", "ssgd"])
def test_algorithms_complete_on_real_processes(algorithm):
    cfg = TrainingConfig.tiny(algorithm=algorithm, num_workers=2, epochs=2, seed=3)
    plan, result = run_proc(cfg)
    assert result.backend == "proc"
    assert result.total_updates == cfg.epochs * 8  # 256/32 = 8 iters/epoch
    assert result.wall_time > 0.0
    assert plan.server.batches_processed == result.total_updates


def test_sgd_single_worker_runs_when_bn_synchronized():
    cfg = TrainingConfig.tiny(algorithm="sgd", epochs=1, seed=0, bn_mode="async")
    _, result = run_proc(cfg)
    assert result.num_workers == 1
    assert result.total_updates == 8


def test_local_bn_mode_streams_worker0_stats_at_shutdown():
    """bn_mode="local" used to be rejected on proc; now worker 0 ships its
    BN running statistics back at shutdown and the final evaluation uses
    them — for sequential sgd the final error must match the sim backend
    bit-for-bit (identical math, identical stats, same eval subsets)."""
    from repro.runtime import run_experiment

    cfg = TrainingConfig.tiny(algorithm="sgd", epochs=1, seed=0)
    assert cfg.bn_mode == "local"  # the preset's sgd default
    sim = run_experiment(cfg, backend="sim")
    plan = ExperimentPlan.from_config(cfg, build_workers=False)
    proc = ProcBackend(timeout=TIMEOUT).run(plan)
    assert proc.total_updates == sim.total_updates
    # sequential sgd is deterministic; only float32 wire rounding separates
    # the two, so the final errors agree to within a few test samples
    assert abs(proc.final_test_error - sim.final_test_error) < 0.05
    # the stats genuinely moved: eval_model's running stats left their init
    from repro.nn.norm import bn_layers

    assert any(
        float(np.abs(layer.running_mean).sum()) > 0.0
        for layer in bn_layers(plan.eval_model)
    )


def test_local_bn_mode_allowed_for_bn_free_models():
    # with no BN layers there are no running stats to borrow: local mode
    # runs fine on proc even with a worker-replica-free parent plan
    cfg = TrainingConfig.tiny(
        algorithm="asgd", num_workers=2, epochs=1, bn_mode="local", seed=0,
        model_kwargs={"hidden": (32,), "batch_norm": False},
    )
    plan = ExperimentPlan.from_config(cfg, build_workers=False)
    result = ProcBackend(timeout=TIMEOUT).run(plan)
    assert result.total_updates == 8


def test_proc_plans_skip_parent_replica_builds():
    """run_experiment must not build M unused replicas for proc runs."""
    from repro.runtime.backends import get_backend

    cfg = TrainingConfig.tiny(algorithm="asgd", num_workers=4, seed=0)
    assert get_backend("proc").needs_worker_replicas is False
    plan = ExperimentPlan.from_config(cfg, build_workers=False)
    assert plan.workers == []
    # the server still starts from the seed-identical initialization
    full = ExperimentPlan.from_config(cfg)
    np.testing.assert_array_equal(plan.server.params, full.server.params)


def test_proc_parity_with_sim_and_thread_on_spirals():
    """The paper's claims must not depend on the execution substrate.

    Same spirals scenario, same seed, three backends: the proc run's final
    test error must land within noise of the others (exact equality is
    impossible — real processes race and float32 crosses the wire).
    """
    results = {}
    for backend in ("sim", "thread", "proc"):
        cfg = TrainingConfig.spirals(algorithm="asgd", num_workers=2, seed=1)
        results[backend] = run_experiment(
            cfg, backend=backend, **({} if backend == "sim" else {"timeout": TIMEOUT})
        )
    errors = {b: r.final_test_error for b, r in results.items()}
    assert all(r.total_updates == results["sim"].total_updates for r in results.values())
    assert abs(errors["proc"] - errors["sim"]) < 0.15, errors
    assert abs(errors["proc"] - errors["thread"]) < 0.15, errors


def test_staleness_is_real_and_curve_uses_wall_clock():
    cfg = TrainingConfig.tiny(algorithm="asgd", num_workers=4, epochs=2, seed=0)
    _, result = run_proc(cfg)
    assert result.staleness["mean"] > 0  # four racing processes
    assert all(0.0 <= p.time <= result.wall_time + 1.0 for p in result.curve)
    assert result.total_virtual_time == result.wall_time


def test_crashed_child_fails_the_run_quickly(monkeypatch):
    """A killed worker must surface as a run failure, not a hung repro run."""
    monkeypatch.setenv(CRASH_WORKER_ENV, "1")
    monkeypatch.setenv(CRASH_AFTER_ENV, "1")
    cfg = TrainingConfig.tiny(algorithm="asgd", num_workers=2, max_updates=500, seed=2)
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match="worker child 1"):
        run_proc(cfg, timeout=60.0)
    # detection comes from socket EOF / exit-code polling, not the timeout
    assert time.perf_counter() - start < 50.0


def test_protocol_version_skew_rejected_with_reason(monkeypatch):
    """A parent speaking a different protocol version must fail the run
    fast with both versions named, not hang until the handshake times out:
    the children are real current-version processes, the patched parent
    speaks v1 (a new spawn signature, so no idle child is reused)."""
    from repro.runtime import wire
    from repro.runtime.wire import PROTOCOL_VERSION

    monkeypatch.setattr(wire, "PROTOCOL_VERSION", 1)
    cfg = TrainingConfig.tiny(algorithm="asgd", num_workers=1, epochs=1, seed=0)
    start = time.perf_counter()
    with pytest.raises(
        RuntimeError, match=rf"rejected a peer.*peer speaks v{PROTOCOL_VERSION}, we speak v1"
    ):
        run_proc(cfg, timeout=60.0)
    assert time.perf_counter() - start < 50.0  # reject, not timeout


def test_fp16_codec_shrinks_proc_wire_traffic():
    """comm_codec rides the handshake: same run, half-precision wire."""
    results = {}
    for codec in ("raw32", "fp16"):
        cfg = TrainingConfig.tiny(
            algorithm="asgd", num_workers=2, epochs=1, seed=0, comm_codec=codec
        )
        _, result = run_proc(cfg)
        results[codec] = result
        assert result.codec == codec
        assert result.comm["wire_bytes"] > 0
        assert result.comm["logical_bytes"] > 0
    assert results["fp16"].total_updates == results["raw32"].total_updates
    # headers and framing are uncompressed, so short of the ideal 2x —
    # but the bulk payload is halved and it must show
    assert (
        results["fp16"].comm["wire_bytes"] < 0.66 * results["raw32"].comm["wire_bytes"]
    )


@pytest.mark.parametrize("codec", ["raw32", "fp16"])
def test_two_identical_single_worker_runs_report_the_same_comm(codec):
    """A frame's length is a function of its kind, codec and array sizes,
    not of the clock readings and losses it carries, so two runs of one
    config put the same bytes on the wire.  M = 1 keeps the message count
    free of scheduling."""
    cfg = TrainingConfig.tiny(
        algorithm="asgd", num_workers=1, epochs=2, seed=7, comm_codec=codec
    )
    first, second = [
        {key: run_proc(cfg)[1].comm[key] for key in ("messages", "wire_bytes")}
        for _ in range(2)
    ]
    assert first["wire_bytes"] > 0
    assert first == second


def test_topk_codec_completes_on_proc():
    cfg = TrainingConfig.tiny(
        algorithm="lc-asgd", num_workers=2, epochs=1, seed=1, comm_codec="topk"
    )
    _, result = run_proc(cfg)
    assert result.codec == "topk"
    assert result.total_updates == 8
    assert result.comm["wire_bytes"] > 0


def test_worker_runtime_rejects_bad_worker_id():
    cfg = TrainingConfig.tiny(algorithm="asgd", num_workers=2, seed=0)
    with pytest.raises(ValueError, match="out of range"):
        WorkerRuntime.from_config(cfg, 2)


def test_worker_runtime_rebuilds_identical_replicas():
    """The seed is the contract: children re-derive init bit-for-bit."""
    from repro.nn.module import get_flat_params

    cfg = TrainingConfig.tiny(algorithm="lc-asgd", num_workers=3, seed=9)
    plan = ExperimentPlan.from_config(cfg)
    for m in range(cfg.num_workers):
        runtime = WorkerRuntime.from_config(cfg, m)
        np.testing.assert_array_equal(
            get_flat_params(runtime.worker.model), get_flat_params(plan.workers[m].model)
        )
        np.testing.assert_array_equal(
            runtime.worker.loader.next_batch()[0], plan.workers[m].loader.next_batch()[0]
        )
        assert runtime.model_bytes == plan.model_bytes
        assert runtime.state_bytes == plan.state_bytes
        assert runtime.requires_compensation == plan.server.rule.requires_compensation


def test_invalid_backend_options_rejected():
    with pytest.raises(ValueError, match=">= 0"):
        ProcBackend(time_scale=-1.0)
    with pytest.raises(ValueError, match="positive"):
        ProcBackend(timeout=0.0)
    with pytest.raises(ValueError, match="positive"):
        ProcBackend(startup_timeout=0.0)


class TestSocketTransport:
    def test_validates_arguments(self):
        with pytest.raises(ValueError, match=">= 1"):
            SocketTransport(0)
        with pytest.raises(ValueError, match=">= 0"):
            SocketTransport(2, time_scale=-0.1)

    def test_loopback_to_server_delivers(self):
        transport = SocketTransport(2)
        transport.to_server(0, PullRequest(0, sent_at=1.0))
        assert isinstance(transport.server_inbox.get(timeout=1.0), PullRequest)

    def test_to_worker_requires_attachment(self):
        transport = SocketTransport(2)
        with pytest.raises(RuntimeError, match="not attached"):
            transport.to_worker(0, PullRequest(0))

    def test_link_delay_scales_with_network(self):
        plan = ExperimentPlan.from_config(
            TrainingConfig.tiny(algorithm="asgd", num_workers=2, seed=0)
        )
        transport = SocketTransport(2, network=plan.network, time_scale=0.5)
        assert link_delay(transport.network, transport.time_scale, 0, 10_000) > 0
        bare = SocketTransport(2)
        assert link_delay(bare.network, bare.time_scale, 0, 10_000) == 0.0
