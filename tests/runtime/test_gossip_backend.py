"""GossipBackend: determinism, convergence, liveness, and the PairingBoard."""

import threading

import numpy as np
import pytest

from repro.cluster import RingTopology
from repro.core import TrainingConfig
from repro.runtime import (
    ExperimentPlan,
    GossipBackend,
    PairingBoard,
    run_experiment,
)

TIMEOUT = 120.0


def run_gossip(cfg, **options):
    if options.get("mode") == "thread":
        options.setdefault("timeout", TIMEOUT)
    plan = ExperimentPlan.from_config(cfg)
    result = GossipBackend(**options).run(plan)
    return plan, result


# ---------------------------------------------------------------------- #
# deterministic sim mode
# ---------------------------------------------------------------------- #
def test_sim_mode_reproduces_bitwise():
    dicts = []
    for _ in range(2):
        cfg = TrainingConfig.spirals(
            algorithm="ad-psgd", num_workers=3, topology="ring", epochs=2, seed=9
        )
        _, result = run_gossip(cfg, mode="sim")
        payload = result.to_dict()
        payload.pop("wall_time")
        payload.pop("timers")  # real ms, not part of the virtual run
        dicts.append(payload)
    assert dicts[0] == dicts[1]


@pytest.mark.parametrize("topology", ["ring", "bipartite", "complete"])
def test_sim_mode_every_topology_completes(topology):
    cfg = TrainingConfig.tiny(
        algorithm="ad-psgd", num_workers=4, topology=topology, epochs=2, seed=1
    )
    _, result = run_gossip(cfg, mode="sim")
    assert result.backend == "gossip"
    assert result.topology == topology
    assert result.total_updates == cfg.epochs * 8  # 256/32 iters per epoch
    assert result.final_train_error < 0.95


def test_sim_mode_single_worker_degenerates_to_local_sgd():
    cfg = TrainingConfig.tiny(algorithm="ad-psgd", num_workers=1, epochs=2, seed=4)
    _, result = run_gossip(cfg, mode="sim")
    assert result.total_updates == cfg.epochs * 8
    assert result.comm["total_bytes"] == 0  # no peers, no traffic


def test_sim_mode_records_gossip_staleness_and_comm():
    cfg = TrainingConfig.tiny(
        algorithm="ad-psgd", num_workers=4, topology="ring", epochs=2, seed=2
    )
    _, result = run_gossip(cfg, mode="sim")
    # staleness = local steps since last averaging; with degree-2 gossip
    # some step always lands between averagings, so the mean is positive
    assert result.staleness["mean"] > 0
    assert result.comm["server_bytes"] == 0  # serverless (hub = coordinator)
    assert result.comm["max_worker_bytes"] > 0
    assert result.comm["total_bytes"] > 0
    # the busiest endpoint is a worker moving ~2 model payloads per exchange,
    # far below the whole-cluster wire total
    assert result.comm["max_worker_bytes"] < result.comm["total_bytes"]


def test_sim_dispatches_from_sim_backend_name():
    cfg = TrainingConfig.tiny(
        algorithm="ad-psgd", num_workers=2, topology="ring", epochs=1, seed=0
    )
    result = run_experiment(cfg, backend="sim")
    assert result.backend == "gossip"
    assert result.topology == "ring"


# ---------------------------------------------------------------------- #
# concurrent thread mode
# ---------------------------------------------------------------------- #
def test_thread_mode_converges_on_spirals():
    cfg = TrainingConfig.spirals(
        algorithm="ad-psgd", num_workers=3, topology="ring", epochs=6, seed=7
    )
    _, result = run_gossip(cfg, mode="thread")
    assert result.backend == "gossip"
    assert result.total_updates > 0
    # 3-class spirals: chance is ~0.67, and the same budget leaves asgd
    # around 0.5 — the consensus model must do genuinely better
    assert result.final_test_error < 0.45
    assert result.wall_time > 0


def test_thread_mode_no_deadlock_under_delay_injection():
    # nonzero time_scale sleeps inside every peer send, widening the race
    # windows the PairingBoard must survive; the run must still finish
    cfg = TrainingConfig.tiny(
        algorithm="ad-psgd", num_workers=4, topology="bipartite", epochs=2, seed=5
    )
    _, result = run_gossip(cfg, mode="thread", time_scale=0.05, timeout=60.0)
    assert result.total_updates == cfg.epochs * 8
    assert result.comm["max_worker_bytes"] > 0


def test_thread_mode_dispatches_from_thread_backend_name():
    cfg = TrainingConfig.tiny(
        algorithm="ad-psgd", num_workers=2, topology="complete", epochs=1, seed=3
    )
    result = run_experiment(cfg, backend="thread")
    assert result.backend == "gossip"
    assert result.topology == "complete"


# ---------------------------------------------------------------------- #
# guard rails
# ---------------------------------------------------------------------- #
def test_gossip_rejects_server_algorithms():
    plan = ExperimentPlan.from_config(TrainingConfig.tiny(algorithm="asgd"))
    with pytest.raises(ValueError, match="ad-psgd"):
        GossipBackend().run(plan)


def test_proc_backend_rejects_adpsgd():
    cfg = TrainingConfig.tiny(algorithm="ad-psgd", num_workers=2, epochs=1)
    with pytest.raises(ValueError, match="gossip"):
        run_experiment(cfg, backend="proc")


def test_trainer_rejects_adpsgd():
    from repro.core.trainer import DistributedTrainer

    with pytest.raises(ValueError, match="gossip"):
        DistributedTrainer(TrainingConfig.tiny(algorithm="ad-psgd"))


def test_backend_options_validated():
    with pytest.raises(ValueError, match="mode"):
        GossipBackend(mode="proc")
    with pytest.raises(ValueError, match="time_scale"):
        GossipBackend(time_scale=-1)
    with pytest.raises(ValueError, match="timeout"):
        GossipBackend(timeout=0)


# ---------------------------------------------------------------------- #
# PairingBoard
# ---------------------------------------------------------------------- #
def _park(board, worker, desired, results):
    results[worker] = board.request(worker, desired)


def test_board_matches_mutual_requests():
    board = PairingBoard(RingTopology(4), threading.Event())
    results = {}
    t = threading.Thread(target=_park, args=(board, 0, 1, results))
    t.start()
    while 0 not in board._waiting:  # wait until 0 is parked
        pass
    assert board.request(1, 0) == 0
    t.join(timeout=5)
    assert results[0] == 1


def test_board_accepts_any_waiting_neighbor():
    # worker 0 parks wanting 1; worker 3 arrives wanting 2 — but 0 is a
    # waiting neighbor of 3 on the ring, so the board pairs 3 with 0
    # instead of parking both (the rule that breaks the classic deadlock
    # cycle of four workers all desiring an already-busy partner)
    board = PairingBoard(RingTopology(4), threading.Event())
    results = {}
    t = threading.Thread(target=_park, args=(board, 0, 1, results))
    t.start()
    while 0 not in board._waiting:
        pass
    assert board.request(3, 2) == 0
    t.join(timeout=5)
    assert results[0] == 3


def test_board_shutdown_releases_parked_workers():
    # the run's done event is the board's shutdown: parked workers see it
    done = threading.Event()
    board = PairingBoard(RingTopology(4), done)
    results = {}
    t = threading.Thread(target=_park, args=(board, 2, 3, results))
    t.start()
    while 2 not in board._waiting:
        pass
    done.set()
    t.join(timeout=5)
    assert results[2] is None
    # requests after the run ended return immediately with no partner
    assert board.request(1, 0) is None
