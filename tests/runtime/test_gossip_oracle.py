"""AD-PSGD runs pinned before the gossip step is restated.

The sim values below were captured at commit 856f7b0, while the gossip
sim still ran its own local step and its own pairwise average beside the
server backends' worker cycle, so moving AD-PSGD onto a shared cycle is
proven against that implementation rather than against itself.  Each
case pins the eval model's final parameters and BN running statistics
(SHA-256 prefix), every curve point, the finishing order, the staleness
of every logged update, the virtual clock and the byte accounting.

The five-worker complete graph leaves one worker out of each round's
matching, and its budget ends after worker 3 of the fifth round, so the
last round is the only one in which a worker that took no step could be
matched.  Its clock and byte totals depend on whether that pairing
happens; they are left to ``test_gossip_golden.py``.

Thread gossip races, so it pins properties, not values: the run applies
exactly its budget, and since a worker blocks on the pairing board after
every step until it has averaged (or the run has ended), every logged
update has staleness 1.
"""

import hashlib
from unittest import mock

import numpy as np
import pytest

from repro.core import TrainingConfig
from repro.nn.module import get_flat_params
from repro.nn.norm import bn_layers
from repro.runtime import ExperimentPlan, ExperimentSession, get_backend

_RING_M4 = dict(
    eval="2f488566ea62ec33",
    curve=[
        (1, 0.06284897321978285, 0.78125, 2.3683013916015625, 0.828125, 2.5426137447357178),
        (2, 0.12490451378623246, 0.734375, 2.1387343406677246, 0.75, 2.3318519592285156),
        (3, 0.19375097617359108, 0.6796875, 1.9555091857910156, 0.703125, 2.166715383529663),
    ],
    order="0123" * 6,
    staleness=[1] * 24,
    total_virtual_time=0.19468058812334174,
    comm=dict(
        messages=24.0, logical_bytes=369600.0, wire_bytes=369600.0, server_bytes=0.0,
        max_worker_bytes=184800.0, total_bytes=369600.0,
    ),
)

CASES = {
    "ring-m4": dict(config=dict(topology="ring", num_workers=4), **_RING_M4),
    # on four workers the ring is the bipartite graph (edges 0-1, 1-2, 2-3, 3-0)
    "bipartite-m4": dict(config=dict(topology="bipartite", num_workers=4), **_RING_M4),
    "complete-m5": dict(
        config=dict(topology="complete", num_workers=5),
        eval="00c372ad6e1df0e8",
        curve=[
            (1, 0.061883606589026904, 0.796875, 2.4244418144226074, 0.8203125, 2.5953421592712402),
            (2, 0.12191541966078097, 0.734375, 2.219909429550171, 0.796875, 2.3985023498535156),
            (3, 0.16553175779263438, 0.703125, 2.054408550262451, 0.7265625, 2.254014015197754),
        ],
        order="01234" * 4 + "0123",
        staleness=[int(c) for c in "111112111131111411111111"],
        total_virtual_time=None,
        comm=None,
    ),
    "ring-m1": dict(
        config=dict(topology="ring", num_workers=1),
        eval="e47dfa2bc523dcd1",
        curve=[
            (1, 0.25569712680319423, 0.6484375, 1.8039381504058838, 0.703125, 2.0367777347564697),
            (2, 0.524218735355522, 0.4609375, 1.3976553678512573, 0.5859375, 1.681100606918335),
            (3, 0.7816419284051856, 0.3515625, 1.140099287033081, 0.515625, 1.453458309173584),
        ],
        order="0" * 24,
        staleness=list(range(1, 25)),  # a lone worker never averages
        total_virtual_time=0.7816419284051856,
        comm=dict(
            messages=0.0, logical_bytes=0.0, wire_bytes=0.0, server_bytes=0.0,
            max_worker_bytes=0.0, total_bytes=0.0,
        ),
    ),
}


def eval_digest(model) -> str:
    """First 16 hex digits of the SHA-256 of the parameters and BN stats."""
    h = hashlib.sha256(np.ascontiguousarray(get_flat_params(model)).tobytes())
    for layer in bn_layers(model):
        h.update(np.ascontiguousarray(layer.running_mean, dtype=np.float64).tobytes())
        h.update(np.ascontiguousarray(layer.running_var, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


def run_logged(config, backend, **options):
    """Run ``config`` on ``backend``; return (plan, result, [(worker, staleness)])."""
    applied = []
    record_update = ExperimentSession.record_update

    def spy(self, now, worker, staleness, loss):
        applied.append((worker, staleness))
        return record_update(self, now, worker, staleness, loss)

    plan = ExperimentPlan.from_config(config)
    with mock.patch.object(ExperimentSession, "record_update", spy):
        result = get_backend(backend, **options).run(plan)
    return plan, result, applied


@pytest.mark.parametrize("name", sorted(CASES))
def test_gossip_sim_matches_the_parent_run(name):
    case = CASES[name]
    cfg = TrainingConfig.tiny(algorithm="ad-psgd", seed=5, **case["config"])
    plan, result, applied = run_logged(cfg, "sim")

    assert result.backend == "gossip"
    assert eval_digest(plan.eval_model) == case["eval"]
    assert [
        (p.epoch, p.time, p.train_error, p.train_loss, p.test_error, p.test_loss)
        for p in result.curve
    ] == case["curve"]
    assert "".join(str(w) for w in result.finishing_order) == case["order"]
    assert [w for w, _ in applied] == result.finishing_order
    assert [k for _, k in applied] == case["staleness"]
    if case["total_virtual_time"] is not None:
        assert result.total_virtual_time == case["total_virtual_time"]
        assert result.comm == case["comm"]


@pytest.mark.parametrize(
    "topology,num_workers", [("ring", 2), ("ring", 4), ("complete", 3)]
)
def test_thread_gossip_applies_the_budget_and_averages_after_every_step(
    topology, num_workers
):
    cfg = TrainingConfig.tiny(
        algorithm="ad-psgd", num_workers=num_workers, topology=topology, epochs=2, seed=5
    )
    _, result, applied = run_logged(cfg, "gossip", mode="thread", timeout=120.0)

    assert result.backend == "gossip"
    assert result.total_updates == cfg.epochs * 8  # 256/32 iters per epoch
    assert len(applied) == result.total_updates
    assert {k for _, k in applied} == {1}
