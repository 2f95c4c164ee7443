"""One initialization per plan: every replica, the eval model and the server agree.

Each case builds an :class:`ExperimentPlan` and checks that every
in-process worker replica, the eval model and ``server.params`` hold one
parameter vector bit for bit, then runs the plan and hashes the final
parameters: the server's vector and the eval model's (for AD-PSGD, which
has no authoritative server vector, the eval model holds the average of
the replicas).  The hashes were captured at commit 2367096, while every
replica still drew its own seeded initialization, so a change to how
replicas are initialized is proven against that rather than against itself.
The ``sim-lc-asgd-m4`` hashes were re-captured when the loss predictor began
feeding the newest loss once (its forecasts, and so the compensated
gradients, changed).
"""

import hashlib

import numpy as np
import pytest

from repro.core import TrainingConfig
from repro.nn.module import get_flat_params
from repro.runtime import ExperimentPlan, SimBackend, ThreadBackend

CASES = {
    "sim-asgd-m1": dict(
        backend="sim", config=dict(algorithm="asgd", num_workers=1),
        server="ba007c8ce0795e20", eval="deb0387670604028",
    ),
    "sim-asgd-m4": dict(
        backend="sim", config=dict(algorithm="asgd", num_workers=4),
        server="54d26d988efb84dd", eval="a475464ad2c65ba8",
    ),
    "sim-asgd-m8": dict(
        backend="sim", config=dict(algorithm="asgd", num_workers=8),
        server="214eb5f4713ecaa8", eval="b7c0532f438acb25",
    ),
    "sim-lc-asgd-m4": dict(
        backend="sim", config=dict(algorithm="lc-asgd", num_workers=4),
        server="0284dd93edf82dde", eval="48caa21594fd04d6",
    ),
    "gossip-sim-ad-psgd-m4": dict(
        backend="sim", config=dict(algorithm="ad-psgd", num_workers=4),
        server="91a7388124186d54", eval="e849754234c2d776",
    ),
    "thread-det-asgd-m2": dict(
        backend="thread", config=dict(algorithm="asgd", num_workers=2),
        server="7eacab0ab44ca27f", eval="79b0c01ea69346f8",
    ),
}


def digest(flat: np.ndarray) -> str:
    """First 16 hex digits of the SHA-256 of a float64 vector's bytes."""
    data = np.ascontiguousarray(flat, dtype=np.float64).tobytes()
    return hashlib.sha256(data).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(CASES))
def test_one_initialization_and_the_parent_final_parameters(name):
    case = CASES[name]
    cfg = TrainingConfig.tiny(seed=11, epochs=2, **case["config"])
    plan = ExperimentPlan.from_config(cfg)

    init = plan.server.params.copy()
    assert len(plan.workers) == cfg.num_workers
    for vector in [get_flat_params(plan.eval_model)] + [
        get_flat_params(worker.model) for worker in plan.workers
    ]:
        assert vector.dtype == init.dtype
        assert np.array_equal(vector, init)

    if case["backend"] == "thread":
        ThreadBackend(deterministic=True, timeout=120.0).run(plan)
    else:
        SimBackend().run(plan)

    assert digest(plan.server.params) == case["server"]
    assert digest(get_flat_params(plan.eval_model)) == case["eval"]
