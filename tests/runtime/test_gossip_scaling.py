"""Lian et al.'s per-endpoint claim at a tier-1 budget.

Removing the parameter server removes the O(N) hot spot: the busiest
endpoint of an AD-PSGD run is a worker moving one exchange per local step
whatever the cluster size, while ASGD funnels every worker's pull and push
through the server.  This counts the same bytes as
``benchmarks/bench_gossip_scaling.py`` (the busiest endpoint's traffic per
local step, at M = 2 and M = 8) on the same deterministic runtimes — the
round-robin thread backend for asgd and the gossip sim for ad-psgd — at
6 steps per worker instead of 24.
"""

import pytest

from repro.bench.workloads import throughput_workload
from repro.runtime import run_experiment

STEPS_PER_WORKER = 6


def busiest_per_step(algorithm, num_workers):
    """(endpoint, bytes per local step) of the busiest endpoint."""
    config = throughput_workload(
        algorithm=algorithm,
        num_workers=num_workers,
        max_updates=STEPS_PER_WORKER * num_workers,
    )
    if algorithm == "ad-psgd":
        result = run_experiment(config, backend="sim")
    else:
        result = run_experiment(config, backend="thread", deterministic=True, timeout=120.0)
    assert result.total_updates == STEPS_PER_WORKER * num_workers
    endpoints = {
        "server": result.comm.get("server_bytes", 0.0),
        "worker": result.comm.get("max_worker_bytes", 0.0),
    }
    busiest = max(endpoints, key=endpoints.get)
    return busiest, endpoints[busiest] / STEPS_PER_WORKER


@pytest.mark.parametrize(
    "algorithm, endpoint, growth",
    [("asgd", "server", 4.0), ("ad-psgd", "worker", 1.0)],
)
def test_busiest_endpoint_traffic_per_step_from_two_to_eight_workers(
    algorithm, endpoint, growth
):
    lo_endpoint, lo = busiest_per_step(algorithm, 2)
    hi_endpoint, hi = busiest_per_step(algorithm, 8)
    assert lo_endpoint == hi_endpoint == endpoint
    assert lo > 0
    # the server's per-step traffic grows with N; a gossip worker's stays flat
    assert hi / lo == pytest.approx(growth, abs=0.01)
