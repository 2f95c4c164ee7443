"""Gossip scaling: traffic through the busiest endpoint vs cluster size.

AD-PSGD's headline systems claim (Lian et al. 2018) is that removing the
parameter server removes the O(N) hot spot: every worker averages with one
neighbor per step, so the traffic any single endpoint moves *per local
step* stays flat as workers are added, while a server-based algorithm
funnels every worker's pull+push through one process whose per-round
traffic grows linearly with N.

Both sides run the same fixed-steps-per-worker workload on deterministic
runtimes (round-robin thread backend for asgd, gossip sim for ad-psgd) so
the byte counters — real message sizes counted at the transports — are
reproducible and the committed baseline in ``BENCH_gossip_scaling.json``
is stable.
"""

import time

from repro.bench import format_table, record_trajectory
from repro.bench.workloads import throughput_workload
from repro.runtime import run_experiment

WORKER_COUNTS = (2, 4, 8)
STEPS_PER_WORKER = 24


def _busiest_endpoint(comm):
    """(label, bytes) of the endpoint that moved the most traffic."""
    candidates = {
        "server": comm.get("server_bytes", 0.0),
        "worker": comm.get("max_worker_bytes", 0.0),
    }
    label = max(candidates, key=candidates.get)
    return label, candidates[label]


def _measure(algorithm: str, num_workers: int):
    config = throughput_workload(
        algorithm=algorithm,
        num_workers=num_workers,
        max_updates=STEPS_PER_WORKER * num_workers,
    )
    backend = "sim" if algorithm == "ad-psgd" else "thread"
    options = {} if algorithm == "ad-psgd" else {"deterministic": True}
    start = time.perf_counter()
    result = run_experiment(config, backend=backend, **options)
    elapsed = time.perf_counter() - start
    label, busiest = _busiest_endpoint(result.comm)
    per_step = busiest / (result.total_updates / num_workers)
    return {
        "result": result,
        "wall": elapsed,
        "endpoint": label,
        "busiest_bytes": busiest,
        "per_step_bytes": per_step,
    }


def test_gossip_scaling(benchmark):
    def run_all():
        return {
            (algo, n): _measure(algo, n)
            for algo in ("asgd", "ad-psgd")
            for n in WORKER_COUNTS
        }

    cells = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = []
    for algo in ("asgd", "ad-psgd"):
        for n in WORKER_COUNTS:
            cell = cells[(algo, n)]
            rows.append([
                algo,
                n,
                cell["endpoint"],
                f"{cell['per_step_bytes'] / 1024:.1f}",
                f"{cell['busiest_bytes'] / 1024:.0f}",
                f"{cell['wall']:.2f}",
            ])
    print()
    print(format_table(
        ["algorithm", "workers", "busiest", "KiB/step @ busiest", "KiB total", "wall s"],
        rows,
        title=f"Busiest-endpoint traffic per local step ({STEPS_PER_WORKER} steps/worker)",
    ))

    lo, hi = WORKER_COUNTS[0], WORKER_COUNTS[-1]
    for algo in ("asgd", "ad-psgd"):
        for n in WORKER_COUNTS:
            result = cells[(algo, n)]["result"]
            assert result.total_updates == STEPS_PER_WORKER * n
            assert cells[(algo, n)]["busiest_bytes"] > 0
    # the server is always the asgd hot spot, and its per-round traffic
    # grows with N; the gossip hot spot is just some worker, and stays flat
    assert all(cells[("asgd", n)]["endpoint"] == "server" for n in WORKER_COUNTS)
    assert all(cells[("ad-psgd", n)]["endpoint"] == "worker" for n in WORKER_COUNTS)
    server_growth = (
        cells[("asgd", hi)]["per_step_bytes"] / cells[("asgd", lo)]["per_step_bytes"]
    )
    gossip_growth = (
        cells[("ad-psgd", hi)]["per_step_bytes"]
        / cells[("ad-psgd", lo)]["per_step_bytes"]
    )
    assert server_growth > 2.5, f"server traffic should scale with N: {server_growth:.2f}"
    assert gossip_growth < 1.5, f"gossip traffic should stay flat: {gossip_growth:.2f}"

    record_trajectory("gossip_scaling", {
        **{
            f"{algo.replace('-', '_')}_per_step_kib_n{n}":
                cells[(algo, n)]["per_step_bytes"] / 1024
            for algo in ("asgd", "ad-psgd")
            for n in WORKER_COUNTS
        },
        "server_growth_x": server_growth,
        "gossip_growth_x": gossip_growth,
    })
