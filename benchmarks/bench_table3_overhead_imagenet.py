"""Table 3: per-iteration predictor overhead on ImageNet.

Same semantics as Table 2 (see bench_table2_overhead_cifar.py); the paper's
key observation is that against ImageNet's ~185 ms iterations the same
predictors cost only ~1.5% — the overhead is model-size-relative, so the
heavier the worker model, the more negligible LC-ASGD's server cost.
As in Table 2, one more row runs the paper's own predictor width at M = 16.
"""

from repro.bench import format_table
from repro.bench.workloads import PAPER_OVERHEAD, imagenet_workload

from benchmarks.conftest import (
    PAPER_WIDTH_BUDGET_MS,
    PREDICTOR_BUDGET_MS,
    WORKER_COUNTS,
    imagenet_curves,
    overhead_row,
    paper_width_run,
)


def test_table3_overhead_imagenet(benchmark):
    results = benchmark.pedantic(imagenet_curves, rounds=1, iterations=1)
    wide = paper_width_run(imagenet_workload)

    def total_ms(m):
        return imagenet_workload("lc-asgd", m).cluster.mean_batch_time * 1e3

    rows = [
        overhead_row(m, results[("lc-asgd", m)], total_ms(m), PAPER_OVERHEAD[("imagenet", m)])
        for m in WORKER_COUNTS
    ]
    rows.append(overhead_row("16, paper width", wide, total_ms(16), PAPER_OVERHEAD[("imagenet", 16)]))
    print()
    print(format_table(
        ["M", "loss ms", "(paper)", "step ms", "(paper)", "both ms", "(paper)", "total ms", "(paper)", "overhead", "(paper)"],
        rows,
        title="Table 3: predictor overhead per training iteration (ImageNet)",
    ))

    # The paper's structural claim: ImageNet-scale iterations make the same
    # predictor cost a much smaller fraction than on CIFAR (~6x batch time).
    cifar_results = None
    try:
        from benchmarks.conftest import _CACHE

        cifar_results = _CACHE.get("cifar-curves")
    except ImportError:  # pragma: no cover
        pass
    for m in WORKER_COUNTS:
        run = results[("lc-asgd", m)]
        combined = run.timers["loss_pred_ms"] + run.timers["step_pred_ms"]
        assert 0 < combined < PREDICTOR_BUDGET_MS, f"predictors cost {combined:.2f} ms per update"
        if cifar_results is not None:
            cifar_total = 30.0
            imagenet_total = 180.0
            cifar_run = cifar_results[("lc-asgd", m)]
            cifar_overhead = (
                cifar_run.timers["loss_pred_ms"] + cifar_run.timers["step_pred_ms"]
            ) / cifar_total
            assert combined / imagenet_total < cifar_overhead + 0.05
    combined = wide.timers["loss_pred_ms"] + wide.timers["step_pred_ms"]
    assert 0 < combined < PAPER_WIDTH_BUDGET_MS, f"paper-width predictors cost {combined:.2f} ms"
