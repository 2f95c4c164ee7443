"""Figure 5: error vs epoch on ImageNet (ResNet-50 in the paper).

Paper: SSGD/ASGD/DC-ASGD/LC-ASGD (no sequential SGD — "training with the
sequential method takes too long"), M in {4, 8, 16}.  Here: the harder
27-class ImageNet stand-in.
"""

from repro.bench import ascii_plot, format_table
from repro.bench.workloads import paper_reference

from benchmarks.conftest import IMAGENET_ALGOS, WORKER_COUNTS, imagenet_curves


def test_fig5_error_vs_epoch(benchmark):
    results = benchmark.pedantic(imagenet_curves, rounds=1, iterations=1)

    for m in WORKER_COUNTS:
        series = {
            algo: (results[(algo, m)].epochs(), results[(algo, m)].series("test_error"))
            for algo in IMAGENET_ALGOS
        }
        print()
        print(ascii_plot(series, title=f"Figure 5 (M={m}): test error vs epoch (ImageNet stand-in)",
                         xlabel="epoch", ylabel="top-1 test error"))

    rows = []
    for algo in IMAGENET_ALGOS:
        for m in WORKER_COUNTS:
            run = results[(algo, m)]
            ref = paper_reference("imagenet", m, algo)
            rows.append([algo, m, f"{100*run.final_test_error:.2f}", f"{ref}"])
    print(format_table(["algorithm", "M", "measured err %", "paper err %"], rows,
                       title="Figure 5 summary"))

    chance = 1.0 - 1.0 / 27.0
    for (algo, m), run in results.items():
        # everyone learned: clearly better than the 96% chance floor.  SSGD
        # at M=16 gets only 1/16 as many updates per epoch, so its bar is
        # looser (the budget collapse is itself a paper-consistent result).
        margin = 0.1 if algo == "ssgd" and m == 16 else 0.2
        assert run.final_test_error < chance - margin, (algo, m)
    # compensation keeps M=16 competitive with plain ASGD (tolerance 2 pts)
    asgd16 = results[("asgd", 16)].final_test_error
    assert results[("lc-asgd", 16)].final_test_error < asgd16 + 0.02
