"""Figure 2: DC-ASGD's test error degrades as the worker count grows.

Paper: ResNet-18 / CIFAR-10, DC-ASGD with 4/8/16 workers vs sequential SGD;
the error rises visibly with the number of workers.  Here: the CIFAR
stand-in workload (``repro.data.synthetic`` gives the rationale).
"""

from repro.bench import ascii_plot, format_table
from repro.bench.workloads import paper_reference

from benchmarks.conftest import WORKER_COUNTS, cifar_curves


def test_fig2_dcasgd_vs_workers(benchmark):
    results = benchmark.pedantic(cifar_curves, rounds=1, iterations=1)

    series = {"SGD": (results[("sgd", 1)].epochs(), results[("sgd", 1)].series("test_error"))}
    for m in WORKER_COUNTS:
        run = results[("dc-asgd", m)]
        series[f"DC-ASGD-{m}"] = (run.epochs(), run.series("test_error"))
    print()
    print(ascii_plot(series, title="Figure 2: DC-ASGD test error vs epoch (CIFAR stand-in)",
                     xlabel="epoch", ylabel="test error"))

    rows = []
    sgd_err = results[("sgd", 1)].final_test_error
    rows.append(["SGD", 1, f"{100*sgd_err:.2f}", "5.15"])
    for m in WORKER_COUNTS:
        err = results[("dc-asgd", m)].final_test_error
        rows.append([f"DC-ASGD", m, f"{100*err:.2f}", f"{paper_reference('cifar', m, 'dc-asgd')}"])
    print(format_table(["algorithm", "M", "measured err %", "paper err %"], rows,
                       title="Figure 2 summary (absolute scales differ; shape is the claim)"))

    # Shape assertions: every run converged far below the 90% chance level,
    # and the M=16 configuration does not beat sequential SGD by a margin
    # (the degradation-with-M premise that motivates LC-ASGD).
    for m in WORKER_COUNTS:
        assert results[("dc-asgd", m)].final_test_error < 0.6
    assert results[("dc-asgd", 16)].final_test_error > sgd_err - 0.06
