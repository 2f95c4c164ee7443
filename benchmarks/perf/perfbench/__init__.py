"""perfbench — the repo's performance benchmark (see ../README.md).

Everything here measures ``repro`` from outside, by timing calls into its
public functions; nothing under ``src/`` knows this package exists.

* :mod:`perfbench.workloads` — the four pinned workloads.
* :mod:`perfbench.estimator` — warm-up + repeats, medians, failure counting.
* :mod:`perfbench.spans` — wrappers that record spans around public callables.
* :mod:`perfbench.layer_ops` — direct timed calls into single layers.
* :mod:`perfbench.manifest` — metric names, units, bounds (mirrors BENCHMARK.json).
* :mod:`perfbench.report` — result files, environment stamp, ``compare``.
"""
