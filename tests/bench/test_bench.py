"""Bench harness: tables, plots, workloads."""

import pytest

from repro.bench import (
    ascii_plot,
    ascii_scatter,
    bench_profile,
    cifar_workload,
    format_table,
    imagenet_workload,
    paper_reference,
)
from repro.bench.workloads import PAPER_OVERHEAD, PAPER_TABLE1


class TestFormatting:
    def test_format_table_alignment(self):
        out = format_table(["a", "bb"], [["x", 1], ["yyyy", 22]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_ascii_plot_contains_markers_and_legend(self):
        out = ascii_plot(
            {"one": ([0, 1, 2], [0.0, 1.0, 0.5]), "two": ([0, 1, 2], [1.0, 0.0, 0.5])},
            width=30,
            height=8,
            title="demo",
        )
        assert "demo" in out
        assert "o=one" in out and "x=two" in out
        assert "o" in out and "x" in out

    def test_ascii_plot_flat_series(self):
        out = ascii_plot({"flat": ([0, 1], [1.0, 1.0])}, width=10, height=4)
        assert "flat" in out

    def test_ascii_plot_empty_raises(self):
        with pytest.raises(ValueError):
            ascii_plot({})

    def test_ascii_scatter(self):
        out = ascii_scatter([1, 2, 3], [1.1, 2.1, 2.9], title="pred")
        assert "actual" in out and "predicted" in out

    def test_ascii_plot_single_point(self):
        # one sample: both axis ranges are degenerate and get padded, the
        # marker still lands inside the canvas
        out = ascii_plot({"dot": ([0.5], [2.0])}, width=12, height=5)
        assert "o" in out
        assert "dot" in out

    def test_ascii_plot_constant_y_across_series(self):
        # every y identical across *all* series: the padded range must not
        # divide by zero, and both markers must render
        out = ascii_plot(
            {"a": ([0, 1], [3.0, 3.0]), "b": ([0, 1], [3.0, 3.0])},
            width=16,
            height=4,
        )
        assert "o" in out and "x" in out

    def test_ascii_plot_empty_arrays_raise(self):
        with pytest.raises(ValueError, match="empty series"):
            ascii_plot({"void": ([], [])})

    def test_ascii_scatter_single_point_and_empty_prediction(self):
        out = ascii_scatter([1.5], [1.4])
        assert "actual" in out
        # a predictor that produced nothing still plots the actuals
        out = ascii_scatter([1.0, 2.0], [])
        assert "actual" in out


class TestWorkloads:
    def test_profile_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_PROFILE", raising=False)
        assert bench_profile() == "fast"
        monkeypatch.setenv("REPRO_BENCH_PROFILE", "full")
        assert bench_profile() == "full"
        monkeypatch.setenv("REPRO_BENCH_PROFILE", "bogus")
        with pytest.raises(ValueError):
            bench_profile()

    def test_cifar_workload_shapes(self):
        cfg = cifar_workload("lc-asgd", 8)
        assert cfg.algorithm == "lc-asgd"
        assert cfg.num_workers == 8
        assert cfg.dataset == "cifar"
        assert cfg.momentum == 0.9

    def test_imagenet_workload(self):
        cfg = imagenet_workload("asgd", 4, bn_mode="replace")
        assert cfg.dataset == "imagenet"
        assert cfg.bn_mode == "replace"
        assert cfg.cluster.mean_batch_time > cifar_workload("asgd", 4).cluster.mean_batch_time

    def test_sgd_workload_single_worker(self):
        assert cifar_workload("sgd", 16).num_workers == 1

    def test_paper_reference_lookup(self):
        assert paper_reference("cifar", 16, "lc-asgd") == pytest.approx(5.52)
        assert paper_reference("cifar", 1, "sgd") == pytest.approx(5.15)
        assert paper_reference("cifar", 2, "asgd") is None

    def test_paper_tables_consistent(self):
        """Sanity on the transcribed paper numbers: LC-ASGD is always the
        best distributed algorithm in Table 1."""
        for dataset in ("cifar", "imagenet"):
            for m in (4, 8, 16):
                lc = PAPER_TABLE1[(dataset, m, "lc-asgd")]
                for algo in ("ssgd", "asgd", "dc-asgd"):
                    assert lc < PAPER_TABLE1[(dataset, m, algo)]

    def test_paper_overhead_shape(self):
        """Paper overhead: ~8% on CIFAR, ~1.5% on ImageNet, growing in M."""
        for m in (4, 8, 16):
            assert PAPER_OVERHEAD[("cifar", m)]["overhead_pct"] > PAPER_OVERHEAD[("imagenet", m)]["overhead_pct"]
        assert PAPER_OVERHEAD[("cifar", 16)]["total_ms"] > PAPER_OVERHEAD[("cifar", 4)]["total_ms"]
