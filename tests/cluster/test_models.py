"""Compute/network models: distributions, heterogeneity, stragglers, trace."""

import numpy as np
import pytest

from repro.cluster.network import LinkModel, NetworkModel
from repro.cluster.node import ComputeModel, StragglerModel
from repro.cluster.trace import ClusterTrace


class TestLinkModel:
    def test_deterministic_without_jitter(self):
        link = LinkModel(base_latency=0.01, bandwidth=1e6, jitter_sigma=0.0)
        rng = np.random.default_rng(0)
        assert link.transfer_time(1e6, rng) == pytest.approx(0.01 + 1.0)

    def test_jitter_varies(self):
        link = LinkModel(base_latency=0.01, bandwidth=1e9, jitter_sigma=0.5)
        rng = np.random.default_rng(0)
        times = {link.transfer_time(0, rng) for _ in range(10)}
        assert len(times) > 1

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkModel(base_latency=-1)
        with pytest.raises(ValueError):
            LinkModel(bandwidth=0)
        link = LinkModel()
        with pytest.raises(ValueError):
            link.transfer_time(-5, np.random.default_rng(0))


class TestNetworkModel:
    def test_per_worker_heterogeneity(self):
        net = NetworkModel(8, LinkModel(base_latency=0.01), heterogeneity=0.5, seed=0)
        latencies = {net.link(w).base_latency for w in range(8)}
        assert len(latencies) > 1
        for lat in latencies:
            assert 0.005 <= lat <= 0.015

    def test_homogeneous_by_default(self):
        net = NetworkModel(4, LinkModel(base_latency=0.01), seed=0)
        assert {net.link(w).base_latency for w in range(4)} == {0.01}

    def test_worker_range_check(self):
        net = NetworkModel(2, seed=0)
        with pytest.raises(ValueError):
            net.transfer_time(5, 100)

    def test_deterministic_per_seed(self):
        a = NetworkModel(2, LinkModel(jitter_sigma=0.3), seed=1)
        b = NetworkModel(2, LinkModel(jitter_sigma=0.3), seed=1)
        for _ in range(5):
            assert a.transfer_time(0, 100) == b.transfer_time(0, 100)

    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkModel(0)
        with pytest.raises(ValueError):
            NetworkModel(2, heterogeneity=1.5)


class TestStraggler:
    def test_disabled_by_default(self):
        s = StragglerModel()
        rng = np.random.default_rng(0)
        assert all(s.factor(rng) == 1.0 for _ in range(20))

    def test_frequency_roughly_matches(self):
        s = StragglerModel(probability=0.3, slowdown=5.0)
        rng = np.random.default_rng(0)
        hits = sum(s.factor(rng) > 1.0 for _ in range(2000))
        assert 0.25 < hits / 2000 < 0.35

    def test_validation(self):
        with pytest.raises(ValueError):
            StragglerModel(probability=2.0)
        with pytest.raises(ValueError):
            StragglerModel(probability=0.1, slowdown=0.5)


class TestComputeModel:
    def test_mean_duration_scale(self):
        model = ComputeModel(1, mean_batch_time=0.1, heterogeneity=0.0, jitter_sigma=0.0, seed=0)
        assert model.duration(0) == pytest.approx(0.1)
        assert model.duration(0, fraction=0.5) == pytest.approx(0.05)

    def test_heterogeneity_persistent(self):
        model = ComputeModel(8, heterogeneity=0.4, jitter_sigma=0.0, seed=0)
        factors = [model.speed_factor(w) for w in range(8)]
        assert len(set(factors)) > 1
        assert all(0.6 <= f <= 1.4 for f in factors)
        # persistent: duration ratio matches the factor exactly (no jitter)
        d0 = model.duration(0)
        assert d0 == pytest.approx(0.03 * factors[0])

    def test_straggler_injection(self):
        model = ComputeModel(
            1,
            heterogeneity=0.0,
            jitter_sigma=0.0,
            straggler=StragglerModel(probability=1.0, slowdown=4.0),
            seed=0,
        )
        assert model.duration(0) == pytest.approx(0.03 * 4.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ComputeModel(0)
        with pytest.raises(ValueError):
            ComputeModel(2, mean_batch_time=0)
        model = ComputeModel(2, seed=0)
        with pytest.raises(ValueError):
            model.duration(5)
        with pytest.raises(ValueError):
            model.duration(0, fraction=0)


class TestTrace:
    def test_staleness_stats(self):
        trace = ClusterTrace()
        for i, k in enumerate((0, 2, 4)):
            trace.record(i % 2, k)
        stats = trace.staleness_stats()
        assert stats["mean"] == pytest.approx(2.0)
        assert stats["max"] == 4
        assert stats["count"] == 3

    def test_empty_stats(self):
        assert ClusterTrace().staleness_stats()["count"] == 0

    def test_finishing_order_and_counts(self):
        trace = ClusterTrace()
        for w in (1, 0, 1):
            trace.record(w, 0)
        assert trace.finishing_order() == [1, 0, 1]
        assert trace.updates_per_worker() == {1: 2, 0: 1}
