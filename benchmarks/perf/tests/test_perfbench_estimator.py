"""The estimator: medians, failure counting, the timeout path, the window."""

import time
from types import SimpleNamespace

import pytest

from perfbench.calibration import REFERENCE_SECONDS, kernel
from perfbench.estimator import (
    check_sample, hard_timeout, median_iqr, run_repeats, RepeatTimeout,
)
from perfbench.workloads import Sample


def _result(updates=128, losses=(1.0, 0.5), test_error=0.2, stale=1.0):
    curve = [
        SimpleNamespace(epoch=i, train_error=0.3, train_loss=loss, test_error=test_error, test_loss=loss)
        for i, loss in enumerate(losses)
    ]
    return SimpleNamespace(
        algorithm="asgd", backend="sim", num_workers=4, total_updates=updates,
        wall_time=1.0, curve=curve, staleness={"mean": stale},
    )


def _sample(**kwargs):
    return Sample(elapsed=1.25, results=[_result(**kwargs)])


def test_median_iqr_matches_statistics_quantiles():
    med, iqr = median_iqr([1.0, 2.0, 3.0, 4.0, 100.0])
    assert med == 3.0
    assert iqr == pytest.approx(52.0 - 1.5)  # exclusive quartiles of 5 points
    assert median_iqr([7.0]) == (7.0, 0.0)
    with pytest.raises(ValueError):
        median_iqr([])


def test_check_sample_accepts_a_learning_run_and_names_each_defect():
    assert check_sample(_sample(), [128]) == []
    assert "total_updates" in check_sample(_sample(updates=127), [128])[0]
    assert "non-finite" in check_sample(_sample(losses=(1.0, float("nan"))), [128])[0]
    assert "final train loss" in check_sample(_sample(losses=(0.5, 0.9)), [128])[0]
    assert "test error" in check_sample(_sample(test_error=0.6), [128])[0]
    assert "expected 2 result" in check_sample(_sample(), [128, 128])[0]
    # smoke mode keeps only the exact-count and finiteness checks
    assert check_sample(_sample(losses=(0.5, 0.9), test_error=0.9), [128], learning=False) == []
    # a cell shorter than two epochs has no later point to compare with the first
    assert check_sample(_sample(updates=80, losses=(0.5, 0.6)), [80]) == []


def test_raising_repeat_lands_in_failed_and_contributes_no_sample():
    calls = {"n": 0}

    def operation():
        calls["n"] += 1
        if calls["n"] == 3:  # warm-up is call 1, so this is the 2nd timed repeat
            raise RuntimeError("boom")
        return _sample()

    stats = run_repeats(operation, lambda s: [], seconds=0.0, repeats=4)
    assert (stats.attempted, stats.failed, len(stats.repeats)) == (4, 1, 3)
    assert "boom" in stats.failures[0]
    assert stats.series()["updates_per_s"] == [128.0] * 3
    assert stats.series()["setup_s"] == [0.25] * 3
    assert stats.reconciliation_error() == pytest.approx(0.0, abs=1e-12)


def test_failed_check_and_lost_determinism_count_as_failures():
    stats = run_repeats(_sample, lambda s: ["bad output"], seconds=0.0, repeats=2)
    assert (stats.attempted, stats.failed, stats.repeats) == (2, 2, [])

    stale = iter([1.0, 1.0, 2.0])
    stats = run_repeats(
        lambda: _sample(stale=next(stale)), lambda s: [], seconds=0.0, repeats=2, deterministic=True
    )
    assert (stats.attempted, stats.failed) == (2, 1)
    assert "bit-identical" in stats.failures[0]


def test_timeout_fails_the_repeat_and_stops_the_run():
    calls = {"n": 0}

    def operation():
        calls["n"] += 1
        if calls["n"] == 2:
            time.sleep(5.0)
        return _sample()

    begun = time.perf_counter()
    stats = run_repeats(operation, lambda s: [], seconds=0.0, repeats=5, timeout=0.05)
    assert time.perf_counter() - begun < 2.0
    assert (stats.attempted, stats.failed, stats.repeats) == (1, 1, [])
    assert "hard timeout" in stats.failures[0]


def test_hard_timeout_restores_the_previous_handler():
    import signal

    before = signal.getsignal(signal.SIGALRM)
    with pytest.raises(RepeatTimeout):
        with hard_timeout(0.02):
            time.sleep(1.0)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_window_closes_on_the_clock_after_the_minimum_repeats():
    now = {"t": 0.0}

    def operation():
        now["t"] += 1.0  # every repeat "takes" one second
        return _sample()

    stats = run_repeats(operation, lambda s: [], seconds=6.0, clock=lambda: now["t"])
    assert stats.attempted == 6  # a 7th would end further past the deadline than it starts before it
    stats = run_repeats(operation, lambda s: [], seconds=0.5, clock=lambda: now["t"])
    assert stats.attempted == 3  # never fewer than MIN_REPEATS


def test_host_factor_is_the_mean_of_the_kernel_readings_around_each_repeat():
    readings = iter([REFERENCE_SECONDS, 2 * REFERENCE_SECONDS, 2 * REFERENCE_SECONDS])
    stats = run_repeats(
        _sample, lambda s: [], seconds=0.0, repeats=2, calibrate=lambda: next(readings)
    )
    assert [r["host_factor"] for r in stats.repeats] == pytest.approx([1.5, 2.0])
    # a host twice as slow as the reference: rates double, times halve
    assert stats.series()["updates_per_s"] == pytest.approx([192.0, 256.0])
    assert stats.series()["setup_s"] == pytest.approx([0.25 / 1.5, 0.125])
    assert stats.series(normalize=False)["updates_per_s"] == [128.0, 128.0]


def test_a_failed_repeat_does_not_lend_its_stale_reading_to_the_next():
    readings = iter([1.0, 2.0, 2.0, 4.0])
    calls = {"n": 0}

    def operation():
        calls["n"] += 1
        if calls["n"] == 2:  # the first timed repeat raises after reading 1.0
            raise RuntimeError("boom")
        return _sample()

    stats = run_repeats(
        operation, lambda s: [], seconds=0.0, repeats=3, calibrate=lambda: next(readings)
    )
    assert (stats.attempted, stats.failed) == (3, 1)
    assert [r["host_factor"] * REFERENCE_SECONDS for r in stats.repeats] == pytest.approx([2.0, 3.0])


def test_kernel_returns_a_positive_time():
    assert kernel() > 0.0
