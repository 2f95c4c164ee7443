"""Virtual-time simulator semantics: ``schedule`` and ``step``.

Events run in ``(time, insertion order)`` order (hypothesis-verified).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.simulator import Simulator


def run_all(sim):
    while sim.step():
        pass


def test_clock_advances_monotonically():
    sim = Simulator()
    seen = []
    sim.schedule(2.0, lambda: seen.append(sim.now))
    sim.schedule(1.0, lambda: seen.append(sim.now))
    run_all(sim)
    assert seen == [1.0, 2.0]
    assert sim.now == 2.0


def test_step_runs_one_event_and_reports_an_empty_queue():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, lambda: seen.append(1))
    sim.schedule(2.0, lambda: seen.append(2))
    assert sim.step() and seen == [1] and sim.now == 1.0
    assert sim.step() and seen == [1, 2] and sim.now == 2.0
    assert not sim.step()
    assert sim.now == 2.0 and sim.processed_events == 2


def test_nested_scheduling():
    sim = Simulator()
    seen = []

    def first():
        seen.append(("first", sim.now))
        sim.schedule(0.5, lambda: seen.append(("second", sim.now)))

    sim.schedule(1.0, first)
    run_all(sim)
    assert seen == [("first", 1.0), ("second", 1.5)]


def test_schedule_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-1.0, lambda: None)
    sim.schedule(1.0, lambda: None)
    run_all(sim)
    with pytest.raises(ValueError):
        sim.schedule(-0.5, lambda: None)


def test_processed_events_counter():
    sim = Simulator()
    for t in range(5):
        sim.schedule(float(t), lambda: None)
    run_all(sim)
    assert sim.processed_events == 5


def test_zero_delay_runs_at_current_time():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, lambda: sim.schedule(0.0, lambda: seen.append(sim.now)))
    run_all(sim)
    assert seen == [1.0]


def test_orders_by_time():
    sim = Simulator()
    order = []
    sim.schedule(3.0, lambda: order.append("c"))
    sim.schedule(1.0, lambda: order.append("a"))
    sim.schedule(2.0, lambda: order.append("b"))
    run_all(sim)
    assert order == ["a", "b", "c"]


def test_ties_broken_by_insertion_order():
    sim = Simulator()
    order = []
    for name in "abcde":
        sim.schedule(1.0, lambda n=name: order.append(n))
    run_all(sim)
    assert order == list("abcde")


def test_negative_delay_refused_and_nothing_scheduled():
    sim = Simulator()
    with pytest.raises(ValueError, match="delay must be >= 0"):
        sim.schedule(-1e-9, lambda: None)
    assert not sim.step() and sim.processed_events == 0


@given(st.lists(st.floats(0.0, 1e6, allow_nan=False), min_size=1, max_size=200))
@settings(max_examples=50, deadline=None)
def test_step_order_is_sorted_stable(delays):
    """Events run sorted by time; equal times keep insertion order."""
    sim = Simulator()
    ran = []
    for i, delay in enumerate(delays):
        sim.schedule(delay, lambda i=i: ran.append((sim.now, i)))
    run_all(sim)
    assert ran == sorted((delay, i) for i, delay in enumerate(delays))
    assert sim.processed_events == len(delays)
