"""Timer accumulation semantics."""

from repro.utils.timer import Timer


def test_timer_accumulates_sections():
    t = Timer()
    with t.section("a"):
        pass
    with t.section("a"):
        pass
    assert t.count("a") == 2
    assert t.total("a") >= 0.0


def test_timer_unknown_name_zero():
    t = Timer()
    assert t.total("nope") == 0.0
    assert t.count("nope") == 0


def test_timer_add_and_names():
    t = Timer()
    t.add("x", 1.0)
    t.add("y", 2.0)
    t.add("x", 3.0)
    assert t.totals() == {
        "x": {"total_s": 4.0, "count": 2.0},
        "y": {"total_s": 2.0, "count": 1.0},
    }


def test_timer_merge_adds_another_timers_totals_and_counts():
    child = Timer()
    child.add("worker-compute", 0.5)
    child.add("worker-compute", 0.25)
    t = Timer()
    t.add("worker-compute", 1.0)
    t.merge(child.totals())
    assert t.total("worker-compute") == 1.75
    assert t.count("worker-compute") == 3
