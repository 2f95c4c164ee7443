"""Span bookkeeping: self time, cross-thread spans, and clean removal."""

import sys
import threading
import types

import pytest

from perfbench.spans import Span, TARGETS, Tracer, covered_seconds, self_times


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span(0, "outer", 1, 0.0, 10.0, -1),
        Span(1, "mid", 1, 1.0, 7.0, 0),
        Span(2, "leaf", 1, 2.0, 4.0, 1),
        Span(3, "leaf", 1, 5.0, 6.0, 1),
        # another thread, overlapping "outer" in time: not its child
        Span(4, "leaf", 2, 0.0, 9.0, -1),
    ]
    totals = self_times(spans)
    assert totals["outer"] == (1, pytest.approx(4.0))  # 10 - mid's 6, not minus the leaves
    assert totals["mid"] == (1, pytest.approx(3.0))
    assert totals["leaf"] == (3, pytest.approx(2.0 + 1.0 + 9.0))


def test_covered_seconds_merges_root_spans_across_threads():
    spans = [
        Span(0, "a", 1, 0.0, 4.0, -1),
        Span(1, "b", 2, 3.0, 6.0, -1),
        Span(2, "child", 1, 1.0, 2.0, 0),
        Span(3, "c", 1, 8.0, 12.0, -1),
    ]
    assert covered_seconds(spans, 0.0, 10.0) == pytest.approx(6.0 + 2.0)


def test_wrappers_nest_per_thread_and_record_on_exceptions():
    tracer = Tracer()
    started, release = threading.Event(), threading.Event()

    def blocked():
        started.set()
        release.wait(timeout=5.0)

    other = threading.Thread(target=tracer.wrap("other", blocked))
    inner = tracer.wrap("inner", lambda: None)

    def outer_body():
        other.start()
        assert started.wait(timeout=5.0)
        inner()
        release.set()
        other.join(timeout=5.0)
        raise KeyError("still recorded")

    with pytest.raises(KeyError):
        tracer.wrap("outer", outer_body)()
    assert not other.is_alive()
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["inner"].parent == by_name["outer"].id
    assert by_name["other"].parent == -1  # opened on its own thread
    assert by_name["other"].thread != by_name["outer"].thread


def test_install_patches_methods_classmethods_and_imported_names_then_restores_all():
    origin = types.ModuleType("repro._perfbench_origin")
    alias = types.ModuleType("repro._perfbench_alias")

    def helper():
        return "helped"

    class Thing:
        def method(self):
            return helper()

        @classmethod
        def make(cls):
            return cls()

    origin.helper, origin.Thing = helper, Thing
    alias.helper = helper  # ``from origin import helper``
    sys.modules[origin.__name__] = origin
    sys.modules[alias.__name__] = alias
    before = (vars(Thing)["method"], vars(Thing)["make"])
    tracer = Tracer()
    try:
        tracer.install({
            "t.method": ((origin.__name__, "Thing.method"),),
            "t.make": ((origin.__name__, "Thing.make"),),
            "t.helper": ((origin.__name__, "helper"),),
        })
        assert alias.helper is origin.helper is not helper
        assert isinstance(Thing.make(), Thing)
        assert alias.helper() == "helped"
    finally:
        tracer.uninstall()
        del sys.modules[origin.__name__], sys.modules[alias.__name__]
    assert (vars(Thing)["method"], vars(Thing)["make"]) == before
    assert origin.helper is helper and alias.helper is helper
    assert sorted(s.name for s in tracer.spans) == ["t.helper", "t.make"]


def test_every_declared_target_resolves_and_is_fully_removed_after_a_traced_call():
    import importlib

    def bindings():
        found = []
        for sites in TARGETS.values():
            for module_name, path in sites:
                owner = importlib.import_module(module_name)
                *cls, attr = path.split(".")
                if cls:
                    owner = getattr(owner, cls[0])
                found.append(vars(owner)[attr])
        return found

    before = bindings()
    tracer = Tracer()
    tracer.install()
    try:
        from repro.runtime.transport import Mailbox
        from repro.runtime.messages import PullRequest

        box = Mailbox()
        box.put(PullRequest(0))
        box.get()
        assert all(new is not old for new, old in zip(bindings(), before))
    finally:
        tracer.uninstall()
    assert all(new is old for new, old in zip(bindings(), before))
    assert [s.name for s in tracer.spans] == ["runtime.transport.mailbox_get"]
