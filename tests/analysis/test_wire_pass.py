"""wire-completeness pass on synthetic handshake/protocol fixtures."""

from __future__ import annotations

from repro.analysis import run_passes


def test_fleet_kind_built_but_not_parseable(make_fixture_tree):
    root = make_fixture_tree(
        {
            "fleet/protocol.py": """\
            _FRAME_KINDS = {"hello": (), "welcome": ()}


            def _frame(kind, **fields):
                return {"kind": kind, **fields}


            def hello_frame():
                return _frame("hello")


            def welcome_frame():
                return _frame("welcome")


            def rogue_frame():
                return _frame("rogue")
            """
        }
    )
    findings = run_passes(root, rules=["wire"])
    assert len(findings) == 1
    assert "'rogue'" in findings[0].message and "missing from" in findings[0].message


def test_fleet_kind_parseable_but_never_built(make_fixture_tree):
    root = make_fixture_tree(
        {
            "fleet/protocol.py": """\
            _FRAME_KINDS = {"hello": (), "zombie": ()}


            def _frame(kind, **fields):
                return {"kind": kind, **fields}


            def hello_frame():
                return _frame("hello")
            """
        }
    )
    findings = run_passes(root, rules=["wire"])
    assert len(findings) == 1
    assert "'zombie'" in findings[0].message and "no builder" in findings[0].message


def test_proc_handshake_kind_sent_but_never_examined(make_fixture_tree):
    root = make_fixture_tree(
        {
            "runtime/proc_worker.py": """\
            def handshake(conn):
                conn.send_control(ControlFrame("hello", {}))
                conn.send_control(ControlFrame("surprise", {}))
            """,
            "runtime/proc_backend.py": """\
            def accept(frame):
                if frame.kind == "hello":
                    return True
                return False
            """,
        }
    )
    findings = run_passes(root, rules=["wire"])
    assert len(findings) == 1
    assert findings[0].path == "runtime/proc_worker.py"
    assert "'surprise'" in findings[0].message
