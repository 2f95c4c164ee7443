"""wire-completeness pass on synthetic endpoint fixtures."""

from __future__ import annotations

from repro.analysis import run_passes

MESSAGES = """\
from dataclasses import dataclass


@dataclass(frozen=True)
class Frame:
    pass


@dataclass(frozen=True)
class Message(Frame):
    worker: int


@dataclass(frozen=True)
class PullRequest(Message):
    pass


@dataclass(frozen=True)
class Hello(Frame):
    worker: int


@dataclass(frozen=True)
class Surprise(Frame):
    pass


@dataclass(frozen=True)
class Welcome(Frame):
    slots: int


@dataclass(frozen=True)
class Heartbeat(Frame):
    n: int
"""


def test_proc_handshake_kind_sent_but_never_examined(make_fixture_tree):
    root = make_fixture_tree(
        {
            "runtime/messages.py": MESSAGES,
            "runtime/proc_worker.py": """\
            def handshake(conn):
                conn.send_message(Hello(0))
                conn.send_message(Surprise())
                conn.send_message(PullRequest(0))  # a Message: the cycle's, not the pass's
            """,
            "runtime/proc_backend.py": """\
            def accept(frame):
                if isinstance(frame, Hello):
                    return True
                return False
            """,
        }
    )
    findings = run_passes(root, rules=["wire"])
    assert len(findings) == 1
    assert findings[0].path == "runtime/proc_worker.py"
    assert findings[0].line == 3
    assert "Surprise" in findings[0].message
    assert "runtime/proc_backend.py" in findings[0].message


def test_fleet_frame_built_by_the_agent_but_never_examined(make_fixture_tree):
    root = make_fixture_tree(
        {
            "runtime/messages.py": MESSAGES,
            "fleet/agent.py": """\
            from repro.runtime import messages


            def serve(conn, frame):
                if type(frame) is Heartbeat:
                    return
                conn.send_message(messages.Welcome(2))
                conn.send_message(Heartbeat(1))
            """,
            "fleet/scheduler.py": """\
            def pulse(conn):
                conn.send_message(Heartbeat(1))


            def on_frame(frame):
                return isinstance(frame, (Heartbeat, Hello))
            """,
        }
    )
    findings = run_passes(root, rules=["wire"])
    assert len(findings) == 1
    assert findings[0].path == "fleet/agent.py"
    assert "Welcome" in findings[0].message
    assert "fleet/scheduler.py" in findings[0].message
