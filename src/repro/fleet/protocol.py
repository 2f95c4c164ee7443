"""Fleet control-frame vocabulary: how a scheduler and an agent talk.

Every fleet frame is a typed :class:`~repro.runtime.wire.ControlFrame`
document riding the same length-prefixed :class:`~repro.runtime.wire.
FrameConnection` framing the proc backend's handshake uses — pickle-free
by construction, version-checked at both layers through the one
:func:`~repro.runtime.wire.check_protocol_version` path (the wire header
carries ``PROTOCOL_VERSION``; every fleet frame carries ``FLEET_VERSION``
as the control version, so a scheduler never feeds jobs to an agent
speaking a different job schema).  The frame types (kind {body})::

    scheduler -> agent   hello {}                    open the session
    agent -> scheduler   welcome {slots, agent}      capacity announcement
    scheduler -> agent   job {id, spec, obs?}        one ExperimentSpec cell
    agent -> scheduler   curve_point {id, point}     streamed evaluation
    agent -> scheduler   trace {id, rows}            the cell's trace rows
    agent -> scheduler   result {id, result}         the finished RunResult
    agent -> scheduler   job_error {id, error, tb}   the cell itself raised
    agent -> scheduler   heartbeat {n}               liveness pulse
    agent -> scheduler   busy {agent}                already serving a peer

``obs`` on a job frame asks the agent to run the cell with a live trace
recorder; the agent then ships the finished trace's encoded rows (the
:func:`repro.obs.events.encode_record` wire format, re-validated against
the event registry on ingestion) in one ``trace`` frame before the
``result``.  Older agents ignore the extra key, so obs campaigns degrade
gracefully on a mixed fleet.

Specs travel as their :meth:`~repro.experiments.spec.ExperimentSpec.
to_dict` document and are rebuilt with :meth:`ExperimentSpec.from_dict`,
which re-derives the content key and refuses a mismatch — a version-skewed
agent cannot silently run a different experiment than the key it reports.

This module owns only the vocabulary (builders + a validating parser);
socket handling lives in :mod:`repro.fleet.agent` and
:mod:`repro.fleet.scheduler`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.core.metrics import RunResult
from repro.experiments.spec import ExperimentSpec
from repro.runtime.wire import ControlFrame
from repro.utils.serialization import to_jsonable

#: bumped whenever the fleet frame schema changes incompatibly; every
#: frame carries it and either side refuses a mismatch.  v2 = frames are
#: ControlFrame documents ({"ctl": kind, "cv": v, "body": {...}}).
FLEET_VERSION = 2


class FleetProtocolError(RuntimeError):
    """A peer sent a frame outside the fleet vocabulary (or a bad version)."""


# ---------------------------------------------------------------------- #
# frame builders (each returns a JSON-able ControlFrame document)
# ---------------------------------------------------------------------- #
def _frame(kind: str, body: Dict[str, Any]) -> Dict[str, Any]:
    return ControlFrame(kind, body, v=FLEET_VERSION).to_doc()


def hello_frame() -> Dict[str, Any]:
    return _frame("hello", {})


def welcome_frame(slots: int, agent: str) -> Dict[str, Any]:
    return _frame("welcome", {"slots": int(slots), "agent": agent})


def busy_frame(agent: str) -> Dict[str, Any]:
    return _frame("busy", {"agent": agent})


def job_frame(job_id: str, spec: ExperimentSpec, obs: bool = False) -> Dict[str, Any]:
    return _frame(
        "job",
        {"id": str(job_id), "spec": to_jsonable(spec.to_dict()), "obs": bool(obs)},
    )


def curve_point_frame(job_id: str, point) -> Dict[str, Any]:
    return _frame("curve_point", {"id": str(job_id), "point": to_jsonable(point.to_dict())})


def trace_frame(job_id: str, rows) -> Dict[str, Any]:
    """The cell's finished trace: encoded event rows, one frame per job."""
    return _frame("trace", {"id": str(job_id), "rows": [list(row) for row in rows]})


def result_frame(job_id: str, result: RunResult) -> Dict[str, Any]:
    return _frame("result", {"id": str(job_id), "result": to_jsonable(result.to_dict())})


def job_error_frame(job_id: str, error: str, tb: str = "") -> Dict[str, Any]:
    return _frame("job_error", {"id": str(job_id), "error": str(error), "traceback": tb})


def heartbeat_frame(n: int) -> Dict[str, Any]:
    return _frame("heartbeat", {"n": int(n)})


#: the vocabulary: kind -> body fields that must be present
_FRAME_KINDS: Dict[str, Tuple[str, ...]] = {
    "hello": (),
    "welcome": ("slots",),
    "busy": (),
    "job": ("id", "spec"),
    "curve_point": ("id", "point"),
    "trace": ("id", "rows"),
    "result": ("id", "result"),
    "job_error": ("id", "error"),
    "heartbeat": (),
}


# ---------------------------------------------------------------------- #
# validating parser
# ---------------------------------------------------------------------- #
def parse_frame(doc: Any) -> Tuple[str, Dict[str, Any]]:
    """Classify one control document as ``(kind, body)``; junk raises.

    Every frame's ``cv`` is checked against :data:`FLEET_VERSION` (the
    single :func:`~repro.runtime.wire.check_protocol_version` path).
    Only structural validation happens here (it is a frame of a known
    type with the fields that type requires); semantic checks — unknown
    job ids, key mismatches — belong to the caller.
    """
    frame = ControlFrame.from_doc(
        doc, expect_version=FLEET_VERSION, label="fleet", error=FleetProtocolError
    )
    required = _FRAME_KINDS.get(frame.kind)
    if required is None:
        raise FleetProtocolError(f"unknown fleet frame kind {frame.kind!r}")
    for key in required:
        if key not in frame.body:
            raise FleetProtocolError(f"{frame.kind} frame without {key!r}: {doc!r}")
    if frame.kind == "job":
        if not isinstance(frame.body["id"], str) or not isinstance(frame.body["spec"], dict):
            raise FleetProtocolError(f"malformed job frame: {doc!r}")
    elif "id" in required and not isinstance(frame.body["id"], str):
        raise FleetProtocolError(f"{frame.kind} frame without a job id: {doc!r}")
    if frame.kind == "welcome" and int(frame.body.get("slots", 0)) < 1:
        raise FleetProtocolError(f"welcome without usable slots: {doc!r}")
    return frame.kind, frame.body


def decode_spec(doc: Dict[str, Any]) -> ExperimentSpec:
    """Rebuild the spec a job frame carries (key-verified)."""
    return ExperimentSpec.from_dict(doc["spec"])


def decode_result(doc: Dict[str, Any]) -> RunResult:
    """Rebuild the RunResult a result frame carries."""
    return RunResult.from_dict(doc["result"])


def parse_agent_addrs(raw: str) -> List[Tuple[str, int]]:
    """``"host:port,host:port"`` -> [(host, port), ...] (CLI --agents)."""
    addrs: List[Tuple[str, int]] = []
    for item in str(raw).split(","):
        item = item.strip()
        if not item:
            continue
        host, sep, port = item.rpartition(":")
        if not sep or not host:
            raise ValueError(f"agent address {item!r} is not host:port")
        try:
            addrs.append((host, int(port)))
        except ValueError:
            raise ValueError(f"agent address {item!r} has a non-integer port")
    if not addrs:
        raise ValueError("no agent addresses given")
    return addrs
