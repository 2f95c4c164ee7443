"""Fleet session: how a scheduler and an agent talk.

Every fleet frame is a typed frame from :mod:`repro.runtime.messages` on
the same derived codec and length-prefixed :class:`~repro.runtime.wire.
FrameConnection` framing as the proc backend — pickle-free by
construction, decoded strictly, and version-checked once, in the header
(``PROTOCOL_VERSION``), so a scheduler never feeds jobs to an agent
speaking a different schema.  The session::

    scheduler -> agent   FleetHello()                  open the session
    agent -> scheduler   Welcome(slots, agent)         capacity announcement
    scheduler -> agent   Job(id, spec, obs)            one ExperimentSpec cell
    agent -> scheduler   JobCurvePoint(id, point)      streamed evaluation
    agent -> scheduler   JobTrace(id, rows)            the cell's trace rows
    agent -> scheduler   JobResult(id, result)         the finished RunResult
    agent -> scheduler   JobError(id, error, tb)       the cell itself raised
    either direction     Heartbeat(n)                  liveness pulse
    agent -> scheduler   Busy(agent)                   already serving a peer

``obs`` on a job asks the agent to run the cell with a live trace
recorder; the agent then ships the finished trace's encoded rows (the
:func:`repro.obs.events.encode_record` wire format, re-validated against
the event registry on ingestion) in one :class:`~repro.runtime.messages.
JobTrace` before the result.

Specs, curve points and results travel as JSON-able documents (``dict``
fields, made JSON-able with :func:`~repro.utils.serialization.
to_jsonable`).  A spec is rebuilt with :meth:`~repro.experiments.spec.
ExperimentSpec.from_dict`, which re-derives the content key and refuses a
mismatch — a version-skewed agent cannot silently run a different
experiment than the key it reports.

Socket handling lives in :mod:`repro.fleet.agent` and
:mod:`repro.fleet.scheduler`; this module keeps the session's error type
and the roster parser.
"""

from __future__ import annotations

from typing import List, Tuple


class FleetProtocolError(RuntimeError):
    """A peer sent a frame that does not belong at this point of the session."""


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
