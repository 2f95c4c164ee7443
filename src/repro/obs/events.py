"""The trace event registry: every kind the observability layer may emit.

One table — :data:`EVENT_KINDS` — is the single source of truth for what a
:class:`~repro.obs.recorder.TraceRecorder` accepts, what the JSONL trace
format contains, and what crosses the wire inside a proc child's
:class:`~repro.runtime.messages.RunEnd` or a fleet agent's
:class:`~repro.runtime.messages.JobTrace`.
Each kind declares its payload fields *in order*; that order IS the wire
codec: a record encodes as the JSON array

    [t, kind, worker, field_1, field_2, ...]

so decoding needs nothing but this registry, and two runs that emit the
same events produce byte-identical JSONL (the sim bit-reproducibility
guarantee).  The ``trace`` analysis pass
(:mod:`repro.analysis.passes.trace`) statically checks that every
``recorder.emit(...)`` call site in the package names a registered kind
with exactly the declared fields, and that every registry entry carries a
docstring — an unregistered or misspelled event kind is a lint failure,
not a runtime surprise.

Field values must be wire-safe scalars (int/float/str/bool); anything
bulkier belongs in a Message payload, not a trace event.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

#: trace format version stamped into every JSONL meta line
TRACE_VERSION = 1


@dataclass(frozen=True)
class EventKind:
    """One registered trace event kind: its meaning and payload layout."""

    name: str
    doc: str
    fields: Tuple[str, ...]


# NOTE: keep this a plain dict literal of EventKind(...) literals — the
# trace analysis pass reads it from the AST without importing the package.
EVENT_KINDS: Dict[str, EventKind] = {
    "span": EventKind(
        name="span",
        doc="A timed phase: dur_ms spent in `phase` (compute/encode/wire/"
            "decode/apply or a Timer section) ending at trace time t.",
        fields=("phase", "dur_ms"),
    ),
    "staleness": EventKind(
        name="staleness",
        doc="One staleness sample, emitted where dispatch logs an applied "
            "update (gossip reports included) — the same site that feeds "
            "RunResult.staleness, so trace histograms match it exactly.",
        fields=("value", "version"),
    ),
    "queue_depth": EventKind(
        name="queue_depth",
        doc="Depth of a named mailbox/inbox observed as a message was "
            "enqueued — the backpressure signal of the async runtimes.",
        fields=("queue", "depth"),
    ),
    "wire_bytes": EventKind(
        name="wire_bytes",
        doc="One transport send: logical (pre-codec) vs wire (post-codec) "
            "bytes in the given direction (up=worker->server, "
            "down=server->worker, peer=worker->worker).",
        fields=("direction", "logical", "wire"),
    ),
    "pairing_wait": EventKind(
        name="pairing_wait",
        doc="A gossip worker's wait on the PairingBoard: dur_ms parked "
            "before being matched with `partner` (-1 = released unmatched "
            "at shutdown).",
        fields=("dur_ms", "partner"),
    ),
    "heartbeat": EventKind(
        name="heartbeat",
        doc="A fleet liveness pulse observed by the scheduler from `peer` "
            "(its n-th), proving the agent host is alive.",
        fields=("peer", "n"),
    ),
    "requeue": EventKind(
        name="requeue",
        doc="The fleet scheduler requeued job `job` after agent `peer` "
            "died — host death is never charged to the cell.",
        fields=("job", "peer"),
    ),
    "mark": EventKind(
        name="mark",
        doc="A freeform annotation (run/phase boundaries, notes) with a "
            "human-readable label.",
        fields=("label",),
    ),
}


def encode_record(t: float, kind: str, worker: int, fields: Dict[str, Any]) -> List[Any]:
    """One record as its wire row ``[t, kind, worker, *fields-in-order]``."""
    info = EVENT_KINDS.get(kind)
    if info is None:
        raise ValueError(
            f"unregistered trace event kind {kind!r} "
            f"(registered: {', '.join(sorted(EVENT_KINDS))})"
        )
    try:
        values = [fields[name] for name in info.fields]
    except KeyError:
        raise ValueError(
            f"trace event {kind!r} expects fields {info.fields}, "
            f"got {tuple(sorted(fields))}"
        )
    if len(fields) != len(info.fields):
        raise ValueError(
            f"trace event {kind!r} expects fields {info.fields}, "
            f"got {tuple(sorted(fields))}"
        )
    return [t, kind, worker] + values


def decode_record(row: Sequence[Any]) -> "TraceRecord":
    """Inverse of :func:`encode_record` (raises on malformed rows)."""
    if len(row) < 3:
        raise ValueError(f"malformed trace row (need [t, kind, worker, ...]): {row!r}")
    t, kind, worker = float(row[0]), str(row[1]), int(row[2])
    info = EVENT_KINDS.get(kind)
    if info is None:
        raise ValueError(f"unregistered trace event kind in row: {kind!r}")
    values = row[3:]
    if len(values) != len(info.fields):
        raise ValueError(
            f"trace row for {kind!r} carries {len(values)} field(s), "
            f"expected {len(info.fields)}: {row!r}"
        )
    return TraceRecord(t=t, kind=kind, worker=worker, fields=dict(zip(info.fields, values)))


@dataclass(frozen=True)
class TraceRecord:
    """One decoded trace event."""

    t: float
    kind: str
    worker: int
    fields: Dict[str, Any]

    def row(self) -> List[Any]:
        """The record's wire row (see :func:`encode_record`)."""
        return encode_record(self.t, self.kind, self.worker, self.fields)
