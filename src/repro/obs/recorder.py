"""Trace recorders: the gated collection point of the observability layer.

Two implementations share one surface:

* :data:`NULL_RECORDER` — the ``obs off`` default.  ``emit`` is a bare
  no-op method on a singleton, so un-instrumented runs pay one attribute
  load + call per site (the ≤5% budget ``bench_backend_throughput``
  enforces).  Hot paths can skip even that by checking ``recorder.enabled``
  before assembling event fields.
* :class:`TraceRecorder` — the ``obs on`` implementation: validates each
  event against :data:`~repro.obs.events.EVENT_KINDS`, encodes it to its
  wire row, and appends via GIL-atomic ``list.append`` (workers, the
  server actor, transports and reader threads all emit concurrently; a
  shared lock here costs contended GIL handoffs on every runtime's hot
  path).  Retention is bounded: past ``max_records`` new events are
  counted as ``dropped`` rather than growing without limit.

Recorders never read a clock.  Every ``emit`` takes the caller's ``t`` —
virtual seconds under the simulator (which is what makes sim traces
bit-reproducible), backend-clock seconds under the concurrent runtimes.

The JSONL format is one meta object line followed by one wire row per
record::

    {"meta": {"version": 1, "run_id": "...", "dropped": 0, "timer": {...}}}
    [0.125, "staleness", 2, 3.0, 17]
    ...

``timer`` carries the run's wall-clock Timer totals (folded in by
``ExperimentSession.build_result``) — wall-clock facts live in the meta
line so the *record* stream stays deterministic for virtual-time runs.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.analysis.lockorder import make_lock
from repro.obs.events import TRACE_VERSION, TraceRecord, decode_record, encode_record

#: default retention cap — ~30 bytes/row keeps worst-case memory ~tens of MB
DEFAULT_MAX_RECORDS = 200_000


#: Timer section -> the span phase that measures the same interval.  Every
#: driver of the worker cycle both times ``worker-compute`` and emits
#: ``compute`` spans; attribution counts the interval once, from the spans.
TIMER_SECTION_SPAN_PHASE = {"worker-compute": "compute"}


def phase_totals_ms(
    records: Iterable[TraceRecord], timer_totals: Dict[str, Dict[str, float]]
) -> Dict[str, float]:
    """Per-phase time attribution: span ``dur_ms`` totals + Timer totals.

    Trace spans (compute/encode/wire, from the worker cycle) and Timer
    sections (loss-pred/step-pred, from the server) merge into one
    mapping.  A Timer section whose interval a recorded span phase covers
    (:data:`TIMER_SECTION_SPAN_PHASE`) is skipped, so cost appears exactly
    once; it still counts when the trace carries no such spans.
    """
    totals: Dict[str, float] = {}
    for record in records:
        if record.kind == "span":
            phase = str(record.fields["phase"])
            totals[phase] = totals.get(phase, 0.0) + float(record.fields["dur_ms"])
    spanned = set(totals)
    for name, entry in timer_totals.items():
        if TIMER_SECTION_SPAN_PHASE.get(name) in spanned:
            continue
        totals[name] = totals.get(name, 0.0) + float(entry.get("total_s", 0.0)) * 1e3
    return totals


class NullRecorder:
    """The ``obs off`` recorder: every operation is a no-op."""

    enabled = False

    def emit(self, t: float, kind: str, worker: int = -1, **fields: Any) -> None:
        """Discard the event."""

    def rows(self) -> List[List[Any]]:
        return []

    def records(self) -> List[TraceRecord]:
        return []


#: the shared no-op instance every un-instrumented plan carries
NULL_RECORDER = NullRecorder()


class TraceRecorder:
    """Thread-safe, bounded, validating event sink (``obs on``)."""

    enabled = True

    def __init__(self, run_id: str = "", max_records: int = DEFAULT_MAX_RECORDS) -> None:
        if max_records < 1:
            raise ValueError("max_records must be >= 1")
        self.run_id = str(run_id)
        self.max_records = int(max_records)
        self._lock = make_lock("TraceRecorder._lock")
        # _rows and _dropped are deliberately NOT lock-guarded: emit() is
        # on the hot path of every runtime thread, and a contended acquire
        # can cost a full GIL switch interval — measurably more than the
        # whole obs budget.  list.append and int += are GIL-atomic; the
        # worst concurrent-mutation outcome is overshooting max_records by
        # one row per emitting thread, or an undercounted dropped total.
        self._rows: List[List[Any]] = []
        self._dropped = 0
        self._timer_totals: Dict[str, Dict[str, float]] = {}  # guarded-by: _lock

    # ------------------------------------------------------------------ #
    def emit(self, t: float, kind: str, worker: int = -1, **fields: Any) -> None:
        """Record one event; ``t`` is the *caller's* clock, never read here."""
        row = encode_record(float(t), kind, int(worker), fields)
        if len(self._rows) >= self.max_records:
            self._dropped += 1
            return
        self._rows.append(row)

    def ingest_rows(self, rows: Iterable[Iterable[Any]]) -> int:
        """Merge wire rows shipped by a child process / fleet agent.

        Each row is validated through the registry codec; returns how many
        were kept (the retention cap applies here too).
        """
        kept = 0
        for row in rows:
            record = decode_record(list(row))
            if len(self._rows) >= self.max_records:
                self._dropped += 1
                continue
            self._rows.append(record.row())
            kept += 1
        return kept

    # ------------------------------------------------------------------ #
    @property
    def dropped(self) -> int:
        return self._dropped

    def __len__(self) -> int:
        return len(self._rows)

    def rows(self) -> List[List[Any]]:
        """A snapshot of the encoded rows (what RunEnd and JobTrace carry)."""
        # list(...) over a concurrently-appended list is safe under the
        # GIL; rows already present are never mutated after append
        return [list(row) for row in list(self._rows)]

    def records(self) -> List[TraceRecord]:
        """A decoded snapshot of every retained event."""
        return [decode_record(row) for row in self.rows()]

    def clear(self) -> None:
        """Drop every retained row (proc children reuse one recorder)."""
        self._rows.clear()

    # ------------------------------------------------------------------ #
    def set_timer_totals(self, totals: Dict[str, Dict[str, float]]) -> None:
        """Fold the run's wall-clock Timer totals into the trace meta.

        ``totals`` is ``{section: {"total_s": ..., "count": ...}}`` — the
        per-phase cost lives here once, instead of duplicating every Timer
        sample as a span record.
        """
        with self._lock:
            self._timer_totals = {
                name: {k: float(v) for k, v in entry.items()}
                for name, entry in totals.items()
            }

    def meta(self) -> Dict[str, Any]:
        """The JSONL meta line's payload."""
        with self._lock:
            return {
                "version": TRACE_VERSION,
                "run_id": self.run_id,
                "records": len(self._rows),
                "dropped": self._dropped,
                "timer": {
                    name: dict(entry) for name, entry in self._timer_totals.items()
                },
            }

    # ------------------------------------------------------------------ #
    # aggregation helpers (build_result, `repro trace summarize`)
    # ------------------------------------------------------------------ #
    def phase_totals_ms(
        self, records: Optional[List[TraceRecord]] = None
    ) -> Dict[str, float]:
        """:func:`phase_totals_ms` over this recorder's events and Timer totals.

        Pass a pre-decoded snapshot via ``records`` to avoid a second decode
        pass.
        """
        with self._lock:
            timer_totals = dict(self._timer_totals)
        return phase_totals_ms(
            self.records() if records is None else records, timer_totals
        )

    # ------------------------------------------------------------------ #
    def dump_jsonl(self, path: str) -> str:
        """Write the meta line + one row per record; returns ``path``."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"meta": self.meta()}, sort_keys=True) + "\n")
            for row in self.rows():
                fh.write(json.dumps(row) + "\n")
        return path


def load_trace(path: str) -> Tuple[Dict[str, Any], List[TraceRecord]]:
    """Read a JSONL trace back: ``(meta, records)``."""
    meta: Dict[str, Any] = {}
    records: List[TraceRecord] = []
    with open(path) as fh:
        for i, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            doc = json.loads(line)
            if i == 0 and isinstance(doc, dict):
                meta = doc.get("meta", {})
                continue
            records.append(decode_record(doc))
    return meta, records


def make_recorder(obs: bool, run_id: str = "") -> Any:
    """The gate: a live :class:`TraceRecorder` or :data:`NULL_RECORDER`."""
    return TraceRecorder(run_id=run_id) if obs else NULL_RECORDER
