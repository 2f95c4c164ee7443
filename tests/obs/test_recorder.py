"""TraceRecorder/events: validation, bounded retention, JSONL round-trip."""

import json

import pytest

from repro.obs.events import EVENT_KINDS, decode_record, encode_record
from repro.obs.recorder import (
    NULL_RECORDER,
    TraceRecorder,
    load_trace,
    make_recorder,
)


def test_encode_decode_round_trip_every_kind():
    samples = {
        "span": {"phase": "compute", "dur_ms": 1.5},
        "staleness": {"value": 3.0, "version": 17},
        "queue_depth": {"queue": "server", "depth": 4},
        "wire_bytes": {"direction": "up", "logical": 1024, "wire": 512},
        "pairing_wait": {"dur_ms": 0.25, "partner": 2},
        "heartbeat": {"peer": "agent-a", "n": 9},
        "requeue": {"job": 3, "peer": "agent-b"},
        "mark": {"label": "epoch-end"},
    }
    assert sorted(samples) == sorted(EVENT_KINDS)  # keep this test exhaustive
    for kind, fields in samples.items():
        row = encode_record(0.5, kind, 1, fields)
        record = decode_record(row)
        assert record.kind == kind
        assert record.fields == fields
        assert record.row() == row


def test_unregistered_kind_and_wrong_fields_raise():
    with pytest.raises(ValueError, match="unregistered"):
        encode_record(0.0, "bogus", 0, {})
    with pytest.raises(ValueError, match="expects fields"):
        encode_record(0.0, "mark", 0, {"wrong": 1})
    with pytest.raises(ValueError, match="unregistered"):
        decode_record([0.0, "bogus", 0])
    with pytest.raises(ValueError, match="carries"):
        decode_record([0.0, "mark", 0, "a", "extra"])


def test_null_recorder_is_inert():
    NULL_RECORDER.emit(0.0, "anything", junk=True)  # never validates, never stores
    assert NULL_RECORDER.rows() == []
    assert NULL_RECORDER.records() == []
    assert NULL_RECORDER.enabled is False
    assert make_recorder(False) is NULL_RECORDER
    assert make_recorder(True, run_id="x").enabled is True


def test_retention_cap_counts_drops():
    recorder = TraceRecorder(run_id="cap", max_records=3)
    for i in range(5):
        recorder.emit(float(i), "mark", label=f"m{i}")
    assert len(recorder) == 3
    assert recorder.dropped == 2
    assert recorder.meta()["dropped"] == 2
    assert [r.fields["label"] for r in recorder.records()] == ["m0", "m1", "m2"]


def test_ingest_rows_validates_and_caps():
    recorder = TraceRecorder(run_id="ingest", max_records=2)
    rows = [[0.0, "mark", 1, "a"], [1.0, "mark", 2, "b"], [2.0, "mark", 3, "c"]]
    assert recorder.ingest_rows(rows) == 2
    assert recorder.dropped == 1
    with pytest.raises(ValueError):
        recorder.ingest_rows([[0.0, "nope", 0]])


def test_jsonl_round_trip(tmp_path):
    recorder = TraceRecorder(run_id="rt")
    recorder.emit(0.1, "span", 0, phase="compute", dur_ms=2.0)
    recorder.emit(0.2, "staleness", 1, value=1.0, version=3)
    recorder.set_timer_totals({"worker-compute": {"total_s": 0.5, "count": 4}})
    path = str(tmp_path / "trace.jsonl")
    recorder.dump_jsonl(path)

    meta, records = load_trace(path)
    assert meta["run_id"] == "rt"
    assert meta["records"] == 2
    assert meta["timer"]["worker-compute"]["count"] == 4
    assert [r.row() for r in records] == recorder.rows()

    # the first line is the meta object, every other line a plain array
    lines = open(path).read().splitlines()
    assert "meta" in json.loads(lines[0])
    assert all(isinstance(json.loads(line), list) for line in lines[1:])


def test_phase_totals_merge_spans_and_timer():
    recorder = TraceRecorder(run_id="phases")
    recorder.emit(0.1, "span", 0, phase="compute", dur_ms=2.0)
    recorder.emit(0.2, "span", 1, phase="compute", dur_ms=3.0)
    recorder.emit(0.3, "span", 0, phase="wire", dur_ms=1.0)
    recorder.set_timer_totals({"loss-pred": {"total_s": 0.004, "count": 2}})
    totals = recorder.phase_totals_ms()
    assert totals["compute"] == pytest.approx(5.0)
    assert totals["wire"] == pytest.approx(1.0)
    assert totals["loss-pred"] == pytest.approx(4.0)
    recorder.emit(0.4, "staleness", 0, value=2.0, version=1)
    staleness = [r.fields["value"] for r in recorder.records() if r.kind == "staleness"]
    assert staleness == [2.0]


def test_phase_totals_count_a_spanned_timer_section_once():
    recorder = TraceRecorder(run_id="once")
    timer = {"worker-compute": {"total_s": 0.007, "count": 2}}
    recorder.set_timer_totals(timer)
    # no compute spans in the trace: the Timer section is all there is
    assert recorder.phase_totals_ms() == {"worker-compute": pytest.approx(7.0)}
    # with compute spans the same interval must not be added a second time
    recorder.emit(0.1, "span", 0, phase="compute", dur_ms=6.5)
    assert recorder.phase_totals_ms() == {"compute": pytest.approx(6.5)}
