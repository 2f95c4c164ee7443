"""Fleet frames on the derived codec: round trips, strict decoding, spec/result rebuilds."""

import json

import numpy as np
import pytest

from repro.core import TrainingConfig
from repro.core.metrics import CurvePoint, RunResult
from repro.experiments.spec import ExperimentSpec
from repro.fleet import protocol
from repro.runtime import wire
from repro.runtime.messages import (
    FleetHello,
    Job,
    JobCurvePoint,
    JobError,
    JobResult,
    Welcome,
)
from repro.runtime.wire import ProtocolMismatch, WireError, decode, encode_message
from repro.utils.serialization import to_jsonable
from tests.runtime.test_wire import raw_frame


def make_spec(**overrides):
    return ExperimentSpec(
        config=TrainingConfig.tiny(algorithm="asgd", num_workers=2, **overrides),
        backend="sim",
        tags=("fleet", "t"),
    )


def make_result():
    return RunResult(
        algorithm="asgd",
        num_workers=2,
        bn_mode="async",
        curve=[CurvePoint(1, 0.5, 0.2, 0.9, 0.25, 1.0)],
        staleness={"mean": np.float64(1.5)},  # numpy scalars must survive
        total_updates=8,
        seed=3,
        backend="sim",
    )


def roundtrip(frame):
    return decode(encode_message(frame))[0]


def legacy(header):
    """A v5-or-older frame: [u32 header length][JSON header]."""
    body = json.dumps(header).encode("utf-8")
    return wire._LEN.pack(len(body)) + body


def header(kind, fields, v=None):
    v = wire.PROTOCOL_VERSION if v is None else v
    return {"v": v, "kind": kind, "delay": 0.0, "nbytes": 0, "fields": fields, "arrays": []}


class TestFrames:
    def test_hello_welcome_roundtrip(self):
        assert roundtrip(FleetHello()) == FleetHello()
        welcome = roundtrip(Welcome(4, "h:1"))
        assert welcome == Welcome(4, "h:1") and welcome.slots == 4

    def test_version_mismatch_rejected(self):
        with pytest.raises(ProtocolMismatch, match="protocol mismatch"):
            decode(raw_frame("FleetHello", version=wire.PROTOCOL_VERSION + 1))

    def test_v1_frame_rejected(self):
        # the first fleet schema: flat keys, "fleet" kind, v=1
        with pytest.raises(ProtocolMismatch, match="peer speaks v1"):
            decode(legacy(header("control", {"fleet": "hello", "v": 1}, v=1)))

    def test_welcome_without_slots_rejected(self):
        with pytest.raises(ValueError, match="slots"):
            Welcome(0, "h:1")
        # the header makes ``slots`` an i64, so an unusable count is the
        # one way a skewed agent can get it wrong
        for slots in (0, -1):
            with pytest.raises(WireError, match="usable slots"):
                decode(raw_frame("Welcome", slots, blob=["h:1"]))
        with pytest.raises(WireError, match="expected str"):
            decode(raw_frame("Welcome", 2, blob=[2]))

    def test_junk_rejected(self):
        with pytest.raises(WireError, match="unknown frame kind"):
            decode(wire._HEAD.pack(wire.PROTOCOL_VERSION, len(wire._FRAMES)) + bytes(32))
        with pytest.raises(WireError):  # a JSON header is no frame, whatever its "v"
            decode(legacy(header("control", {"ctl": "hello", "cv": 2, "body": {}})))
        with pytest.raises(WireError, match="JobResult claims more"):
            decode(raw_frame("JobResult", blob=["3"]))  # no result
        with pytest.raises(WireError, match="expected str"):
            decode(raw_frame("JobResult", blob=[3, {}]))
        with pytest.raises(WireError, match="expected dict"):
            decode(raw_frame("Job", blob=["1", "spec", False]))

    def test_job_spec_roundtrip_preserves_key_and_tags(self):
        spec = make_spec(seed=11)
        job = roundtrip(Job("7", to_jsonable(spec.to_dict())))
        assert job.id == "7" and job.obs is False
        rebuilt = ExperimentSpec.from_dict(job.spec)
        assert rebuilt.key() == spec.key()
        assert rebuilt.tags == spec.tags
        # canonical (JSON) form matches even where tuples became lists
        assert rebuilt.config.to_dict() == spec.config.to_dict()

    def test_spec_key_mismatch_refused(self):
        doc = roundtrip(Job("1", to_jsonable(make_spec().to_dict()))).spec
        doc["key"] = "0" * 16  # a skewed sender lying about identity
        with pytest.raises(ValueError, match="key mismatch"):
            ExperimentSpec.from_dict(doc)

    def test_result_roundtrip_through_json(self):
        result = make_result()
        frame = roundtrip(JobResult("3", to_jsonable(result.to_dict())))
        rebuilt = RunResult.from_dict(frame.result)
        assert rebuilt.final_test_error == result.final_test_error
        assert rebuilt.staleness == {"mean": 1.5}
        assert rebuilt.total_updates == 8

    def test_curve_point_frame(self):
        point = CurvePoint(2, 1.0, 0.3, 0.8, 0.35, 0.9)
        frame = roundtrip(JobCurvePoint("5", to_jsonable(point.to_dict())))
        assert CurvePoint.from_dict(frame.point) == point

    def test_job_error_frame(self):
        frame = roundtrip(JobError("2", "ValueError('boom')", "tb..."))
        assert "boom" in frame.error and frame.traceback == "tb..."


class TestAgentAddrs:
    def test_parses_roster(self):
        assert protocol.parse_agent_addrs("a:1, b:2 ,") == [("a", 1), ("b", 2)]

    def test_rejects_portless(self):
        with pytest.raises(ValueError, match="host:port"):
            protocol.parse_agent_addrs("justahost")

    def test_rejects_bad_port(self):
        with pytest.raises(ValueError, match="non-integer"):
            protocol.parse_agent_addrs("h:notaport")

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="no agent"):
            protocol.parse_agent_addrs(" , ")
