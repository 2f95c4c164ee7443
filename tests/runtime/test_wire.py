"""Wire layer: every frame type round-trips exactly; framing survives sockets;
malformed frames raise WireError and nothing else."""

import dataclasses
import json
import socket
import struct
import threading
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.state import CompensationReply, GradientPayload, WorkerState
from repro.runtime.codecs import ENCODINGS, PART_DTYPES, make_codec
from repro.runtime import messages as messages_mod
from repro.runtime.messages import (
    Busy,
    CombinedPush,
    CompensationMessage,
    FleetHello,
    Frame,
    GossipReport,
    GradientPush,
    Heartbeat,
    Hello,
    Job,
    JobCurvePoint,
    JobError,
    JobResult,
    JobTrace,
    Message,
    PullReply,
    PullRequest,
    Ready,
    Reject,
    RunConfig,
    RunEnd,
    SetupError,
    Shutdown,
    Start,
    StatePush,
    WeightExchange,
    Welcome,
)
from repro.runtime import wire
from repro.runtime.wire import (
    ConnectionClosed,
    FrameConnection,
    ProtocolMismatch,
    WireError,
    decode,
    encode_message,
)


def _state(worker=1, bn_layers=2):
    rng = np.random.default_rng(0)
    bn = [
        (rng.normal(size=4).astype(np.float32), rng.normal(size=4).astype(np.float32))
        for _ in range(bn_layers)
    ]
    return WorkerState(
        worker=worker, loss=0.731, bn_stats=bn, t_comm=0.01, t_comp=0.02, pull_version=5
    )


def _payload(worker=1, n=17):
    grad = np.random.default_rng(3).normal(size=n)
    return GradientPayload(worker=worker, grad=grad, pull_version=4, loss=0.9)


def _messages():
    weights = np.random.default_rng(1).normal(size=33).astype(np.float64)
    reply = CompensationReply(worker=2, l_delay=0.61, predicted_step=3, sensitivity=0.25)
    return [
        PullRequest(0, sent_at=1.25),
        PullReply(1, weights=weights, version=7, request_sent_at=0.5),
        PullReply(1, weights=None, version=-1),  # barrier-queued shape
        StatePush(1, state=_state()),
        StatePush(2, state=_state(worker=2, bn_layers=0)),  # local-BN: no stats
        CompensationMessage(2, reply=reply),
        CompensationMessage(2, reply=None),  # non-LC algorithms reply nothing
        GradientPush(1, payload=_payload()),
        CombinedPush(3, state=_state(worker=3), payload=_payload(worker=3)),
        Shutdown(),
        RunEnd(  # worker 0 under bn_mode="local": float64 stats, float32 on the wire
            timers={"worker-compute": {"total_s": 0.5, "count": 8.0}},
            bn_stats=tuple(
                (rng.normal(size=6), np.abs(rng.normal(size=6)) + 0.5)
                for rng in [np.random.default_rng(9)]
                for _ in range(2)
            ),
        ),
        RunEnd(),  # BN-free model, obs off
        WeightExchange(  # one side of an ad-psgd pairwise average
            2,
            weights=np.random.default_rng(5).normal(size=21),
            bn_stats=tuple(
                (rng.normal(size=3), np.abs(rng.normal(size=3)) + 0.1)
                for rng in [np.random.default_rng(6)]
                for _ in range(2)
            ),
        ),
        WeightExchange(3, weights=None, bn_stats=()),  # handshake shape
        GossipReport(1, loss=0.42, staleness=3),
        RunEnd(rows=([0.5, "span", 1, "compute", 0.25], [0.75, "mark", 1, "end"])),
        # the proc handshake
        Hello(3, token="0123abcd"),
        RunConfig(
            1,
            config={"algorithm": "asgd", "comm_codec": "topk", "model_kwargs": {"hidden": [32]}},
            time_scale=0.5,
            compute_scale=0.25,
            obs=True,
        ),
        Ready(1),
        SetupError("Traceback (most recent call last): ..."),
        Start(),
        Reject("protocol mismatch: peer speaks v4, we speak v5"),
        # the fleet session
        FleetHello(),
        Welcome(2, agent="127.0.0.1:7463#pid1"),
        Busy("127.0.0.1:7463#pid1"),
        Job("3", spec={"key": "0a1b", "tags": ["fleet"]}, obs=True),
        JobCurvePoint("3", point={"epoch": 1, "test_error": 0.25}),
        JobTrace("3", rows=([0.5, "staleness", 0, 2],)),
        JobResult("3", result={"total_updates": 8, "staleness": {"mean": 1.5}}),
        JobError("3", error="ValueError('boom')", traceback="Traceback ..."),
        Heartbeat(7),
    ]


def _assert_equal(original, decoded):
    assert type(decoded) is type(original)
    if not isinstance(original, (Message, RunEnd)):  # no arrays: plain equality
        assert decoded == original
        return
    if isinstance(original, Message):
        assert decoded.worker == original.worker
    if isinstance(original, PullRequest):
        assert decoded.sent_at == original.sent_at
    if isinstance(original, PullReply):
        assert decoded.version == original.version
        assert decoded.request_sent_at == original.request_sent_at
        if original.weights is None:
            assert decoded.weights is None
        else:  # float32 wire format: exact after the cast
            np.testing.assert_array_equal(
                decoded.weights, original.weights.astype(np.float32)
            )
    if isinstance(original, (StatePush, CombinedPush)):
        a, b = original.state, decoded.state
        assert (b.worker, b.pull_version) == (a.worker, a.pull_version)
        assert b.loss == pytest.approx(a.loss)
        assert (b.t_comm, b.t_comp) == (a.t_comm, a.t_comp)
        assert len(b.bn_stats) == len(a.bn_stats)
        for (m0, v0), (m1, v1) in zip(a.bn_stats, b.bn_stats):
            np.testing.assert_array_equal(m1, m0.astype(np.float32))
            np.testing.assert_array_equal(v1, v0.astype(np.float32))
    if isinstance(original, (GradientPush, CombinedPush)):
        a, b = original.payload, decoded.payload
        assert (b.worker, b.pull_version) == (a.worker, a.pull_version)
        assert b.loss == pytest.approx(a.loss)
        assert b.grad.dtype == np.float64  # GradientPayload restores math dtype
        np.testing.assert_array_equal(b.grad, a.grad.astype(np.float32))
    if isinstance(original, WeightExchange):
        if original.weights is None:
            assert decoded.weights is None
        else:
            np.testing.assert_array_equal(
                decoded.weights, original.weights.astype(np.float32)
            )
        assert len(decoded.bn_stats) == len(original.bn_stats)
        for (m0, v0), (m1, v1) in zip(original.bn_stats, decoded.bn_stats):
            np.testing.assert_array_equal(m1, np.asarray(m0, dtype=np.float32))
            np.testing.assert_array_equal(v1, np.asarray(v0, dtype=np.float32))
    if isinstance(original, GossipReport):
        assert decoded.loss == pytest.approx(original.loss)
        assert decoded.staleness == original.staleness
    if isinstance(original, RunEnd):
        assert decoded.timers == original.timers
        assert decoded.rows == original.rows
        assert len(decoded.bn_stats) == len(original.bn_stats)
        for (m0, v0), (m1, v1) in zip(original.bn_stats, decoded.bn_stats):
            np.testing.assert_array_equal(m1, np.asarray(m0, dtype=np.float32))
            np.testing.assert_array_equal(v1, np.asarray(v0, dtype=np.float32))


@pytest.mark.parametrize("message", _messages(), ids=lambda m: type(m).__name__)
def test_every_message_type_round_trips(message):
    decoded, delay = decode(encode_message(message, delay=0.125))
    assert delay == 0.125
    _assert_equal(message, decoded)


#: every concrete frame class
FRAMES = {
    cls
    for cls in vars(messages_mod).values()
    if isinstance(cls, type) and issubclass(cls, Frame) and cls not in (Frame, Message)
}
#: every frame class name, sorted: a frame's kind id is its index here
KINDS = sorted(cls.__name__ for cls in FRAMES)


def test_every_message_type_has_a_round_trip_case():
    # the codec is derived from the dataclasses, so this is what catches a
    # new frame type (message, handshake, run-end or fleet) that nobody
    # round-tripped
    assert FRAMES == {type(m) for m in _messages()}


def _spec(kind):
    (spec,) = [spec for spec in wire._FRAMES if spec.name == kind]
    return spec


def raw_frame(kind, *scalars, parts=(), blob=None, body=b"", version=None, nparts=None):
    """A frame with hand-written header values, as a skewed peer would send it.

    ``scalars`` are the kind's fields' scalars in header order, ``parts``
    its ``(encoding, dtype, n, size)`` records and ``blob`` its JSON blob
    (none when None).
    """
    spec = _spec(kind)
    doc = b"" if blob is None else json.dumps(blob).encode("utf-8")
    head = spec.head.pack(
        wire.PROTOCOL_VERSION if version is None else version,
        spec.kind,
        0.0,
        0,
        len(parts) if nparts is None else nparts,
        len(doc),
        *scalars,
    )
    return head + b"".join(wire._PART.pack(*part) for part in parts) + doc + body


def _parse(frame):
    """(spec, header values, part records, blob, array bytes) of one frame."""
    spec = wire._FRAMES[wire._HEAD.unpack_from(frame)[1]]
    head = list(spec.head.unpack_from(frame))
    offset = spec.head.size + head[4] * wire._PART.size
    records = [list(r) for r in wire._PART.iter_unpack(frame[spec.head.size : offset])]
    blob = json.loads(frame[offset : offset + head[5]]) if head[5] else None
    return spec, head, records, blob, frame[offset + head[5] :]


def _pack(spec, head, records, blob, body, blob_len=None):
    """Inverse of :func:`_parse`; the blob length is recomputed unless given."""
    doc = b"" if blob is None else json.dumps(blob).encode("utf-8")
    head[5] = len(doc) if blob_len is None else blob_len
    return spec.head.pack(*head) + b"".join(wire._PART.pack(*r) for r in records) + doc + body


def test_a_pull_request_is_the_documented_struct():
    # version, kind id, delay, nbytes, part records, blob length, then the fields
    frame = encode_message(PullRequest(3, sent_at=1.5), delay=0.25, nbytes=64)
    kind = KINDS.index("PullRequest")
    assert frame == struct.pack("<HHdQIIqd", wire.PROTOCOL_VERSION, kind, 0.25, 64, 0, 0, 3, 1.5)


def _message_frames(f, i):
    """One frame of every message kind: scalars from ``f()`` (floats) and
    ``i()`` (ints), arrays of fixed sizes."""
    weights, grad = np.linspace(0.0, 1.0, 40), np.linspace(-1.0, 1.0, 40)
    bn = [(np.ones(4), np.full(4, 2.0))]
    state = WorkerState(i(), f(), bn, t_comm=f(), t_comp=f(), pull_version=i())
    payload = GradientPayload(i(), grad, i(), loss=f(), nbytes=i())
    return [
        PullRequest(i(), sent_at=f()),
        PullReply(i(), weights=weights, version=i(), request_sent_at=f()),
        StatePush(i(), state=state),
        CompensationMessage(i(), reply=CompensationReply(i(), f(), i(), f())),
        GradientPush(i(), payload=payload),
        CombinedPush(i(), state=state, payload=payload),
        WeightExchange(i(), weights=weights, bn_stats=tuple(bn)),
        GossipReport(i(), loss=f(), staleness=i()),
        Shutdown(i()),
    ]


_WIDE_FLOATS = st.sampled_from(
    [-0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1e308, 1 / 3]
) | st.floats(allow_nan=False, allow_infinity=False)
_WIDE_INTS = st.sampled_from([-1, -(2**63), 2**63 - 1]) | st.integers(-(2**63), 2**63 - 1)


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_a_message_frame_length_is_a_function_of_kind_codec_and_array_sizes(data):
    zeros = _message_frames(lambda: 0.0, lambda: 0)
    drawn = _message_frames(lambda: data.draw(_WIDE_FLOATS), lambda: data.draw(_WIDE_INTS))
    assert {type(m) for m in zeros} == {cls for cls in FRAMES if issubclass(cls, Message)}
    delay, nbytes = data.draw(_WIDE_FLOATS), data.draw(st.integers(0, 2**64 - 1))
    for name in ("raw32", "fp16", "topk"):
        for base, message in zip(zeros, drawn):
            frame = encode_message(message, delay=delay, nbytes=nbytes, codec=make_codec(name))
            assert len(frame) == len(encode_message(base, codec=make_codec(name))), message


def _array_names(value, name=""):
    """The field name of every array in ``value``, in field order."""
    if isinstance(value, np.ndarray):
        yield name
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from _array_names(getattr(value, f.name), f.name)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _array_names(item, name)


def _encodings(frame):
    """The encoding of each array a frame carries, in order."""
    records, names = _parse(frame)[2], []
    while records:
        names.append(list(ENCODINGS)[records[0][0]])
        records = records[ENCODINGS[names[-1]] :]
    return names


@pytest.mark.parametrize("message", _messages(), ids=lambda m: type(m).__name__)
def test_topk_compresses_the_grad_field_only(message):
    names = list(_array_names(message))
    assert _encodings(encode_message(message, codec=make_codec("topk"))) == [
        "topk" if name == "grad" else "raw" for name in names
    ]
    assert ("grad" in names) == isinstance(message, (GradientPush, CombinedPush))


_PULL = encode_message(PullRequest(0, sent_at=1.0))


@pytest.mark.parametrize(
    "frame, match",
    [
        (_PULL + bytes(8), "8 unclaimed byte"),  # an unknown field
        (_PULL[:-8], "truncated PullRequest header"),  # a field short
        (raw_frame("PullReply", 0, 2, -1, 0.0), "bad presence byte 2"),
        (raw_frame("StatePush", 1, 0, 0, 0.5, 0, 0.0, 0.0, 0), "absent value's scalars"),
        (raw_frame("StatePush", 1, 1, 1, float("nan"), 0, 0.0, 0.0, 0), "non-finite loss"),
        (raw_frame("Hello", 3, blob=[3]), "expected str"),
        (raw_frame("RunConfig", 1, 0.0, 0.0, blob=[{}, 1]), "expected bool"),  # not an int
        (raw_frame("Hello", 3, blob=["t", "u"]), "unclaimed arrays or documents"),
        (raw_frame("Hello", 3, blob=[]), "claims more arrays or documents"),
        (raw_frame("Hello", 3, blob={"token": "t"}), "expected list"),
    ],
    ids=["extra-field", "short-field", "presence", "absent-not-zero", "post-init",
         "blob-type", "blob-bool", "blob-extra", "blob-missing", "blob-object"],
)
def test_decode_is_strict_about_fields(frame, match):
    with pytest.raises(WireError, match=match):
        decode(frame)


@pytest.mark.parametrize(
    "message", [PullReply(0, version=2**63), PullRequest(-(2**63) - 1), Heartbeat(2**64)]
)
def test_an_int_outside_i64_fails_at_encode_with_wire_error(message):
    with pytest.raises(WireError, match="cannot encode"):
        encode_message(message)


def test_arrays_cross_the_wire_as_vectors():
    with pytest.raises(WireError, match="as vectors"):
        encode_message(PullReply(0, weights=np.ones((2, 3))))


def _grad_push(*parts, body=bytes(16), nparts=None):
    """A GradientPush of a 4-element grad with hand-written part records."""
    return raw_frame("GradientPush", 1, 1, 1, 4, 0.9, 16, parts=parts, body=body, nparts=nparts)


def test_decode_accepts_only_whitelisted_kinds_encodings_and_dtypes():
    # the kind id names the frame, and the annotations name its payloads:
    # nothing on the wire can make a payload slot decode to another class
    decoded, _ = decode(encode_message(StatePush(1, state=_state(bn_layers=0))))
    assert type(decoded.state) is WorkerState
    decoded, _ = decode(_grad_push((0, 0, 4, 4)))
    assert type(decoded.payload) is GradientPayload and decoded.payload.grad.shape == (4,)
    with pytest.raises(WireError, match=f"unknown frame kind {len(KINDS)}"):
        decode(wire._HEAD.pack(wire.PROTOCOL_VERSION, len(KINDS)) + bytes(64))
    with pytest.raises(WireError, match="disallowed dtype code 3"):
        decode(_grad_push((0, len(PART_DTYPES), 4, 4)))
    with pytest.raises(WireError, match="unknown encoding code 3"):
        decode(_grad_push((len(ENCODINGS), 0, 4, 4)))


def test_decode_rejects_garbage():
    with pytest.raises(WireError, match="too short"):
        decode(b"\x00")
    with pytest.raises(WireError):
        decode(b"\x00\x00\x00\xffgarbage")
    with pytest.raises(WireError):
        decode(encode_message(PullRequest(0))[:-1])
    with pytest.raises(ProtocolMismatch, match="peer speaks v9"):
        decode(raw_frame("Hello", 0, blob=["t"], version=9))


def _legacy(header):
    """A v5-or-older frame: [u32 header length][JSON header]."""
    raw = json.dumps(header).encode("utf-8")
    return wire._LEN.pack(len(raw)) + raw


@pytest.mark.parametrize(
    "frame",
    [
        _PULL[: wire._HEAD.size],  # nothing past the kind
        _grad_push(body=b""),  # the payload claims a grad the frame lacks
        _grad_push((0, 0, 4, 4), nparts=3),  # records past the frame
        _grad_push((2, 2, 1, 4), body=bytes(4)),  # one of topk's two parts
        _grad_push((2, 2, 1, 4), (2, 0, 1, 5), body=bytes(8)),  # parts disagree
        _grad_push((0, 0, 5, 4), body=bytes(20)),  # a raw count that is not its size
        _grad_push((0, 0, 2**61, 2**61)),  # a count past the payload
        raw_frame("StatePush", 1, 1, 1, 0.5, 2**32 - 1, 0.0, 0.0, 0),  # BN pairs past it
        raw_frame("RunEnd", 0, 2**31, blob=[{}]),  # trace rows past the blob
        raw_frame("Hello", 3, blob=["t"])[:-1],  # a blob past the frame
        raw_frame("Hello", 3, blob=["t"])[:-2] + b"]]",  # an unparseable blob
        _legacy([wire.PROTOCOL_VERSION, "PullRequest"]),  # a JSON header of a list
        _legacy({"v": wire.PROTOCOL_VERSION, "kind": "PullRequest", "fields": [0]}),
    ],
    ids=["no-fields", "no-arrays", "records-past", "topk-half", "parts-disagree",
         "raw-count", "count-past", "bn-count-past", "rows-past", "blob-past",
         "blob-garbage", "json-list-header", "json-current-version"],
)
def test_malformed_headers_raise_wire_error(frame):
    with pytest.raises(WireError):
        decode(frame)


def _conforms(value, annotation):
    """Does a decoded value have its field's annotated type?"""
    if annotation in (int, float, str, bool, list, dict, np.ndarray, type(None)):
        return type(value) is annotation
    origin, args = typing.get_origin(annotation), typing.get_args(annotation)
    if origin is typing.Union:
        return any(_conforms(value, arg) for arg in args)
    if origin in (list, tuple):
        if type(value) is not origin:
            return False
        if origin is list or args[-1:] == (Ellipsis,):
            return all(_conforms(v, args[0]) for v in value)
        return len(value) == len(args) and all(map(_conforms, value, args))
    return type(value) is annotation and _fields_conform(value)


def _fields_conform(obj):
    hints = typing.get_type_hints(type(obj))
    return all(
        _conforms(getattr(obj, f.name), hints[f.name]) for f in dataclasses.fields(obj)
    )


_FUZZ_FRAMES = [encode_message(m, delay=0.5, nbytes=64) for m in _messages()] + [
    encode_message(m, codec=make_codec(name))
    for name in ("fp16", "topk")
    for m in (GradientPush(1, payload=_payload()), PullReply(1, weights=np.ones(5)))
]

_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)

#: any value a struct code can hold
_STRUCT_VALUES = {
    "B": st.integers(0, 2**8 - 1),
    "H": st.integers(0, 2**16 - 1),
    "I": st.integers(0, 2**32 - 1),
    "Q": st.integers(0, 2**64 - 1),
    "q": st.integers(-(2**63), 2**63 - 1),
    "d": st.floats(),
}


def _nodes(node, path=()):
    """Every (path, value) in a JSON tree, the root included."""
    yield path, node
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _nodes(child, path + (key,))


def _replace(tree, path, value):
    if not path:
        return value
    parent = tree
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return tree


@st.composite
def _fuzzed_frames(draw):
    frame = draw(st.sampled_from(_FUZZ_FRAMES))
    spec, head, records, blob, body = _parse(frame)
    how = draw(st.sampled_from(["header", "record", "blob", "flip"]))
    if how == "header":  # any value in any header slot, counts and blob length too
        slot = draw(st.integers(0, len(head) - 1))
        head[slot] = draw(_STRUCT_VALUES[spec.head.format[1 + slot]])
        return _pack(spec, head, records, blob, body, head[5])
    if how == "record" and records:
        record = draw(st.sampled_from(records))
        slot = draw(st.integers(0, 3))
        record[slot] = draw(_STRUCT_VALUES["BBQQ"[slot]])
    elif how == "blob" and blob is not None:
        nodes = list(_nodes(blob))
        if draw(st.booleans()):
            path, _ = draw(st.sampled_from(nodes))
            blob = _replace(blob, path, draw(_json))
        else:  # drop or rename a key, or drop a list item
            parents = [node for _, node in nodes if isinstance(node, (dict, list)) and node]
            if parents:
                node = draw(st.sampled_from(parents))
                key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else
                                           list(range(len(node)))))
                value = node.pop(key)
                if isinstance(node, dict) and draw(st.booleans()):
                    node[draw(st.text(max_size=8))] = value
    else:  # flip the bits of one byte before the array data
        at = draw(st.integers(0, len(frame) - len(body) - 1))
        flipped = frame[at] ^ draw(st.integers(1, 255))
        return frame[:at] + bytes([flipped]) + frame[at + 1 :]
    return _pack(spec, head, records, blob, body)


@given(_fuzzed_frames())
@settings(max_examples=400, deadline=None)
def test_fuzzed_frames_decode_or_raise_wire_error(frame):
    try:
        obj, delay, nbytes = wire.decode_frame(frame, copy=False)
    except WireError:
        return
    assert type(delay) is float and type(nbytes) is int
    assert isinstance(obj, Frame) and _fields_conform(obj)


@pytest.mark.parametrize("frame", _FUZZ_FRAMES, ids=range(len(_FUZZ_FRAMES)))
def test_every_truncation_raises_wire_error(frame):
    for end in range(len(frame)):
        with pytest.raises(WireError):
            wire.decode_frame(frame[:end], copy=False)


def test_v1_peer_rejected_with_reason():
    # a handcrafted frame exactly as a v1 sender would emit it: the single
    # check_protocol_version path must name both versions in the error
    header = json.dumps(
        {"v": 1, "kind": "control", "delay": 0.0, "fields": {"hello": 0}, "arrays": []}
    ).encode("utf-8")
    frame = wire._LEN.pack(len(header)) + header
    with pytest.raises(
        ProtocolMismatch, match=rf"peer speaks v1, we speak v{wire.PROTOCOL_VERSION}"
    ):
        decode(frame)


def test_v5_peer_rejected_with_reason():
    # a PullRequest exactly as a v5 sender encoded it: its header is JSON
    header = b'{"v":5,"kind":"PullRequest","delay":0.0,"nbytes":0,"fields":[0,1.25],"arrays":[]}'
    with pytest.raises(ProtocolMismatch, match="peer speaks v5, we speak v6"):
        decode(wire._LEN.pack(len(header)) + header)


def test_decode_rejects_truncated_arrays():
    frame = encode_message(GradientPush(0, payload=_payload(n=8)))
    with pytest.raises(WireError, match="truncated"):
        decode(frame[:-4])


def test_encode_rejects_unknown_message():
    class Rogue:
        pass

    with pytest.raises(WireError, match="no wire codec"):
        encode_message(Rogue())


def test_frame_connection_over_socketpair():
    left, right = socket.socketpair()
    a, b = FrameConnection(left), FrameConnection(right)
    try:
        sent = _messages()
        # writer thread so large frames cannot deadlock the pair's buffers
        writer = threading.Thread(
            target=lambda: [a.send_message(m, delay=0.5) for m in sent]
        )
        writer.start()
        for original in sent:
            decoded, delay = b.recv()
            assert delay == 0.5
            _assert_equal(original, decoded)
        writer.join(timeout=10.0)
    finally:
        a.close()
        b.close()


def test_frame_connection_eof_raises_connection_closed():
    left, right = socket.socketpair()
    a, b = FrameConnection(left), FrameConnection(right)
    a.close()
    with pytest.raises(ConnectionClosed):
        b.read_frame()
    b.close()


def test_frame_length_cap_enforced_both_ends(monkeypatch):
    left, right = socket.socketpair()
    a, b = FrameConnection(left), FrameConnection(right)
    try:
        monkeypatch.setattr(wire, "MAX_FRAME_BYTES", 16)
        # sender side: an oversized frame fails loudly here, before any
        # byte leaves (this used to slip through and die on the peer)
        with pytest.raises(WireError, match="outgoing frame length"):
            a.send_frame(b"x" * 64)
        # receiver side: a corrupt length prefix must not trigger a huge
        # allocation — write one straight past the sender-side check
        left.sendall(wire._LEN.pack(64))
        with pytest.raises(WireError, match="exceeds cap"):
            b.read_frame()
    finally:
        a.close()
        b.close()


def test_recv_info_reports_logical_and_wire_bytes():
    left, right = socket.socketpair()
    a, b = FrameConnection(left), FrameConnection(right)
    try:
        message = GradientPush(1, payload=_payload(n=64))
        a.send_message(message, nbytes=64 * 4)
        decoded, delay, logical, wire_nbytes = b.recv_info()
        assert isinstance(decoded, GradientPush)
        assert logical == 256
        # raw32 wire = header + 4 bytes/element + framing, so > logical
        assert wire_nbytes > 256
    finally:
        a.close()
        b.close()


@pytest.mark.parametrize("codec_name", ["raw32", "fp16", "topk"])
def test_codec_negotiated_connection_roundtrip(codec_name):
    left, right = socket.socketpair()
    a = FrameConnection(left, codec=make_codec(codec_name))
    b = FrameConnection(right)
    try:
        n = 1024
        message = GradientPush(1, payload=_payload(n=n))
        sent_bytes = []
        writer = threading.Thread(
            target=lambda: sent_bytes.append(a.send_message(message, nbytes=n * 4))
        )
        writer.start()
        decoded, _, logical, wire_nbytes = b.recv_info()
        writer.join(timeout=10.0)
        assert sent_bytes[0] == wire_nbytes  # both ends count the same bytes
        assert logical == n * 4
        assert decoded.payload.grad.shape == (n,)
        grad = message.payload.grad
        if codec_name == "raw32":
            np.testing.assert_array_equal(decoded.payload.grad, grad.astype(np.float32))
        elif codec_name == "fp16":
            np.testing.assert_allclose(decoded.payload.grad, grad, rtol=2**-10, atol=1e-4)
            assert wire_nbytes < n * 4  # half-precision actually shrank the frame
        else:  # topk ships ceil(10%) of coordinates, exact where it ships
            nonzero = np.nonzero(decoded.payload.grad)[0]
            assert 1 <= len(nonzero) <= 103
            np.testing.assert_allclose(
                decoded.payload.grad[nonzero], grad[nonzero], rtol=1e-6
            )
    finally:
        a.close()
        b.close()


def test_decoded_messages_do_not_alias_recv_buffer():
    """The reusable receive buffer is overwritten by every read; anything a
    decoded message retains must therefore be owned, not borrowed."""
    left, right = socket.socketpair()
    a, b = FrameConnection(left), FrameConnection(right)
    try:
        first = RunEnd(bn_stats=((np.ones(50), np.full(50, 2.0)),))
        second = RunEnd(bn_stats=((np.full(50, 9.0), np.full(50, 8.0)),))
        a.send_message(first)
        a.send_message(second)
        d1, _ = b.recv()
        d2, _ = b.recv()  # overwrites the buffer d1 was decoded from
        np.testing.assert_array_equal(d1.bn_stats[0][0], np.ones(50, dtype=np.float32))
        np.testing.assert_array_equal(d2.bn_stats[0][0], np.full(50, 9.0, dtype=np.float32))
    finally:
        a.close()
        b.close()
