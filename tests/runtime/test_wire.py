"""Wire layer: every frame type round-trips exactly; framing survives sockets;
malformed frames raise WireError and nothing else."""

import dataclasses
import json
import socket
import threading
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.state import CompensationReply, GradientPayload, WorkerState
from repro.runtime.codecs import make_codec
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


def test_every_message_type_has_a_round_trip_case():
    # the codec is derived from the dataclasses, so this is what catches a
    # new frame type (message, handshake, run-end or fleet) that nobody
    # round-tripped
    concrete = {
        cls
        for cls in vars(messages_mod).values()
        if isinstance(cls, type) and issubclass(cls, Frame) and cls not in (Frame, Message)
    }
    assert concrete == {type(m) for m in _messages()}


def _split(frame):
    """(header dict, array payload bytes) of an encoded message frame."""
    end = wire._LEN.size + wire._LEN.unpack_from(frame)[0]
    return json.loads(frame[wire._LEN.size : end]), frame[end:]


def _header(frame):
    return _split(frame)[0]


def _position(cls, name):
    return [f.name for f in dataclasses.fields(cls)].index(name)


@pytest.mark.parametrize("message", _messages(), ids=lambda m: type(m).__name__)
def test_topk_compresses_the_grad_field_only(message):
    header = _header(encode_message(message, codec=make_codec("topk")))
    grads = set()
    if hasattr(message, "payload"):
        payload = header["fields"][_position(type(message), "payload")]["GradientPayload"]
        grads.add(payload[_position(GradientPayload, "grad")])
    encodings = [entry["enc"] for entry in header["arrays"]]
    assert encodings == ["topk" if i in grads else "raw" for i in range(len(encodings))]
    assert bool(grads) == isinstance(message, (GradientPush, CombinedPush))


@pytest.mark.parametrize(
    "fields, match",
    [
        ([0, 1.0, 1], "PullRequest takes 1 to 2 fields, got 3"),  # an unknown field
        ([], "PullRequest takes 1 to 2 fields, got 0"),  # worker is required
        ([0, "soon"], "expected float"),
        ([True], "expected int"),
        ({"worker": 0}, "expected list"),
    ],
)
def test_decode_is_strict_about_fields(fields, match):
    frame = encode_message(PullRequest(0, sent_at=1.0))
    header = _header(frame)
    header["fields"] = fields
    with pytest.raises(WireError, match=match):
        decode(_frame(header))


def test_decode_accepts_only_whitelisted_payload_types():
    header = _header(encode_message(StatePush(1, state=_state(bn_layers=0))))
    state = header["fields"][_position(StatePush, "state")]
    state["PullRequest"] = state.pop("WorkerState")  # a real class, not this payload
    with pytest.raises(WireError, match="expected a WorkerState payload"):
        decode(_frame(header))


def test_decode_rejects_garbage():
    with pytest.raises(WireError):
        decode(b"\x00")  # too short for a header length
    with pytest.raises(WireError):
        decode(b"\x00\x00\x00\xffgarbage")  # header length beyond frame
    with pytest.raises(WireError):
        decode(encode_message(PullRequest(0))[:-1] + b"")  # fine, full...
    # wrong protocol version
    version = f'"v":{wire.PROTOCOL_VERSION}'.encode()
    bad = encode_message(Hello(0, token="t")).replace(version, b'"v":9')
    with pytest.raises(WireError, match="protocol mismatch"):
        decode(bad)


def _frame(header, body=b""):
    raw = json.dumps(header).encode("utf-8")
    return wire._LEN.pack(len(raw)) + raw + body


def _with_header(message, **changes):
    header, body = _split(encode_message(message))
    header.update(changes)
    return _frame(header, body)


@pytest.mark.parametrize(
    "frame",
    [
        _with_header(PullRequest(0), fields=[]),  # no worker
        _with_header(PullRequest(0), fields=["x", 0.0]),
        _with_header(PullRequest(0), fields={"worker": 0, "sent_at": 0.0}),
        _frame(dict(_header(encode_message(GradientPush(1, payload=_payload()))), arrays=[])),
        _with_header(GradientPush(1, payload=_payload(n=4)), arrays=3),
        _with_header(PullRequest(0), kind=["PullRequest"]),
        _frame([wire.PROTOCOL_VERSION, "PullRequest"]),
    ],
    ids=["missing-worker", "str-worker", "object-fields", "no-arrays", "int-arrays",
         "list-kind", "list-header"],
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
    how = draw(st.sampled_from(["truncate", "replace", "key"]))
    if how == "truncate":
        return frame[: draw(st.integers(0, len(frame) - 1))]
    header, body = _split(frame)
    nodes = list(_nodes(header))
    if how == "replace":
        path, _ = draw(st.sampled_from(nodes))
        header = _replace(header, path, draw(_json))
    else:
        dicts = [(path, node) for path, node in nodes if isinstance(node, dict) and node]
        path, node = draw(st.sampled_from(dicts))
        key = draw(st.sampled_from(sorted(node)))
        value = node.pop(key)
        if draw(st.booleans()):  # rename instead of delete
            node[draw(st.text(max_size=8))] = value
    return _frame(header, body)


@given(_fuzzed_frames())
@settings(max_examples=400, deadline=None)
def test_fuzzed_frames_decode_or_raise_wire_error(frame):
    try:
        obj, delay, nbytes = wire.decode_frame(frame, copy=False)
    except WireError:
        return
    assert type(delay) is float and type(nbytes) is int
    assert isinstance(obj, Frame) and _fields_conform(obj)


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
