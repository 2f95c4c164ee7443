"""Wire layer for proc workers and fleet agents: zero-copy framing + the derived codec.

Every frame on a socket is::

    [u32 frame length][header][part records][JSON blob][array part buffers]

The header is one little-endian ``struct`` whose layout is derived once
per frame class, at import, from the :mod:`repro.runtime.messages`
dataclasses (every :class:`~repro.runtime.messages.Frame` subclass but the
:class:`~repro.runtime.messages.Message` base).  In order it holds:

* the protocol version (u16) and the frame's kind id (u16: the index of
  its class name among the sorted frame class names, so adding a frame is
  a version bump, as adding a field is);
* the delivery ``delay`` (f64: the emulated downlink occupancy the
  receiver sleeps out, the :class:`~repro.runtime.transport.Mailbox`
  contract) and the sender's *logical* byte count ``nbytes`` (u64: what
  the run's accounting charges, independent of compression);
* the number of part records (u32) and the byte length of the JSON blob
  (u32, 0 when there is none);
* the scalar fields in :func:`dataclasses.fields` order, a nested payload
  dataclass (:class:`~repro.core.state.WorkerState`, :class:`~repro.core.
  state.GradientPayload`, :class:`~repro.core.state.CompensationReply`)
  inlined where its field stands: ``int`` as i64, ``float`` as f64, one
  presence byte per ``Optional`` (an absent payload's scalars are zeros),
  and one u32 count per variable-length list or tuple.

Then comes one fixed record per array part (u8 encoding code, u8 dtype
code, u64 element count, u64 element count of the array it belongs to),
in field order; the codecs (:mod:`repro.runtime.codecs`) decide how many
parts an array ships and number the encodings and dtypes.  Arrays travel
as vectors: an array of any other rank is refused at encode.  The JSON
blob is a list of the ``str``, ``bool``, ``list`` and ``dict`` values in
field order.  Those are documents (a ``TrainingConfig``, a spec, a
``RunResult``, trace rows) whose size varies with their content whatever
the encoding, and only the per-run frames (the proc handshake,
:class:`~repro.runtime.messages.RunConfig`, :class:`~repro.runtime.
messages.RunEnd` and the fleet frames) have such fields.  So every
per-message frame's length is a function of its kind, its codec and its
array sizes, and every frame has one header format.  Array data follows
as raw buffers in record order; nothing is ever pickled.  Adding a frame
means adding a dataclass; there is no per-kind encoder.  An array in a
field named ``grad`` travels under the gradient codec role, one named
``weights`` under the weights role and any other as BN statistics, so
``topk`` sparsifies gradients only.

Decoding is strict.  It accepts only known kind ids and dtype codes, a
presence byte of 0 or 1 (with zeros behind a 0), counts the payload
covers, blob values of their field's type and a frame with no unclaimed
byte; anything else raises :class:`WireError`, never another exception,
so a reader can treat that one type as "this peer is broken".  An ``int``
outside i64 fails at encode with :class:`WireError` too.

The data plane is zero-copy in both directions:

* **send** — :func:`encode_message_into` returns ``(prefix, buffers)``
  where the buffers are the codec's contiguous arrays themselves;
  :meth:`FrameConnection.send_message` hands them to a vectored
  ``socket.sendmsg`` with no payload join.
* **receive** — :meth:`FrameConnection.read_frame` fills a reusable
  per-connection buffer via ``recv_into`` and returns a read-only view
  of it (valid until the next read); :func:`decode` builds arrays as
  ``np.frombuffer`` views with ``copy=False`` and copies each one the
  codec does not already own (a gradient straight to the float64 its
  payload keeps), so a decoded message never aliases the receive buffer.

:func:`encode_message` and :func:`decode` are exact inverses for every
frame type (``tests/runtime/test_wire.py`` round-trips each one and
fuzzes the decoder).

Version negotiation: every header starts with the version, and
:func:`decode` runs the single :func:`check_protocol_version` path, so an
older peer (proc child or fleet agent alike) is rejected with a reason on
its first frame rather than failing opaquely mid-run.  A v5-or-older
frame (``[u32 header length][JSON header]``) is recognised by its ``{``
and refused by the version its JSON names.
"""

from __future__ import annotations

import dataclasses
import json
import socket
import struct
import typing
from operator import attrgetter, itemgetter
from typing import Any, Callable, List, Optional, Tuple, Union

import numpy as np

from repro.runtime import codecs as codecs_mod
from repro.runtime.codecs import (
    GradientCodec,
    RAW32,
    ROLE_BN,
    ROLE_GRAD,
    ROLE_WEIGHTS,
    decode_array,
    entry_nbytes,
)
from repro.runtime.messages import Frame, Message

#: bumped whenever the header schema or codec tables change incompatibly;
#: v2 = codec-entry array metadata + logical ``nbytes`` in the header;
#: v3 = fields derived structurally from the message dataclasses;
#: v4 = ``WeightExchange.step`` and ``GossipReport.local_step`` dropped;
#: v5 = the proc handshake, the run-end report and the fleet frames are
#: typed frames too (no control documents, no separate fleet version);
#: v6 = a binary header whose layout is derived per frame class (no JSON
#: header; documents ride a JSON blob)
PROTOCOL_VERSION = 6

#: refuse frames beyond this size — enforced on *both* ends: a corrupt
#: length prefix must not trigger a gigabyte allocation, and an oversized
#: send must fail loudly here, not opaquely on the peer
MAX_FRAME_BYTES = 1 << 30

_LEN = struct.Struct(">I")
#: what every header starts with: the protocol version and the kind id
_HEAD = struct.Struct("<HH")
#: one array part: encoding code, dtype code, element count, array size
_PART = struct.Struct("<BBQQ")
#: an encoding's or a part dtype's wire code is its index here
_ENCODINGS = list(codecs_mod.ENCODINGS)
_DTYPES = [np.dtype(name) for name in codecs_mod.PART_DTYPES]


class WireError(RuntimeError):
    """Malformed frame, unknown message kind, or protocol violation."""


class ConnectionClosed(WireError):
    """The peer closed the socket mid-stream (EOF before a full frame)."""


class ProtocolMismatch(WireError):
    """The peer speaks a different protocol version (reject with reason)."""


def check_protocol_version(got: Any, want: int) -> None:
    """The one version gate: every frame's header goes through it."""
    if got != want:
        raise ProtocolMismatch(f"protocol mismatch: peer speaks v{got}, we speak v{want}")


# ---------------------------------------------------------------------- #
# the derived codec: one _Field per annotation, built once at import.
# Encoders take ``(value, scalars, arrays, blob)`` and append to the
# header's struct values, the (role, array) pairs and the JSON documents;
# decoders take iterators ``(scalars, arrays, blob)`` over the same three
# streams, whose arrays are ``(array, owned)`` pairs, and read them in order.
# ---------------------------------------------------------------------- #
#: array roles by field name; every other array is BN statistics
_ROLES = {"grad": ROLE_GRAD, "weights": ROLE_WEIGHTS}


class _Field:
    """One annotation's wire form: its struct codes, its encoder and decoder."""

    def __init__(self, fmt: str, encode: Callable, decode: Callable) -> None:
        self.fmt, self.encode, self.decode = fmt, encode, decode


def _expect(kind: type, node: Any) -> Any:
    if type(node) is not kind:  # exact: a bool is not an int in a document
        raise WireError(f"expected {kind.__name__}, got {node!r}")
    return node


def _field(annotation: Any, role: str) -> _Field:
    """The wire form of one annotation; ``role`` tags its arrays."""
    if annotation in (int, float):  # struct fixes the type on decode
        code = "q" if annotation is int else "d"
        return _Field(code, lambda v, s, a, b: s.append(annotation(v)), lambda s, a, b: next(s))
    if annotation in (str, bool, list, dict):  # documents, trace rows
        return _Field("", lambda v, s, a, b: b.append(annotation(v)),
                      lambda s, a, b: _expect(annotation, next(b)))
    if annotation is np.ndarray:
        # a gradient's view is copied once, straight to its payload's float64
        dtype = np.float64 if role == ROLE_GRAD else None

        def dec_array(scalars, arrays, blob):
            array, owned = next(arrays)
            return array if owned else np.array(array, dtype=dtype)  # copy the view

        return _Field("", lambda v, s, a, b: a.append((role, v)), dec_array)
    origin, args = typing.get_origin(annotation), typing.get_args(annotation)
    if origin is Union and len(args) == 2 and args[1] is type(None):
        inner = _field(args[0], role)
        absent = [0] + [0.0 if code == "d" else 0 for code in inner.fmt]

        def enc_optional(value, scalars, arrays, blob):
            if value is None:
                return scalars.extend(absent)
            scalars.append(1)
            inner.encode(value, scalars, arrays, blob)

        def dec_optional(scalars, arrays, blob):
            present = next(scalars)
            if present == 1:
                return inner.decode(scalars, arrays, blob)
            if present != 0:
                raise WireError(f"bad presence byte {present}")
            if any([next(scalars) for _ in inner.fmt]):
                raise WireError("an absent value's scalars are not zeros")
            return None

        return _Field("B" + inner.fmt, enc_optional, dec_optional)
    if origin is list or (origin is tuple and args[-1:] == (Ellipsis,)):
        item = _field(args[0], role)
        if item.fmt:  # a count would not fix the header's layout
            raise TypeError(f"no wire form for a list of scalars: {annotation!r}")

        def enc_list(value, scalars, arrays, blob):
            scalars.append(len(value))
            for v in value:
                item.encode(v, scalars, arrays, blob)

        return _Field("I", enc_list,
                      lambda s, a, b: origin([item.decode(s, a, b) for _ in range(next(s))]))
    if origin is tuple:  # fixed length, e.g. one BN layer's (mean, var)
        return _record(tuple, [(itemgetter(i), _field(t, role)) for i, t in enumerate(args)])
    if dataclasses.is_dataclass(annotation):
        hints = typing.get_type_hints(annotation)
        return _record(annotation, [
            (attrgetter(f.name), _field(hints[f.name], _ROLES.get(f.name, ROLE_BN)))
            for f in dataclasses.fields(annotation)
        ])
    raise TypeError(f"no wire form for annotation {annotation!r}")


def _record(cls: type, items: List[Tuple[Callable, _Field]]) -> _Field:
    """Fields read by their getters and built back by ``cls``: a tuple by
    position, a dataclass by attribute."""
    build = (lambda *values: values) if cls is tuple else cls

    def encode(value, scalars, arrays, blob):
        if cls is tuple and len(value) != len(items):
            raise WireError(f"expected {len(items)} items, got {len(value)}")
        for get, item in items:
            item.encode(get(value), scalars, arrays, blob)

    def decode(scalars, arrays, blob):
        values = [item.decode(scalars, arrays, blob) for _, item in items]
        try:
            return build(*values)
        except (TypeError, ValueError) as exc:  # __post_init__ checks, e.g. a NaN loss
            raise WireError(f"invalid {cls.__name__}: {exc}")

    return _Field("".join(item.fmt for _, item in items), encode, decode)


class _Spec:
    """One frame class's wire schema: its kind id and header struct."""

    def __init__(self, kind: int, cls: type) -> None:
        self.kind, self.cls, self.name, self.field = kind, cls, cls.__name__, _field(cls, ROLE_BN)
        self.head = struct.Struct("<HHdQII" + self.field.fmt)


def _frame_classes(base: type = Frame) -> List[type]:
    """Every concrete frame class: each subclass of ``base`` but Message."""
    found = []
    for cls in base.__subclasses__():
        found += ([] if cls is Message else [cls]) + _frame_classes(cls)
    return found


#: every frame, by kind id (the index of its class name in sorted order)
_FRAMES = [
    _Spec(kind, cls)
    for kind, cls in enumerate(sorted(_frame_classes(), key=attrgetter("__name__")))
]
_BY_CLASS = {spec.cls: spec for spec in _FRAMES}


# ---------------------------------------------------------------------- #
# frame encode/decode
# ---------------------------------------------------------------------- #
def _flatten(message: Frame) -> Tuple[_Spec, list, list, list]:
    """A frame's spec and its (scalars, role-tagged arrays, blob) streams."""
    spec = _BY_CLASS.get(type(message))
    if spec is None:
        raise WireError(f"no wire codec for {type(message).__name__}")
    scalars, arrays, blob = [], [], []
    spec.field.encode(message, scalars, arrays, blob)
    return spec, scalars, arrays, blob


def encode_message_into(
    message: Frame,
    delay: float = 0.0,
    nbytes: int = 0,
    codec: Optional[GradientCodec] = None,
) -> Tuple[bytes, List[np.ndarray]]:
    """Serialize one frame without joining the payload.

    Returns ``(prefix, buffers)``: the prefix is the header, the part
    records and the JSON blob; the buffers are the codec's contiguous
    arrays, ready for a vectored send.  ``nbytes`` is the sender's logical
    byte count, carried in the header so both ends account identically.
    """
    spec, scalars, role_arrays, blob = _flatten(message)
    parts, buffers = [], []
    for role, array in role_arrays:
        entry, bufs = (codec or RAW32).encode(role, array)
        if len(entry["shape"]) != 1:
            raise WireError(f"arrays cross the wire as vectors, got shape {entry['shape']}")
        code, (size,) = _ENCODINGS.index(entry["enc"]), entry["shape"]
        parts += [_PART.pack(code, _DTYPES.index(p["dtype"]), p["n"], size) for p in entry["parts"]]
        buffers += bufs
    doc = json.dumps(blob, separators=(",", ":")).encode("utf-8") if blob else b""
    try:
        head = spec.head.pack(
            PROTOCOL_VERSION, spec.kind, delay, nbytes, len(parts), len(doc), *scalars
        )
    except struct.error as exc:  # e.g. an int outside i64
        raise WireError(f"cannot encode {spec.name}: {exc}")
    return b"".join([head, *parts, doc]), buffers


def encode_message(
    message: Frame,
    delay: float = 0.0,
    nbytes: int = 0,
    codec: Optional[GradientCodec] = None,
) -> bytes:
    """Joined-payload variant of :func:`encode_message_into` (tests, and
    transports without vectored sends)."""
    prefix, buffers = encode_message_into(message, delay=delay, nbytes=nbytes, codec=codec)
    return b"".join([prefix] + [memoryview(b).cast("B") for b in buffers])


def _decode_arrays(view: memoryview, records: Any, offset: int, copy: bool) -> List[Any]:
    """Each array's parts, read from ``offset`` on (views when
    ``copy=False``) and decoded by its encoding: ``(array, owned)`` pairs."""
    arrays, parts = [], []  # parts: the current array's, until it has all of them
    try:
        for code, dtype, n, size in records:
            if code >= len(_ENCODINGS) or dtype >= len(_DTYPES):
                raise WireError(f"unknown encoding code {code} or disallowed dtype code {dtype}")
            if parts and (code, size) != first:
                raise WireError(f"an array's part records disagree: {first} vs {(code, size)}")
            if n * _DTYPES[dtype].itemsize > view.nbytes - offset:
                raise WireError(f"array payload truncated: {n} x {_DTYPES[dtype]} past the frame")
            parts.append(np.frombuffer(view, dtype=_DTYPES[dtype], count=n, offset=offset))
            offset, first = offset + parts[-1].nbytes, (code, size)
            if len(parts) == codecs_mod.ENCODINGS[_ENCODINGS[code]]:
                entry = {"enc": _ENCODINGS[code], "shape": (size,)}
                arrays.append(decode_array(entry, parts, copy))
                parts = []
    except (LookupError, TypeError, ValueError) as exc:  # CodecError is a ValueError
        raise WireError(f"malformed array: {exc!r}")
    if parts or offset != view.nbytes:
        raise WireError(f"frame ends mid-array or carries {view.nbytes - offset} unclaimed byte(s)")
    return arrays


def decode_frame(
    payload: Union[bytes, bytearray, memoryview], copy: bool = True
) -> Tuple[Frame, float, int]:
    """Inverse of :func:`encode_message`: ``(frame, delay, logical_nbytes)``.

    With ``copy=False`` array data is read straight out of ``payload`` with
    no intermediate copy; every array a frame retains is still owned, so
    decoded frames never alias the buffer.  Any malformed frame raises
    :class:`WireError`.
    """
    view = memoryview(payload)
    if view.nbytes < _HEAD.size:
        raise WireError(f"frame too short for a header ({view.nbytes} bytes)")
    version, kind = _HEAD.unpack_from(view)
    if version != PROTOCOL_VERSION and bytes(view[4:5]) == b"{":  # v5 or older: JSON
        try:
            version = json.loads(bytes(view[4 : 4 + _LEN.unpack_from(view)[0]])).get("v")
        except (ValueError, AttributeError, RecursionError) as exc:
            raise WireError(f"unparseable JSON frame header: {exc}")
    check_protocol_version(version, PROTOCOL_VERSION)
    if kind >= len(_FRAMES):
        raise WireError(f"unknown frame kind {kind}")
    spec = _FRAMES[kind]
    if view.nbytes < spec.head.size:
        raise WireError(f"truncated {spec.name} header: {view.nbytes} of {spec.head.size} bytes")
    head = spec.head.unpack_from(view)
    offset = spec.head.size + head[4] * _PART.size
    if offset + head[5] > view.nbytes:
        raise WireError(f"{head[4]} part record(s) and a {head[5]}-byte blob run past the frame")
    records = _PART.iter_unpack(view[spec.head.size : offset]) if head[4] else ()
    blob = []
    if head[5]:
        try:
            blob = _expect(list, json.loads(bytes(view[offset : offset + head[5]])))
        except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON
            raise WireError(f"unparseable JSON blob: {exc}")
    arrays, blob = iter(_decode_arrays(view, records, offset + head[5], copy)), iter(blob)
    try:
        frame = spec.field.decode(iter(head[6:]), arrays, blob)
    except StopIteration:
        raise WireError(f"{spec.name} claims more arrays or documents than it carries")
    if any(True for _ in arrays) or any(True for _ in blob):  # anything left unread
        raise WireError(f"{spec.name} carries unclaimed arrays or documents")
    return frame, head[2], head[3]


def decode(
    payload: Union[bytes, bytearray, memoryview], copy: bool = True
) -> Tuple[Frame, float]:
    """:func:`decode_frame` without the byte accounting: ``(frame, delay)``."""
    return decode_frame(payload, copy=copy)[:2]


def codec_roundtrip_message(
    message: Message, codec: GradientCodec, nbytes: int
) -> Tuple[Message, int]:
    """Apply a codec's lossy encode/decode to an in-memory message.

    What the in-process transports use to emulate compression without a
    socket: returns the message as the peer would decode it, plus the
    wire byte count (the logical ``nbytes`` with each array's float32
    footprint swapped for its encoded footprint).
    """
    spec, scalars, role_arrays, blob = _flatten(message)
    arrays = []
    wire_nbytes = int(nbytes)
    for role, array in role_arrays:
        entry, buffers = codec.encode(role, array)
        decoded, _ = decode_array(entry, buffers, copy=False)
        arrays.append((decoded, True))
        # logical accounting charges float32 per element; swap that for
        # the encoded footprint to get what a socket would carry
        wire_nbytes += entry_nbytes(entry) - 4 * decoded.size
    return spec.field.decode(iter(scalars), iter(arrays), iter(blob)), max(0, wire_nbytes)


# ---------------------------------------------------------------------- #
# socket framing
# ---------------------------------------------------------------------- #
class FrameConnection:
    """One framed, length-prefixed socket with a zero-copy data plane.

    Sends are vectored (``sendmsg`` over the codec's buffers, no join);
    reads fill a reusable per-connection buffer via ``recv_into`` and
    hand out read-only views of it.  ``codec`` is this connection's
    *outgoing* gradient codec (decode is stateless, so the two directions
    may run different codecs).

    Thread contract: at most one sender and one reader at a time; callers
    with multiple sending threads (e.g. a fleet link's scheduler and its
    heartbeat) hold their own per-connection send lock.
    """

    def __init__(self, sock: socket.socket, codec: Optional[GradientCodec] = None) -> None:
        self._sock = sock
        self.codec = codec
        self._len_buf = bytearray(_LEN.size)
        self._recv_buf = bytearray(4096)
        try:  # latency matters more than throughput for 4-message cycles
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except (OSError, ValueError):
            pass  # not a TCP socket (tests use socketpair)

    # -------------------------------------------------------------- #
    def send_parts(self, parts: List[Union[bytes, memoryview, np.ndarray]]) -> int:
        """Vectored send of one frame; returns bytes put on the wire.

        Raises :class:`WireError` *here* when the frame exceeds
        :data:`MAX_FRAME_BYTES` — the sender-side half of the cap.
        """
        bufs = [memoryview(p).cast("B") for p in parts]
        total = sum(b.nbytes for b in bufs)
        if total > MAX_FRAME_BYTES:
            raise WireError(
                f"outgoing frame length {total} exceeds cap {MAX_FRAME_BYTES}"
            )
        bufs.insert(0, memoryview(_LEN.pack(total)))
        sendmsg = getattr(self._sock, "sendmsg", None)
        if sendmsg is None:  # pragma: no cover - all supported platforms have it
            self._sock.sendall(b"".join(bufs))
            return total + _LEN.size
        while bufs:
            sent = sendmsg(bufs)
            while sent > 0:
                if sent >= bufs[0].nbytes:
                    sent -= bufs[0].nbytes
                    bufs.pop(0)
                else:
                    bufs[0] = bufs[0][sent:]
                    sent = 0
        return total + _LEN.size

    def send_frame(self, payload: Union[bytes, memoryview]) -> int:
        return self.send_parts([payload])

    def send_message(
        self, message: Frame, delay: float = 0.0, nbytes: int = 0
    ) -> int:
        """Encode with this connection's codec and send; returns wire bytes."""
        prefix, buffers = encode_message_into(
            message, delay=delay, nbytes=nbytes, codec=self.codec
        )
        return self.send_parts([prefix] + buffers)

    # -------------------------------------------------------------- #
    def _recv_exact_into(self, buf: Union[bytearray, memoryview], n: int) -> None:
        view = memoryview(buf)
        got = 0
        while got < n:
            received = self._sock.recv_into(view[got:n])
            if received == 0:
                raise ConnectionClosed("peer closed the connection mid-frame")
            got += received

    def read_frame(self) -> memoryview:
        """Read one frame into the reusable buffer; returns a read-only
        view of it, valid until the next :meth:`read_frame` call."""
        self._recv_exact_into(self._len_buf, _LEN.size)
        (length,) = _LEN.unpack(self._len_buf)
        if length > MAX_FRAME_BYTES:
            raise WireError(f"frame length {length} exceeds cap {MAX_FRAME_BYTES}")
        if len(self._recv_buf) < length:
            self._recv_buf = bytearray(max(length, 2 * len(self._recv_buf)))
        self._recv_exact_into(self._recv_buf, length)
        view = memoryview(self._recv_buf)[:length]
        return view.toreadonly() if hasattr(view, "toreadonly") else view

    def recv(self) -> Tuple[Frame, float]:
        """Read and decode the next frame: ``(frame, delay)``."""
        return self.recv_info()[:2]

    def recv_info(
        self,
    ) -> Tuple[Frame, float, int, int]:
        """Read and decode one frame with its byte accounting.

        Returns ``(frame, delay, logical_nbytes, wire_nbytes)``
        where ``wire_nbytes`` is what actually crossed the socket
        (length prefix included).
        """
        view = self.read_frame()
        obj, delay, nbytes = decode_frame(view, copy=False)
        return obj, delay, nbytes, view.nbytes + _LEN.size

    # -------------------------------------------------------------- #
    def settimeout(self, timeout: Union[float, None]) -> None:
        """Deadline for subsequent socket reads/writes (None = blocking)."""
        self._sock.settimeout(timeout)

    def fileno(self) -> int:
        """The socket's descriptor, so a selector can watch this connection."""
        return self._sock.fileno()

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass
