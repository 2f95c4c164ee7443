"""Wire layer for proc workers and fleet agents: zero-copy framing + the derived codec.

Every frame on a socket is::

    [u32 frame length][u32 header length][header JSON][array part buffers]

The header is a small JSON document carrying the frame's kind (its class
name), its fields, an optional delivery ``delay`` (the emulated downlink
occupancy the receiver sleeps out — the :class:`~repro.runtime.transport.
Mailbox` contract), the sender's *logical* byte count (``nbytes`` — what
the run's accounting charges, independent of compression), and one
self-describing codec entry per array payload (:mod:`repro.runtime.codecs`).
Array data travels as raw buffers appended after the header in entry
order; nothing is ever pickled.

The codec is derived from the :mod:`repro.runtime.messages` dataclasses
(every :class:`~repro.runtime.messages.Frame` subclass but the
:class:`~repro.runtime.messages.Message` base), so adding a frame means
adding a dataclass; there is no per-kind encoder.  A frame's fields travel
as a JSON list in :func:`dataclasses.fields` order (so field order is part
of the protocol), each written by its annotation:

* ``int``/``float`` scalars and ``None`` ride the header as they are, and
  so do ``str``, ``bool``, ``list`` and ``dict`` values (JSON documents,
  made JSON-able by the sender and checked only for their own type);
* each ``np.ndarray`` becomes the index ``i`` of its codec entry.  Its
  role is ``grad`` for a field named ``grad``, ``weights`` for one named
  ``weights`` and BN statistics otherwise, so ``topk`` sparsifies
  gradients only;
* tuples and lists are JSON lists, and decode back to the type their
  annotation names;
* a nested payload dataclass (:class:`~repro.core.state.WorkerState`,
  :class:`~repro.core.state.GradientPayload`, :class:`~repro.core.state.
  CompensationReply`) becomes ``{name: [...fields]}``.

Decoding is strict.  It accepts only the frame class names and, in each
payload slot, only the dataclass the annotation names; it refuses extra
fields and missing required ones, and checks every value against its
field's annotation.  Anything malformed raises :class:`WireError`, never another
exception, so a reader can treat that one type as "this peer is broken".

The data plane is zero-copy in both directions:

* **send** — :func:`encode_message_into` returns ``(prefix, buffers)``
  where the buffers are the codec's contiguous arrays themselves;
  :meth:`FrameConnection.send_message` hands them to a vectored
  ``socket.sendmsg`` with no payload join.
* **receive** — :meth:`FrameConnection.read_frame` fills a reusable
  per-connection buffer via ``recv_into`` and returns a read-only view
  of it (valid until the next read); :func:`decode` builds arrays as
  ``np.frombuffer`` views with ``copy=False`` and copies each one the
  codec does not already own, so a decoded message never aliases the
  receive buffer.

There is one frame flavor: the cycle's messages, the proc handshake and
run-end report, and the fleet's campaign frames all ride this codec, and
:func:`encode_message` / :func:`decode` are exact inverses for every type
(``tests/runtime/test_wire.py`` round-trips each one and fuzzes the
decoder).

Version negotiation: the header carries ``v`` and :func:`decode` runs the
single :func:`check_protocol_version` path, so an older peer — proc child
or fleet agent alike — is rejected with a reason on its first frame
rather than failing opaquely mid-run.
"""

from __future__ import annotations

import dataclasses
import json
import socket
import struct
import typing
from dataclasses import MISSING
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

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
#: typed frames too (no control documents, no separate fleet version)
PROTOCOL_VERSION = 5

#: refuse frames beyond this size — enforced on *both* ends: a corrupt
#: length prefix must not trigger a gigabyte allocation, and an oversized
#: send must fail loudly here, not opaquely on the peer
MAX_FRAME_BYTES = 1 << 30

_LEN = struct.Struct(">I")


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
# the derived codec: one (encode, decode) pair per field annotation, built
# once at import.  Encoders append (role, array) to ``arrays``; decoders
# read ``arrays`` and copy each one whose ``owned`` flag says it is a view
# of the receive buffer.
# ---------------------------------------------------------------------- #
#: array roles by field name; every other array is BN statistics
_ROLES = {"grad": ROLE_GRAD, "weights": ROLE_WEIGHTS}


def _expect(kind: type, node: Any) -> Any:
    if type(node) is not kind:  # exact: a bool is not an int on the wire
        raise WireError(f"expected {kind.__name__}, got {node!r}")
    return node


def _dec_int(node: Any, *_) -> int:
    return _expect(int, node)


def _dec_float(node: Any, *_) -> float:
    # the sender held an int, as float(...) accepted; a huge one overflows
    if type(node) is int and abs(node) < 1e308:
        return float(node)
    return _expect(float, node)


def _dec_array(index: Any, arrays: List[np.ndarray], owned: List[bool]) -> np.ndarray:
    if type(index) is not int or not 0 <= index < len(arrays):
        raise WireError(f"expected an array index, got {index!r}")
    # a borrowed array is a view of the receive buffer: copy it
    return arrays[index] if owned[index] else np.array(arrays[index])


def _field_codec(annotation: Any, role: str) -> Tuple[Callable, Callable]:
    """(encode, decode) for one annotation; ``role`` tags its arrays."""
    if annotation is int:
        return (lambda value, arrays: int(value)), _dec_int
    if annotation is float:
        return (lambda value, arrays: float(value)), _dec_float
    if annotation in (str, bool, list, dict):  # JSON leaves: documents, trace rows
        return (lambda value, arrays: annotation(value)), (
            lambda node, *_: _expect(annotation, node)
        )
    if annotation is np.ndarray:

        def enc_array(value, arrays):
            arrays.append((role, value))
            return len(arrays) - 1

        return enc_array, _dec_array
    origin, args = typing.get_origin(annotation), typing.get_args(annotation)
    if origin is Union and len(args) == 2 and args[1] is type(None):
        enc, dec = _field_codec(args[0], role)
        return (
            lambda value, arrays: None if value is None else enc(value, arrays),
            lambda node, arrays, owned: None if node is None else dec(node, arrays, owned),
        )
    if origin is list or (origin is tuple and args[-1:] == (Ellipsis,)):
        enc, dec = _field_codec(args[0], role)
        return (
            lambda value, arrays: [enc(v, arrays) for v in value],
            lambda node, arrays, owned: origin(
                [dec(v, arrays, owned) for v in _expect(list, node)]
            ),
        )
    if origin is tuple:  # fixed length, e.g. one BN layer's (mean, var)
        items = [_field_codec(arg, role) for arg in args]

        def enc_fixed(value, arrays):
            return [enc(v, arrays) for (enc, _), v in zip(items, value)]

        def dec_fixed(node, arrays, owned):
            if len(_expect(list, node)) != len(items):
                raise WireError(f"expected {len(items)} items, got {node!r}")
            return tuple([dec(v, arrays, owned) for (_, dec), v in zip(items, node)])

        return enc_fixed, dec_fixed
    if dataclasses.is_dataclass(annotation):
        spec = _Spec(annotation)

        def enc_payload(value, arrays):
            return {spec.name: spec.encode(value, arrays)}

        def dec_payload(node, arrays, owned):
            if type(node) is not dict or len(node) != 1 or spec.name not in node:
                raise WireError(f"expected a {spec.name} payload, got {node!r}")
            return spec.decode(node[spec.name], arrays, owned)

        return enc_payload, dec_payload
    raise TypeError(f"no wire form for annotation {annotation!r}")


class _Spec:
    """One dataclass's wire schema: a codec per field, in field order.

    Fields travel positionally, as a JSON list in :func:`dataclasses.fields`
    order.  Fields without a default lead (dataclasses require it), so a
    frame may omit only a tail of defaulted fields.
    """

    def __init__(self, cls: type) -> None:
        hints = typing.get_type_hints(cls)
        fields = dataclasses.fields(cls)
        self.cls = cls
        self.name = cls.__name__
        codecs = [_field_codec(hints[f.name], _ROLES.get(f.name, ROLE_BN)) for f in fields]
        self.encoders = [(f.name, enc) for f, (enc, _) in zip(fields, codecs)]
        self.decoders = [dec for _, dec in codecs]
        self.required = sum(f.default is f.default_factory is MISSING for f in fields)

    def encode(self, obj: Any, arrays: List[Tuple[str, np.ndarray]]) -> List[Any]:
        return [enc(getattr(obj, name), arrays) for name, enc in self.encoders]

    def decode(self, values: Any, arrays: List[np.ndarray], owned: List[bool]) -> Any:
        if not self.required <= len(_expect(list, values)) <= len(self.decoders):
            raise WireError(
                f"{self.name} takes {self.required} to {len(self.decoders)} fields, "
                f"got {len(values)}"
            )
        args = [dec(v, arrays, owned) for dec, v in zip(self.decoders, values)]
        try:
            return self.cls(*args)
        except (TypeError, ValueError) as exc:  # __post_init__ checks, e.g. a NaN loss
            raise WireError(f"invalid {self.name}: {exc}")


def _frame_classes(base: type = Frame) -> List[type]:
    """Every concrete frame class: each subclass of ``base`` but Message."""
    found = []
    for cls in base.__subclasses__():
        found += ([] if cls is Message else [cls]) + _frame_classes(cls)
    return found


#: every frame, by kind (its class name)
_FRAMES = {cls.__name__: _Spec(cls) for cls in _frame_classes()}
_BY_CLASS = {spec.cls: spec for spec in _FRAMES.values()}


# ---------------------------------------------------------------------- #
# frame encode/decode
# ---------------------------------------------------------------------- #
def _message_parts(message: Frame, codec: Optional[GradientCodec]):
    """(kind, fields, entries, buffers) for one frame."""
    spec = _BY_CLASS.get(type(message))
    if spec is None:
        raise WireError(f"no wire codec for {type(message).__name__}")
    role_arrays: List[Tuple[str, np.ndarray]] = []
    fields = spec.encode(message, role_arrays)
    codec = codec or RAW32
    entries: List[Dict[str, Any]] = []
    buffers: List[np.ndarray] = []
    for role, array in role_arrays:
        entry, bufs = codec.encode(role, array)
        entries.append(entry)
        buffers.extend(bufs)
    return spec.name, fields, entries, buffers


def encode_message_into(
    message: Frame,
    delay: float = 0.0,
    nbytes: int = 0,
    codec: Optional[GradientCodec] = None,
) -> Tuple[bytes, List[np.ndarray]]:
    """Serialize one frame without joining the payload.

    Returns ``(prefix, buffers)``: the prefix is the header-length word
    plus the header JSON; the buffers are the codec's contiguous arrays,
    ready for a vectored send.  ``nbytes`` is the sender's logical byte
    count, carried in the header so both ends account identically.
    """
    kind, fields, entries, buffers = _message_parts(message, codec)
    header = {"v": PROTOCOL_VERSION, "kind": kind, "delay": float(delay),
              "nbytes": int(nbytes), "fields": fields, "arrays": entries}
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    return _LEN.pack(len(header_bytes)) + header_bytes, buffers


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


def _decode_arrays(
    view: memoryview, entries: Any, copy: bool
) -> Tuple[List[np.ndarray], List[bool]]:
    """Split the payload region into per-entry arrays (views when
    ``copy=False``) and decode each entry's encoding."""
    arrays: List[np.ndarray] = []
    owned: List[bool] = []
    offset = 0
    try:
        for entry in entries:
            parts: List[np.ndarray] = []
            for part in entry["parts"]:
                if part["dtype"] not in codecs_mod.PART_DTYPES:
                    raise WireError(f"disallowed array part dtype {part['dtype']!r}")
                dtype = np.dtype(part["dtype"])
                nbytes = _dec_int(part["n"]) * dtype.itemsize
                if not 0 <= nbytes <= view.nbytes - offset:
                    raise WireError(
                        f"array payload truncated: expected {nbytes} bytes, "
                        f"got {view.nbytes - offset}"
                    )
                parts.append(np.frombuffer(view, dtype=dtype, count=part["n"], offset=offset))
                offset += nbytes
            array, own = decode_array(entry, parts, copy=copy)
            arrays.append(array)
            owned.append(own)
    except (LookupError, TypeError, ValueError, OverflowError) as exc:
        # metadata of the wrong shape; CodecError is a ValueError
        raise WireError(f"malformed array entry: {exc!r}")
    if offset != view.nbytes:
        raise WireError(f"frame carries {view.nbytes - offset} unclaimed payload byte(s)")
    return arrays, owned


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
    if view.nbytes < _LEN.size:
        raise WireError(f"frame too short for a header length ({view.nbytes} bytes)")
    (header_len,) = _LEN.unpack_from(view)
    if header_len > view.nbytes - _LEN.size:
        raise WireError(f"header length {header_len} exceeds frame size {view.nbytes}")
    try:
        header = json.loads(bytes(view[_LEN.size : _LEN.size + header_len]).decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON
        raise WireError(f"unparseable frame header: {exc}")
    if type(header) is not dict:
        raise WireError(f"frame header must be an object, got {type(header).__name__}")
    check_protocol_version(header.get("v"), PROTOCOL_VERSION)
    kind = header.get("kind")
    spec = _FRAMES.get(kind) if type(kind) is str else None
    if spec is None:
        raise WireError(f"unknown frame kind {kind!r}")
    delay = _dec_float(header.get("delay", 0.0))
    nbytes = _dec_int(header.get("nbytes", 0))
    arrays, owned = _decode_arrays(
        view[_LEN.size + header_len :], header.get("arrays", []), copy
    )
    return spec.decode(header.get("fields"), arrays, owned), delay, nbytes


def decode(
    payload: Union[bytes, bytearray, memoryview], copy: bool = True
) -> Tuple[Frame, float]:
    """:func:`decode_frame` without the byte accounting: ``(frame, delay)``."""
    obj, delay, _ = decode_frame(payload, copy=copy)
    return obj, delay


def codec_roundtrip_message(
    message: Message, codec: GradientCodec, nbytes: int
) -> Tuple[Message, int]:
    """Apply a codec's lossy encode/decode to an in-memory message.

    What the in-process transports use to emulate compression without a
    socket: returns the message as the peer would decode it, plus the
    wire byte count (the logical ``nbytes`` with each array's float32
    footprint swapped for its encoded footprint).
    """
    kind, fields, entries, buffers = _message_parts(message, codec)
    arrays: List[np.ndarray] = []
    wire_nbytes = int(nbytes)
    cursor = 0
    for entry in entries:
        parts = buffers[cursor : cursor + len(entry["parts"])]
        cursor += len(entry["parts"])
        array, _ = decode_array(entry, parts, copy=False)
        arrays.append(array)
        # logical accounting charges float32 per element; swap that for
        # the encoded footprint to get what a socket would carry
        wire_nbytes += entry_nbytes(entry) - 4 * codecs_mod._shape_size(entry["shape"])
    decoded = _FRAMES[kind].decode(fields, arrays, [True] * len(arrays))
    return decoded, max(0, wire_nbytes)


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
        obj, delay, _, _ = self.recv_info()
        return obj, delay

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
