"""Gradient codecs: pluggable array encodings for the wire data plane.

A :class:`GradientCodec` turns one logical array into a self-describing
*entry* (its encoding, shape and parts; :mod:`repro.runtime.wire` writes
one fixed record per part) plus one or more contiguous numpy buffers
ready for vectored socket writes, and :func:`decode_array` turns them
back.  Entries are stateless to decode — a receiver never needs to know
which codec the sender ran, only the entry — which is what lets the
server accept pushes from workers running different codecs and lets the
in-process transports emulate a codec without a socket in the loop.

Three codecs ship (names are the :data:`repro.core.config.COMM_CODECS`
axis, selected per run by ``TrainingConfig.comm_codec``):

``raw32``
    The historical wire format: every array as contiguous float32.  This
    is the identity codec — in-process transports skip it entirely.
``fp16``
    Every array (gradients, weights and BN statistics) as float16 —
    half the wire bytes for ~2^-11 relative rounding error.
``topk``
    Sparsified gradients with error feedback: each push ships the top
    :data:`TOPK_RATIO` fraction of coordinates of ``residual + grad`` as
    an ``(int32 indices, float32 values)`` pair and keeps what it did not
    send in the residual, so dropped mass is retransmitted later rather
    than lost (the classic EF-SGD construction).  Weights and BN
    statistics stay raw: only the gradient direction tolerates sparsity.

Encoding is *role-aware*: callers tag each array as ``grad``, ``weights``
or ``bn`` and the codec decides per role.  Codecs carrying state (topk's
residual) must be instantiated once per sending peer.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence, Tuple, Type

import numpy as np

#: array roles a codec may treat differently
ROLE_GRAD = "grad"
ROLE_WEIGHTS = "weights"
ROLE_BN = "bn"

#: fraction of gradient coordinates the topk codec ships per push
TOPK_RATIO = 0.1

#: dtypes an entry part may name — decode allocates from peer-controlled
#: metadata, so this is a whitelist, not a convention; a dtype's position
#: here is its code on the wire
PART_DTYPES = ("float32", "float16", "int32")

#: the encodings an entry may name, each with the number of parts it
#: ships; an encoding's position here is its code on the wire
ENCODINGS = {"raw": 1, "f16": 1, "topk": 2}


class CodecError(ValueError):
    """Unknown codec name or malformed array entry."""


def _shape_size(shape: Sequence[int]) -> int:
    size = 1
    for s in shape:
        size *= int(s)
    return size


def _topk_count(size: int) -> int:
    """Coordinates the topk codec ships for a ``size``-element gradient."""
    return 0 if size == 0 else max(1, math.ceil(size * TOPK_RATIO))


def _flat(array: np.ndarray, dtype) -> np.ndarray:
    """Contiguous 1-D wire buffer (handles non-contiguous/scalar inputs)."""
    return np.ascontiguousarray(array, dtype=dtype).reshape(-1)


def _plain_entry(enc: str, array: np.ndarray, dtype_name: str, n: int) -> Dict[str, Any]:
    return {
        "enc": enc,
        "shape": [int(s) for s in np.shape(array)],
        "parts": [{"dtype": dtype_name, "n": int(n)}],
    }


# ---------------------------------------------------------------------- #
# codecs
# ---------------------------------------------------------------------- #
class GradientCodec:
    """Base class: encode one role-tagged array into (entry, buffers)."""

    name: str = ""

    def encode(self, role: str, array: np.ndarray) -> Tuple[Dict[str, Any], List[np.ndarray]]:
        raise NotImplementedError

    def encode_raw(self, array: np.ndarray) -> Tuple[Dict[str, Any], List[np.ndarray]]:
        buf = _flat(array, np.float32)
        return _plain_entry("raw", array, "float32", buf.size), [buf]


class Raw32Codec(GradientCodec):
    """The identity codec: contiguous float32, exactly the v1 wire bytes."""

    name = "raw32"

    def encode(self, role: str, array: np.ndarray):
        return self.encode_raw(array)


class Fp16Codec(GradientCodec):
    """Half precision for every role — the 2x wire-byte ablation arm."""

    name = "fp16"

    def encode(self, role: str, array: np.ndarray):
        buf = _flat(array, np.float16)
        return _plain_entry("f16", array, "float16", buf.size), [buf]


class TopKCodec(GradientCodec):
    """Top-k gradient sparsification with an error-feedback residual.

    Stateful: the residual accumulates unsent coordinates across pushes,
    so one instance must serve exactly one sending peer.  Non-gradient
    roles pass through raw — sparsifying the server's weight broadcast
    would corrupt the model itself, not just one step's direction.
    """

    name = "topk"

    def __init__(self) -> None:
        self._residual: Optional[np.ndarray] = None

    def encode(self, role: str, array: np.ndarray):
        if role != ROLE_GRAD:
            return self.encode_raw(array)
        flat = np.asarray(array, dtype=np.float64).reshape(-1)
        size = flat.size
        if self._residual is None or self._residual.size != size:
            self._residual = np.zeros(size, dtype=np.float64)
        acc = self._residual + flat
        k = _topk_count(size)
        if k >= size:
            idx = np.arange(size, dtype=np.int32)
        else:
            idx = np.sort(
                np.argpartition(np.abs(acc), size - k)[size - k:]
            ).astype(np.int32)
        vals = acc[idx].astype(np.float32)
        # keep even the float32 rounding error: what was not sent (or was
        # sent imprecisely) is error feedback for the next push
        acc[idx] -= vals.astype(np.float64)
        self._residual = acc
        entry = {
            "enc": "topk",
            "shape": [int(s) for s in np.shape(array)],
            "parts": [{"dtype": "int32", "n": int(k)}, {"dtype": "float32", "n": int(k)}],
        }
        return entry, [idx, vals]

    @property
    def residual(self) -> Optional[np.ndarray]:
        """The unsent gradient mass (tests assert it drains)."""
        return self._residual


# ---------------------------------------------------------------------- #
# stateless decode
# ---------------------------------------------------------------------- #
def entry_nbytes(entry: Dict[str, Any]) -> int:
    """Encoded payload bytes an entry occupies on the wire."""
    try:
        return sum(
            np.dtype(part["dtype"]).itemsize * int(part["n"])
            for part in entry["parts"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CodecError(f"malformed array entry {entry!r}: {exc}")


def decode_array(
    entry: Dict[str, Any], buffers: Sequence[np.ndarray], copy: bool = True
) -> Tuple[np.ndarray, bool]:
    """Rebuild one logical array from its entry and raw part buffers.

    Returns ``(array, owned)``.  ``owned`` is False only for ``raw``
    entries decoded with ``copy=False`` — the array is then a view into
    the caller's receive buffer, valid until that buffer is reused.
    Every other encoding materializes a fresh array.
    """
    enc = entry.get("enc")
    shape = tuple(int(s) for s in entry.get("shape", ()))
    if enc == "raw":
        array = buffers[0].reshape(shape)
        if copy:
            return array.copy(), True
        return array, False
    if enc == "f16":
        return buffers[0].astype(np.float32).reshape(shape), True
    if enc == "topk":
        idx, vals = buffers[0], buffers[1]
        size = _shape_size(shape)
        # a peer-chosen shape must not size the allocation freely: the
        # encoder always ships exactly _topk_count(size) coordinates
        if idx.size != _topk_count(size) or vals.size != idx.size:
            raise CodecError(f"topk entry ships {idx.size} coordinates for shape {shape}")
        out = np.zeros(size, dtype=np.float32)
        if idx.size:
            if int(idx.min()) < 0 or int(idx.max()) >= out.size:
                raise CodecError("topk index out of range for shape")
            out[idx] = vals
        return out.reshape(shape), True
    raise CodecError(f"unknown array encoding {enc!r}")


# ---------------------------------------------------------------------- #
# registry
# ---------------------------------------------------------------------- #
_REGISTRY: Dict[str, Type[GradientCodec]] = {}


def register_codec(cls: Type[GradientCodec], override: bool = False) -> Type[GradientCodec]:
    if not cls.name:
        raise CodecError("codec classes must set a name")
    if cls.name in _REGISTRY and not override:
        raise CodecError(f"codec {cls.name!r} already registered")
    _REGISTRY[cls.name] = cls
    return cls


def make_codec(name: str) -> GradientCodec:
    """Fresh codec instance for one sending peer (topk keeps state)."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise CodecError(
            f"unknown comm codec {name!r}; known: {', '.join(sorted(_REGISTRY))}"
        )
    return cls()


def available_codecs() -> Tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


register_codec(Raw32Codec)
register_codec(Fp16Codec)
register_codec(TopKCodec)

#: shared identity instance — safe to share because raw32 is stateless
RAW32 = Raw32Codec()
