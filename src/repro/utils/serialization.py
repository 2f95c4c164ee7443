"""Parameter-vector (de)serialization and numpy-to-JSON.

The parameter server stores the global model as one flat ``float64`` vector;
workers reconstruct structured arrays from it.  ``flatten/unflatten`` are
exact inverses — this is property-tested in ``tests/utils``.
"""

from __future__ import annotations

from typing import Any, List, Sequence, Tuple

import numpy as np

ShapeSpec = List[Tuple[Tuple[int, ...], np.dtype]]


def flatten_arrays(arrays: Sequence[np.ndarray]) -> Tuple[np.ndarray, ShapeSpec]:
    """Concatenate ``arrays`` into one 1-D float64 vector plus a shape spec.

    Returns
    -------
    flat:
        1-D vector of total size ``sum(a.size)``.
    spec:
        ``[(shape, dtype), ...]`` needed by :func:`unflatten_arrays`.
    """
    spec: ShapeSpec = [(tuple(a.shape), a.dtype) for a in arrays]
    if not arrays:
        return np.zeros(0, dtype=np.float64), spec
    flat = np.concatenate([np.asarray(a, dtype=np.float64).ravel() for a in arrays])
    return flat, spec


def unflatten_arrays(flat: np.ndarray, spec: ShapeSpec) -> List[np.ndarray]:
    """Inverse of :func:`flatten_arrays`.

    Raises
    ------
    ValueError
        if ``flat`` does not hold exactly the number of elements the spec
        describes.
    """
    flat = np.asarray(flat).ravel()
    total = sum(int(np.prod(shape)) for shape, _ in spec)
    if flat.size != total:
        raise ValueError(f"flat vector has {flat.size} elements, spec expects {total}")
    out: List[np.ndarray] = []
    offset = 0
    for shape, dtype in spec:
        size = int(np.prod(shape))
        out.append(flat[offset : offset + size].reshape(shape).astype(dtype, copy=True))
        offset += size
    return out


def numpy_json_default(value: Any) -> Any:
    """``json.dumps(..., default=numpy_json_default)``: numpy scalars and
    arrays encode as :func:`to_jsonable` would convert them, without a
    walk over the rest of the document."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def to_jsonable(value: Any) -> Any:
    """Recursively convert numpy scalars/arrays so a doc survives ``json.dumps``.

    The one numpy-to-JSON walk: the documents fleet frames carry are
    encoded with a strict ``json.dumps``, yet ``RunResult.to_dict`` may carry
    numpy staleness statistics.  Result-store records are encoded with
    :func:`numpy_json_default` instead, to the same bytes.
    """
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    return value
