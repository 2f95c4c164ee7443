"""flatten/unflatten round trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.serialization import flatten_arrays, unflatten_arrays


def test_flatten_empty():
    flat, spec = flatten_arrays([])
    assert flat.size == 0 and spec == []
    assert unflatten_arrays(flat, spec) == []


def test_roundtrip_basic(rng):
    arrays = [rng.standard_normal((3, 4)), rng.standard_normal(7), rng.standard_normal((2, 2, 2))]
    flat, spec = flatten_arrays(arrays)
    assert flat.size == 12 + 7 + 8
    back = unflatten_arrays(flat, spec)
    for a, b in zip(arrays, back):
        np.testing.assert_allclose(a, b)


def test_unflatten_size_mismatch(rng):
    flat, spec = flatten_arrays([rng.standard_normal(4)])
    with pytest.raises(ValueError):
        unflatten_arrays(flat[:-1], spec)


def test_dtype_preserved(rng):
    arrays = [rng.standard_normal(5).astype(np.float32)]
    flat, spec = flatten_arrays(arrays)
    assert flat.dtype == np.float64  # transport dtype
    back = unflatten_arrays(flat, spec)
    assert back[0].dtype == np.float32


@st.composite
def array_lists(draw):
    n_arrays = draw(st.integers(1, 5))
    out = []
    for _ in range(n_arrays):
        ndim = draw(st.integers(1, 3))
        shape = tuple(draw(st.integers(1, 5)) for _ in range(ndim))
        seed = draw(st.integers(0, 2**16))
        out.append(np.random.default_rng(seed).standard_normal(shape))
    return out


@given(array_lists())
@settings(max_examples=40, deadline=None)
def test_roundtrip_property(arrays):
    flat, spec = flatten_arrays(arrays)
    back = unflatten_arrays(flat, spec)
    assert len(back) == len(arrays)
    for a, b in zip(arrays, back):
        assert a.shape == b.shape
        np.testing.assert_allclose(a, b)
