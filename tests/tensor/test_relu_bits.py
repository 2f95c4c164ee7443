"""``F.relu_with_mask`` against ``np.where(x > 0, x, 0.0)``, bit for bit.

Both ``Tensor.relu`` and the MLP training kernel call the helper, so the
kernel oracles compare it only with itself; this property test is what ties
it to ``np.where``.  Inputs are drawn as raw bit patterns (every NaN payload,
subnormal and signed zero is reachable) mixed with the special values, in
float32 and float64, as contiguous arrays and as strided views.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tensor import Tensor
from repro.tensor import functional as F

BITS = {np.float32: np.uint32, np.float64: np.uint64}


def _specials(dtype):
    info = np.finfo(dtype)
    nan_payloads = np.array([0x7FC00001, 0xFFC00000, 0x7F800001], np.uint32).view(np.float32)
    if dtype is np.float64:
        nan_payloads = np.array([0x7FF8000000000001, 0xFFF8000000000000, 0x7FF0000000000001], np.uint64).view(
            np.float64
        )
    return np.concatenate([
        np.array([0.0, -0.0, np.inf, -np.inf, info.smallest_subnormal, -info.smallest_subnormal,
                  info.tiny, -info.tiny, info.max, -info.max], dtype=dtype),
        nan_payloads,
    ])


@st.composite
def arrays(draw):
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    width = np.dtype(dtype).itemsize * 8
    rows, cols = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    words = draw(st.lists(st.integers(0, 2**width - 1), min_size=rows * cols, max_size=rows * cols))
    x = np.array(words, dtype=BITS[dtype]).view(dtype).reshape(rows, cols)
    specials = _specials(dtype)
    picks = draw(st.lists(st.integers(0, rows * cols - 1), max_size=rows * cols))
    x.reshape(-1)[picks] = specials[np.arange(len(picks)) % specials.size]
    view = draw(st.sampled_from(["contiguous", "transposed", "every other row", "reversed columns"]))
    if view == "transposed":
        x = x.T
    elif view == "every other row":
        x = x[::2]
    elif view == "reversed columns":
        x = x[:, ::-1]
    return x


def _assert_bits_equal(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert np.array_equal(actual.view(BITS[actual.dtype.type]), expected.view(BITS[expected.dtype.type]))


@settings(max_examples=300, deadline=None)
@given(arrays())
def test_relu_with_mask_is_np_where_bit_for_bit(x):
    before = x.copy()
    out, mask = F.relu_with_mask(x)
    _assert_bits_equal(out, np.where(x > 0, x, 0.0))
    assert mask.dtype == np.bool_ and np.array_equal(mask, x > 0)
    _assert_bits_equal(x, before)  # the input is not written


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_every_special_value(dtype):
    x = _specials(dtype)
    out, _ = F.relu_with_mask(x)
    expected = np.where(x > 0, x, 0.0)
    _assert_bits_equal(out, expected)
    # -0.0 and every NaN come out +0.0; positive subnormals and +inf survive
    assert not np.signbit(out).any() and not np.isnan(out).any()


@pytest.mark.parametrize("dtype", [np.int64, np.float16])
def test_other_dtypes_take_np_where(dtype):
    x = np.array([[-3, 0, 2], [5, -1, 7]], dtype=dtype)
    out, mask = F.relu_with_mask(x)
    assert out.dtype == dtype and np.array_equal(out, np.where(mask, x, 0).astype(dtype))


def test_tensor_relu_uses_it():
    x = _specials(np.float32)
    out = Tensor(x).relu()
    _assert_bits_equal(out.data, np.where(x > 0, x, 0.0))
    assert Tensor(np.float32(-0.0)).relu().data == 0.0  # 0-d falls back to np.where
