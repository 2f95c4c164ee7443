"""Dropout and LayerNorm layers."""

import numpy as np
import pytest

from repro import nn
from repro.tensor import Tensor

from tests.conftest import assert_gradcheck


def _f64(module):
    for p in module.parameters():
        p.data = p.data.astype(np.float64)
    return module


class TestDropout:
    def test_identity_in_eval(self, rng):
        layer = nn.Dropout(0.5, rng=np.random.default_rng(0))
        layer.eval()
        x = Tensor(rng.standard_normal(100).astype(np.float32))
        np.testing.assert_array_equal(layer(x).data, x.data)

    def test_drops_in_train(self):
        layer = nn.Dropout(0.5, rng=np.random.default_rng(0))
        x = Tensor(np.ones(2000, dtype=np.float32))
        out = layer(x)
        assert 0.35 < (out.data == 0).mean() < 0.65

    def test_validation(self):
        with pytest.raises(ValueError):
            nn.Dropout(1.0)


class TestLayerNorm:
    def test_normalizes_last_axis(self, rng):
        layer = nn.LayerNorm(8)
        x = Tensor((rng.standard_normal((4, 8)) * 5 + 3).astype(np.float32))
        out = layer(x)
        np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-5)
        np.testing.assert_allclose(out.data.std(axis=-1), 1.0, atol=1e-2)

    def test_works_on_3d(self, rng):
        layer = nn.LayerNorm(4)
        out = layer(Tensor(rng.standard_normal((2, 3, 4)).astype(np.float32)))
        assert out.shape == (2, 3, 4)

    def test_shape_validation(self, rng):
        layer = nn.LayerNorm(4)
        with pytest.raises(ValueError, match="trailing dim"):
            layer(Tensor(rng.standard_normal((2, 5)).astype(np.float32)))
        with pytest.raises(ValueError):
            nn.LayerNorm(0)

    def test_gradcheck(self, rng):
        layer = _f64(nn.LayerNorm(5))
        x = Tensor(rng.standard_normal((3, 5)), requires_grad=True)
        assert_gradcheck(
            lambda: (layer(x) ** 2).sum(), [x, layer.gamma, layer.beta], atol=1e-5, rtol=1e-3
        )

    def test_no_cross_sample_coupling(self, rng):
        """Unlike BatchNorm, each row is normalized independently."""
        layer = nn.LayerNorm(6)
        a = rng.standard_normal((1, 6)).astype(np.float32)
        b = rng.standard_normal((1, 6)).astype(np.float32)
        together = layer(Tensor(np.concatenate([a, b]))).data
        alone = layer(Tensor(a)).data
        np.testing.assert_allclose(together[0], alone[0], rtol=1e-6)
