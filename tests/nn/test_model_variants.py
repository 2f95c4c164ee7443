"""Build-and-forward smoke tests across the whole architecture zoo."""

import numpy as np
import pytest

from repro import nn
from repro.core.config import TrainingConfig
from repro.nn.module import get_flat_params
from repro.nn.registry import MODELS, build_model, register_model
from repro.tensor import Tensor
from repro.tensor import functional as F


@pytest.mark.parametrize(
    "name,kwargs,input_side",
    [
        ("mlp", {"hidden": (16, 8), "batch_norm": True}, 6),
        ("mlp", {"hidden": (16,), "batch_norm": False}, 6),
        ("resnet_tiny", {"base_width": 4}, 8),
        ("resnet18", {"base_width": 4}, 8),
        ("resnet50", {"base_width": 4}, 16),
    ],
)
def test_every_model_variant_trains_one_step(name, kwargs, input_side):
    cfg = TrainingConfig.tiny().with_overrides(model=name, model_kwargs=kwargs)
    model = build_model(cfg, (3, input_side, input_side), 5)
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((4, 3, input_side, input_side)).astype(np.float32))
    y = rng.integers(0, 5, 4)
    loss = F.cross_entropy(model(x), y)
    loss.backward()
    grads = [p.grad for p in model.parameters()]
    assert all(g is not None for g in grads)
    assert any(np.abs(g).max() > 0 for g in grads)


def test_identical_seeds_identical_models():
    cfg = TrainingConfig.tiny()
    a = build_model(cfg, (3, 6, 6), 4)
    b = build_model(cfg, (3, 6, 6), 4)
    from repro.nn import get_flat_params

    np.testing.assert_array_equal(get_flat_params(a), get_flat_params(b))


def test_different_seed_different_models():
    cfg = TrainingConfig.tiny()
    a = build_model(cfg, (3, 6, 6), 4)
    b = build_model(cfg.with_overrides(seed=99), (3, 6, 6), 4)
    from repro.nn import get_flat_params

    assert not np.array_equal(get_flat_params(a), get_flat_params(b))


def test_repr_renders_tree():
    model = nn.MLP((4, 3, 2), batch_norm=True, rng=np.random.default_rng(0))
    text = repr(model)
    assert "MLP" in text
    assert "Linear" in text
    assert "BatchNorm1d" in text


@pytest.mark.parametrize(
    "name,kwargs", [("mlp", {"hidden": (16,), "batch_norm": True}), ("resnet_tiny", {"base_width": 4})]
)
def test_model_built_from_a_vector_equals_the_drawn_one(name, kwargs):
    cfg = TrainingConfig.tiny().with_overrides(model=name, model_kwargs=kwargs)
    drawn = build_model(cfg, (3, 8, 8), 5)
    init = get_flat_params(drawn)
    loaded = build_model(cfg, (3, 8, 8), 5, init)
    assert [n for n, _ in loaded.named_parameters()] == [n for n, _ in drawn.named_parameters()]
    for (_, a), (_, b) in zip(loaded.named_parameters(), drawn.named_parameters()):
        assert a.data.dtype == b.data.dtype
        np.testing.assert_array_equal(a.data, b.data)
    for (_, a), (_, b) in zip(loaded.named_buffers(), drawn.named_buffers()):
        np.testing.assert_array_equal(a, b)
    with pytest.raises(ValueError, match="elements"):
        build_model(cfg, (3, 8, 8), 5, init[:-1])


@pytest.fixture
def dropout_model():
    def build(config, input_shape, num_classes, rng):
        return nn.Sequential(
            nn.Linear(int(np.prod(input_shape)), num_classes, rng=rng), nn.Dropout(0.5, rng=rng)
        )

    register_model("dropout-test", build)
    yield TrainingConfig.tiny().with_overrides(model="dropout-test", model_kwargs={})
    MODELS.unregister("dropout-test")


def test_model_keeping_its_generator_fails_loudly_when_built_from_a_vector(dropout_model):
    x = Tensor(np.ones((2, 12), dtype=np.float32))
    drawn = build_model(dropout_model, (12,), 3)
    drawn(x)  # draws a mask from its own seeded generator
    loaded = build_model(dropout_model, (12,), 3, get_flat_params(drawn))
    with pytest.raises(RuntimeError, match="no generator to draw from"):
        loaded(x)
