"""Name-keyed model registry: ``config.model`` -> a seeded replica.

Mirrors :mod:`repro.data.registry`.  Each builder has the signature
``builder(config, input_shape, num_classes, rng) -> Module`` where ``rng``
is already derived from ``config.seed`` — every call with the same config
must return an identically initialized model, which is how all replicas and
the server start from "the same randomly initialized model" (Section 5).

``resnet_tiny`` — previously constructible but unnamed by any preset — is a
first-class entry here, giving sweeps a convolutional scenario that still
runs in seconds.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from repro.nn.mlp import MLP
from repro.nn.module import Module, set_flat_params
from repro.nn.resnet import resnet18, resnet50, resnet_tiny
from repro.utils.registry import Registry
from repro.utils.rng import RngTree

#: builder(config, input_shape, num_classes, rng) -> Module
ModelBuilder = Callable[..., Module]

MODELS: Registry = Registry("model")


def register_model(name: str, builder: ModelBuilder, override: bool = False) -> ModelBuilder:
    """Register ``builder`` under ``name``; raises on duplicates unless ``override``."""
    return MODELS.register(name, builder, override=override)


def model_names() -> Tuple[str, ...]:
    """All registered model names, sorted."""
    return MODELS.names()


class _NoDraw:
    """A generator stand-in that lets a builder lay out a model without drawing.

    While the build runs it answers the initializers' draws with zeros of
    the asked shape, which :func:`build_model` then overwrites.  Once the
    build returns it is closed and every call raises, so a module that kept
    its generator for later draws (``Dropout`` keeps it for masks) fails
    loudly instead of drawing zeros.
    """

    def __init__(self) -> None:
        self.open = True

    def standard_normal(self, shape) -> np.ndarray:
        return self._zeros("standard_normal", shape)

    def uniform(self, low, high, shape) -> np.ndarray:
        return self._zeros("uniform", shape)

    def _zeros(self, name: str, shape) -> np.ndarray:
        if not self.open:
            self._refuse(name)
        return np.zeros(shape)

    def __getattr__(self, name: str):
        if name.startswith("__"):
            raise AttributeError(name)
        self._refuse(name)

    def _refuse(self, name: str):
        raise RuntimeError(
            f"a model built from an initial vector has no generator to draw from "
            f"({name!r}); build it with build_model(config, ...) and no vector"
        )


def build_model(
    config,
    input_shape: Tuple[int, ...],
    num_classes: int,
    init: Optional[np.ndarray] = None,
) -> Module:
    """Build one model replica with init seeded by ``config.seed``.

    Given ``init``, the flat vector (:func:`~repro.nn.module.get_flat_params`)
    of a model built from the same config, the replica draws nothing: its
    structure is laid out around a closed stand-in generator and ``init`` is
    loaded into it, which is how one plan's replicas share one draw.
    """
    builder = MODELS.get(config.model)
    if init is None:
        rng = RngTree(config.seed).child("model-init").generator("weights")
        return builder(config, input_shape, num_classes, rng)
    stand_in = _NoDraw()
    model = builder(config, input_shape, num_classes, stand_in)
    stand_in.open = False
    set_flat_params(model, init)
    return model


# ---------------------------------------------------------------------- #
# built-in models
# ---------------------------------------------------------------------- #
def build_mlp(config, input_shape, num_classes, rng) -> Module:
    """Flattening MLP with optional BatchNorm (the laptop-scale workhorse)."""
    kwargs = dict(config.model_kwargs)
    input_dim = int(np.prod(input_shape))
    hidden = tuple(kwargs.pop("hidden", (64,)))
    batch_norm = kwargs.pop("batch_norm", True)
    if kwargs:
        raise ValueError(f"unknown mlp kwargs {sorted(kwargs)}")
    return MLP((input_dim, *hidden, num_classes), batch_norm=batch_norm, rng=rng)


def _resnet_builder(factory):
    def build(config, input_shape, num_classes, rng) -> Module:
        in_channels = input_shape[0] if len(input_shape) == 3 else 3
        return factory(
            num_classes=num_classes, in_channels=in_channels, rng=rng, **config.model_kwargs
        )

    return build


register_model("mlp", build_mlp)
register_model("resnet18", _resnet_builder(resnet18))
register_model("resnet50", _resnet_builder(resnet50))
register_model("resnet_tiny", _resnet_builder(resnet_tiny))
