"""Multi-layer perceptron, the fast benchmark workhorse.

The benches that sweep 5 algorithms x 3 worker counts x 2 BN modes use an
MLP (optionally with BatchNorm1d, so Async-BN is still exercised) because a
scaled ResNet would take hours in pure NumPy; the examples also run the
ResNets directly.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.nn.activations import ReLU
from repro.nn.container import Sequential
from repro.nn.linear import Linear
from repro.nn.module import Module
from repro.nn.norm import BatchNorm1d
from repro.tensor.tensor import Tensor
from repro.utils.rng import fallback_rng


class MLP(Module):
    """Fully-connected classifier ``sizes[0] -> ... -> sizes[-1]``.

    Parameters
    ----------
    sizes:
        Layer widths including input and output, e.g. ``(192, 128, 64, 10)``.
    batch_norm:
        Insert BatchNorm1d after every hidden linear layer (needed by the
        BN / Async-BN experiments).
    rng:
        Generator for weight initialization.
    """

    def __init__(
        self,
        sizes: Sequence[int],
        batch_norm: bool = False,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        sizes = tuple(int(s) for s in sizes)
        if len(sizes) < 2:
            raise ValueError("MLP needs at least input and output sizes")
        if any(s <= 0 for s in sizes):
            raise ValueError("all layer sizes must be positive")
        self.sizes = sizes
        self.batch_norm = batch_norm
        gen = rng if rng is not None else fallback_rng()
        layers = []
        for i in range(len(sizes) - 2):
            layers.append(Linear(sizes[i], sizes[i + 1], bias=not batch_norm, rng=gen))
            if batch_norm:
                layers.append(BatchNorm1d(sizes[i + 1]))
            layers.append(ReLU())
        layers.append(Linear(sizes[-2], sizes[-1], rng=gen))
        self.body = Sequential(*layers)

    def forward(self, x: Tensor) -> Tensor:
        """Classify flattened input; accepts (N, D) or (N, C, H, W)."""
        if x.data.ndim > 2:
            x = x.reshape(x.data.shape[0], -1)
        return self.body(x)

    def extra_repr(self) -> str:
        return f"sizes={self.sizes}, batch_norm={self.batch_norm}"
