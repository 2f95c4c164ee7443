"""The ResNet family (He et al., 2016) in CIFAR-style form.

The paper trains ResNet-18 on CIFAR-10 and ResNet-50(V2) on ImageNet.  We
implement faithful BasicBlock / Bottleneck residual architectures with a
``base_width`` scale knob so the same topology runs at laptop scale in pure
NumPy.  ``resnet18()`` / ``resnet50()``
give the paper's depths; ``resnet_tiny()`` is the narrow variant used by
fast tests and the example scripts.

All variants use the CIFAR-style stem (3x3 conv, no max-pool), which matches
the paper's CIFAR configuration and keeps small synthetic images viable.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Type

import numpy as np

from repro.nn.activations import ReLU
from repro.nn.container import Sequential
from repro.nn.conv import Conv2d
from repro.nn.linear import Linear
from repro.nn.module import Module
from repro.nn.norm import BatchNorm2d
from repro.nn.pooling import GlobalAvgPool2d
from repro.tensor.tensor import Tensor
from repro.utils.rng import fallback_rng


def _conv_bn(
    in_c: int, out_c: int, k: int, stride: int, padding: int, rng: np.random.Generator
) -> Sequential:
    """conv (no bias) followed by BN — the ResNet building idiom."""
    return Sequential(
        Conv2d(in_c, out_c, k, stride=stride, padding=padding, bias=False, rng=rng),
        BatchNorm2d(out_c),
    )


class BasicBlock(Module):
    """Two 3x3 convolutions with identity/projection shortcut (ResNet-18/34)."""

    expansion = 1

    def __init__(self, in_c: int, out_c: int, stride: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.conv1 = _conv_bn(in_c, out_c, 3, stride, 1, rng)
        self.conv2 = _conv_bn(out_c, out_c, 3, 1, 1, rng)
        self.relu = ReLU()
        if stride != 1 or in_c != out_c * self.expansion:
            self.shortcut: Optional[Sequential] = _conv_bn(
                in_c, out_c * self.expansion, 1, stride, 0, rng
            )
        else:
            self.shortcut = None

    def forward(self, x: Tensor) -> Tensor:
        identity = self.shortcut(x) if self.shortcut is not None else x
        out = self.relu(self.conv1(x))
        out = self.conv2(out)
        return self.relu(out + identity)


class Bottleneck(Module):
    """1x1 -> 3x3 -> 1x1(x4) bottleneck block (ResNet-50/101/152)."""

    expansion = 4

    def __init__(self, in_c: int, out_c: int, stride: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.conv1 = _conv_bn(in_c, out_c, 1, 1, 0, rng)
        self.conv2 = _conv_bn(out_c, out_c, 3, stride, 1, rng)
        self.conv3 = _conv_bn(out_c, out_c * self.expansion, 1, 1, 0, rng)
        self.relu = ReLU()
        if stride != 1 or in_c != out_c * self.expansion:
            self.shortcut: Optional[Sequential] = _conv_bn(
                in_c, out_c * self.expansion, 1, stride, 0, rng
            )
        else:
            self.shortcut = None

    def forward(self, x: Tensor) -> Tensor:
        identity = self.shortcut(x) if self.shortcut is not None else x
        out = self.relu(self.conv1(x))
        out = self.relu(self.conv2(out))
        out = self.conv3(out)
        return self.relu(out + identity)


class ResNet(Module):
    """Residual network with a CIFAR-style stem.

    Parameters
    ----------
    block:
        :class:`BasicBlock` or :class:`Bottleneck`.
    layers:
        Blocks per stage, e.g. ``(2, 2, 2, 2)`` for ResNet-18.
    num_classes:
        Classifier width.
    in_channels:
        Input image channels.
    base_width:
        Filters of the first stage; doubles every stage.  64 reproduces the
        paper architecture; small values give the laptop-scale variants.
    rng:
        Generator for weight initialization.
    """

    def __init__(
        self,
        block: Type[Module],
        layers: Sequence[int],
        num_classes: int = 10,
        in_channels: int = 3,
        base_width: int = 64,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if not layers or any(n <= 0 for n in layers):
            raise ValueError("layers must be a non-empty sequence of positive ints")
        gen = rng if rng is not None else fallback_rng()
        self.block_type = block.__name__
        self.stem = _conv_bn(in_channels, base_width, 3, 1, 1, gen)
        self.relu = ReLU()

        stages: List[Module] = []
        in_c = base_width
        width = base_width
        for stage_idx, num_blocks in enumerate(layers):
            stride = 1 if stage_idx == 0 else 2
            blocks: List[Module] = []
            for block_idx in range(num_blocks):
                blocks.append(block(in_c, width, stride if block_idx == 0 else 1, gen))
                in_c = width * block.expansion
            stages.append(Sequential(*blocks))
            width *= 2
        self.stages = Sequential(*stages)
        self.pool = GlobalAvgPool2d()
        self.fc = Linear(in_c, num_classes, rng=gen)
        self.num_classes = num_classes

    def forward(self, x: Tensor) -> Tensor:
        """Classify an (N, C, H, W) batch into (N, num_classes) logits."""
        out = self.relu(self.stem(x))
        out = self.stages(out)
        out = self.pool(out)
        return self.fc(out)

    def extra_repr(self) -> str:
        return f"block={self.block_type}, classes={self.num_classes}"


def resnet18(
    num_classes: int = 10,
    in_channels: int = 3,
    base_width: int = 64,
    rng: Optional[np.random.Generator] = None,
) -> ResNet:
    """ResNet-18 topology: BasicBlock x (2, 2, 2, 2)."""
    return ResNet(BasicBlock, (2, 2, 2, 2), num_classes, in_channels, base_width, rng)


def resnet50(
    num_classes: int = 10,
    in_channels: int = 3,
    base_width: int = 64,
    rng: Optional[np.random.Generator] = None,
) -> ResNet:
    """ResNet-50 topology: Bottleneck x (3, 4, 6, 3)."""
    return ResNet(Bottleneck, (3, 4, 6, 3), num_classes, in_channels, base_width, rng)


def resnet_tiny(
    num_classes: int = 10,
    in_channels: int = 3,
    base_width: int = 8,
    rng: Optional[np.random.Generator] = None,
) -> ResNet:
    """Narrow 3-stage BasicBlock ResNet for fast tests and examples."""
    return ResNet(BasicBlock, (1, 1, 1), num_classes, in_channels, base_width, rng)
