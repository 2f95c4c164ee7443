"""Procedural datasets standing in for CIFAR-10 and ImageNet.

Substitution rationale: the paper's evaluation compares the
*relative* error of five distributed algorithms on image classification.
What matters for the reproduction is a task that (a) a small CNN/MLP can
learn well but not trivially, (b) has enough intra-class variation that
batch-norm statistics and gradient staleness matter, and (c) is generated
deterministically offline.  Each class gets a smooth random "prototype"
image; samples are affine-jittered, shifted, scaled and noised copies, so
classes overlap and test generalization is meaningful.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.utils.rng import SeedLike, as_generator


def _smooth_noise(rng: np.random.Generator, channels: int, side: int, smoothness: int) -> np.ndarray:
    """Low-frequency random field: upsampled coarse noise."""
    coarse_side = max(2, side // max(1, smoothness))
    coarse = rng.standard_normal((channels, coarse_side, coarse_side))
    # bilinear-ish upsample by repetition + box blur
    reps = int(np.ceil(side / coarse_side))
    up = np.repeat(np.repeat(coarse, reps, axis=1), reps, axis=2)[:, :side, :side]
    kernel = np.ones(3) / 3.0
    for axis in (1, 2):
        up = np.apply_along_axis(lambda v: np.convolve(v, kernel, mode="same"), axis, up)
    return up


def make_image_classification(
    num_samples: int,
    num_classes: int,
    side: int = 8,
    channels: int = 3,
    noise: float = 0.35,
    shift: int = 1,
    seed: SeedLike = 0,
) -> ArrayDataset:
    """Generate a class-prototype image classification task.

    Parameters
    ----------
    num_samples:
        Total examples (classes are balanced up to rounding).
    num_classes:
        Number of classes; each gets a random smooth prototype.
    side, channels:
        Image geometry (channels-first output ``(N, C, side, side)``).
    noise:
        Per-pixel Gaussian noise scale; larger -> harder task.
    shift:
        Maximum circular spatial shift applied per sample (translation
        invariance pressure, what makes convolutions useful).
    seed:
        Determinism root.
    """
    if num_samples < num_classes:
        raise ValueError("need at least one sample per class")
    if num_classes < 2:
        raise ValueError("num_classes must be >= 2")
    if side < 2 or channels < 1:
        raise ValueError("invalid image geometry")
    rng = as_generator(seed, "image-classification")

    prototypes = np.stack(
        [_smooth_noise(rng, channels, side, smoothness=2) for _ in range(num_classes)]
    )
    prototypes /= np.abs(prototypes).max(axis=(1, 2, 3), keepdims=True) + 1e-9

    labels = rng.integers(0, num_classes, size=num_samples)
    images = np.empty((num_samples, channels, side, side), dtype=np.float32)
    gains = 1.0 + 0.25 * rng.standard_normal(num_samples)
    # A circular shift permutes pixels, so shifting commutes with the gain:
    # roll each (class, dy, dx) prototype once and scale the rolled copy.  The
    # per-sample draws keep their order (shift pair, then noise field).
    shifted = {}
    dx = dy = 0
    for i, (label, gain) in enumerate(zip(labels.tolist(), gains.tolist())):
        if shift > 0:
            dx, dy = rng.integers(-shift, shift + 1, size=2).tolist()
        key = (label, dy, dx)
        proto = shifted.get(key)
        if proto is None:
            proto = shifted[key] = np.roll(np.roll(prototypes[label], dy, axis=1), dx, axis=2)
        images[i] = proto * gain + noise * rng.standard_normal(proto.shape)

    # standardize globally (what torchvision-style normalization would do)
    images -= images.mean()
    images /= images.std() + 1e-9
    return ArrayDataset(images, labels.astype(np.int64))


class SyntheticCIFAR10:
    """CIFAR-10 stand-in: 10 classes, 3-channel images.

    Defaults are laptop-scale (8x8, 4096+1024 examples); pass ``side=32``
    and larger counts for a heavier run.  Access :attr:`train` /
    :attr:`test` for the two splits.
    """

    num_classes = 10

    def __init__(
        self,
        train_size: int = 4096,
        test_size: int = 1024,
        side: int = 8,
        noise: float = 0.35,
        seed: SeedLike = 0,
    ) -> None:
        rng_root = as_generator(seed, "synthetic-cifar")
        full = make_image_classification(
            train_size + test_size,
            self.num_classes,
            side=side,
            channels=3,
            noise=noise,
            seed=int(rng_root.integers(0, 2**31)),
        )
        self.train = full.subset(np.arange(train_size))
        self.test = full.subset(np.arange(train_size, train_size + test_size))
        self.side = side

    @property
    def input_shape(self) -> Tuple[int, int, int]:
        """(C, H, W) of one example."""
        return (3, self.side, self.side)


class SyntheticImageNet:
    """ImageNet stand-in: 27 high-level categories (as in the paper), harder task.

    More classes, larger images and heavier noise than the CIFAR stand-in,
    mirroring the paper's use of ImageNet as the "scale" benchmark.
    """

    num_classes = 27

    def __init__(
        self,
        train_size: int = 5400,
        test_size: int = 1350,
        side: int = 12,
        noise: float = 0.45,
        seed: SeedLike = 0,
    ) -> None:
        rng_root = as_generator(seed, "synthetic-imagenet")
        full = make_image_classification(
            train_size + test_size,
            self.num_classes,
            side=side,
            channels=3,
            noise=noise,
            shift=2,
            seed=int(rng_root.integers(0, 2**31)),
        )
        self.train = full.subset(np.arange(train_size))
        self.test = full.subset(np.arange(train_size, train_size + test_size))
        self.side = side

    @property
    def input_shape(self) -> Tuple[int, int, int]:
        """(C, H, W) of one example."""
        return (3, self.side, self.side)


def make_spirals(
    num_samples: int = 600,
    num_classes: int = 3,
    noise: float = 0.15,
    seed: SeedLike = 0,
) -> ArrayDataset:
    """Classic interleaved-spirals 2-D task (used in examples and tests)."""
    if num_classes < 2:
        raise ValueError("num_classes must be >= 2")
    rng = as_generator(seed, "spirals")
    per_class = num_samples // num_classes
    xs, ys = [], []
    for c in range(num_classes):
        t = np.linspace(0.1, 1.0, per_class)
        angle = 2 * np.pi * (c / num_classes + t * 1.25)
        radius = t
        points = np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=1)
        points += noise * rng.standard_normal(points.shape) * t[:, None]
        xs.append(points)
        ys.append(np.full(per_class, c))
    inputs = np.concatenate(xs).astype(np.float32)
    targets = np.concatenate(ys).astype(np.int64)
    perm = rng.permutation(len(inputs))
    return ArrayDataset(inputs[perm], targets[perm])


def make_regression_series(
    length: int = 256,
    kind: str = "decay",
    noise: float = 0.01,
    seed: SeedLike = 0,
) -> np.ndarray:
    """Synthetic scalar time series shaped like training-loss curves.

    Used to unit-test the loss predictor against known dynamics.

    ``kind``:
        * ``"decay"`` — exponential decay toward an asymptote (typical loss);
        * ``"step"``  — decay with sudden drops (learning-rate steps);
        * ``"noisy"`` — decay with heavy noise bursts.
    """
    if length <= 1:
        raise ValueError("length must be > 1")
    rng = as_generator(seed, "regression-series")
    t = np.arange(length, dtype=np.float64)
    base = 0.5 + 2.5 * np.exp(-t / (length / 3.0))
    if kind == "decay":
        series = base
    elif kind == "step":
        series = base.copy()
        for milestone in (length // 2, 3 * length // 4):
            series[milestone:] *= 0.6
    elif kind == "noisy":
        series = base * (1.0 + 0.2 * np.sin(t / 7.0))
    else:
        raise ValueError(f"unknown series kind {kind!r}")
    return series + noise * rng.standard_normal(length)
