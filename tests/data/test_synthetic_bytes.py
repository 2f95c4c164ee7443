"""Byte-identity oracle for ``make_image_classification``.

``reference_make_image_classification`` is the per-sample double ``np.roll``
formulation the library used before the shifts were hoisted out of the
sample loop.  The datasets key the experiment result store and every golden
run, so the rewrite has to reproduce them byte for byte, not closely.
"""

import numpy as np
import pytest

from repro.data.synthetic import (
    SyntheticCIFAR10,
    SyntheticImageNet,
    _smooth_noise,
    make_image_classification,
)
from repro.utils.rng import as_generator


def reference_make_image_classification(num_samples, num_classes, side, channels, noise, shift, seed):
    rng = as_generator(seed, "image-classification")
    prototypes = np.stack(
        [_smooth_noise(rng, channels, side, smoothness=2) for _ in range(num_classes)]
    )
    prototypes /= np.abs(prototypes).max(axis=(1, 2, 3), keepdims=True) + 1e-9
    labels = rng.integers(0, num_classes, size=num_samples)
    images = np.empty((num_samples, channels, side, side), dtype=np.float32)
    gains = 1.0 + 0.25 * rng.standard_normal(num_samples)
    for i, label in enumerate(labels):
        img = prototypes[label] * gains[i]
        if shift > 0:
            dx, dy = rng.integers(-shift, shift + 1, size=2)
            img = np.roll(np.roll(img, dy, axis=1), dx, axis=2)
        img = img + noise * rng.standard_normal(img.shape)
        images[i] = img.astype(np.float32)
    images -= images.mean()
    images /= images.std() + 1e-9
    return images, labels.astype(np.int64)


def assert_same_bytes(dataset, images, labels):
    assert dataset.inputs.dtype == images.dtype and dataset.inputs.shape == images.shape
    assert dataset.targets.dtype == labels.dtype and dataset.targets.shape == labels.shape
    assert dataset.inputs.tobytes() == images.tobytes()
    assert dataset.targets.tobytes() == labels.tobytes()


@pytest.mark.parametrize("shift", [0, 1, 2])
@pytest.mark.parametrize("side, channels", [(8, 3), (5, 1)])
def test_make_image_classification_bytes(shift, side, channels):
    kwargs = dict(num_samples=300, num_classes=7, side=side, channels=channels, noise=0.6, shift=shift, seed=13)
    assert_same_bytes(make_image_classification(**kwargs), *reference_make_image_classification(**kwargs))


@pytest.mark.parametrize(
    "bundle_cls, stream, shift, kwargs",
    [
        # the repo benchmark's dataset and the golden sim test's (the defaults)
        (SyntheticCIFAR10, "synthetic-cifar", 1, dict(train_size=4096, test_size=512, side=8, noise=1.0, seed=7)),
        (SyntheticCIFAR10, "synthetic-cifar", 1, dict(train_size=256, test_size=64, side=8, noise=0.35, seed=0)),
        (SyntheticImageNet, "synthetic-imagenet", 2, dict(train_size=270, test_size=54, side=12, noise=0.45, seed=3)),
    ],
)
def test_synthetic_bundles_bytes(bundle_cls, stream, shift, kwargs):
    bundle = bundle_cls(**kwargs)
    train_size, test_size = kwargs["train_size"], kwargs["test_size"]
    images, labels = reference_make_image_classification(
        train_size + test_size,
        bundle_cls.num_classes,
        side=kwargs["side"],
        channels=3,
        noise=kwargs["noise"],
        shift=shift,
        seed=int(as_generator(kwargs["seed"], stream).integers(0, 2**31)),
    )
    assert_same_bytes(bundle.train, images[:train_size], labels[:train_size])
    assert_same_bytes(bundle.test, images[train_size:], labels[train_size:])
