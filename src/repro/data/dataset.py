"""Dataset containers."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.utils.rng import SeedLike, as_generator


class Dataset:
    """Minimal dataset protocol: ``len()`` and integer/array indexing."""

    def __len__(self) -> int:
        raise NotImplementedError

    def __getitem__(self, index):
        raise NotImplementedError


class ArrayDataset(Dataset):
    """In-memory ``(inputs, targets)`` dataset backed by NumPy arrays.

    A dataset from :func:`repro.data.registry.build_dataset` is shared by
    every plan in the process that asked for the same data, so its arrays are
    read-only (:meth:`freeze`): an in-place write raises ``ValueError``.
    Nothing in this repo writes to a dataset's arrays; code that needs to
    takes a copy — :meth:`subset`, ``dataset[index_array]`` (what
    ``DataLoader.next_batch`` draws) and :func:`train_test_split` all return
    fresh, writable arrays.
    """

    def __init__(self, inputs: np.ndarray, targets: np.ndarray) -> None:
        inputs = np.asarray(inputs)
        targets = np.asarray(targets)
        if len(inputs) != len(targets):
            raise ValueError(
                f"inputs ({len(inputs)}) and targets ({len(targets)}) differ in length"
            )
        self.inputs = inputs
        self.targets = targets

    def __len__(self) -> int:
        return len(self.inputs)

    def __getitem__(self, index) -> Tuple[np.ndarray, np.ndarray]:
        return self.inputs[index], self.targets[index]

    @property
    def input_shape(self) -> Tuple[int, ...]:
        """Shape of a single example."""
        return tuple(self.inputs.shape[1:])

    def subset(self, indices: np.ndarray) -> "ArrayDataset":
        """Return a copy restricted to ``indices``."""
        indices = np.asarray(indices)
        return ArrayDataset(self.inputs[indices], self.targets[indices])

    def freeze(self) -> None:
        """Make ``inputs`` and ``targets`` read-only, in place."""
        self.inputs.flags.writeable = False
        self.targets.flags.writeable = False


def train_test_split(
    dataset: ArrayDataset,
    test_fraction: float = 0.2,
    seed: SeedLike = 0,
) -> Tuple[ArrayDataset, ArrayDataset]:
    """Random split into (train, test) with ``test_fraction`` held out."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    rng = as_generator(seed, "train-test-split")
    n = len(dataset)
    perm = rng.permutation(n)
    n_test = max(1, int(round(n * test_fraction)))
    test_idx, train_idx = perm[:n_test], perm[n_test:]
    return dataset.subset(train_idx), dataset.subset(test_idx)
