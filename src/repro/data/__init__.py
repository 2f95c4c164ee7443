"""Datasets and loaders.

The paper evaluates on CIFAR-10 and ImageNet; neither is available offline,
so :mod:`repro.data.synthetic` generates procedurally structured image
classification tasks with the same role (learnable, non-trivial, with
paper-matching class counts); its docstring gives the rationale.
"""

from repro.data.dataset import ArrayDataset, Dataset, train_test_split
from repro.data.loader import BatchSampler, DataLoader
from repro.data.partition import partition_indices, shard_dataset
from repro.data.registry import (
    DATASETS,
    build_dataset,
    dataset_names,
    register_dataset,
)
from repro.data.synthetic import (
    SyntheticCIFAR10,
    SyntheticImageNet,
    make_image_classification,
    make_regression_series,
    make_spirals,
)

__all__ = [
    "Dataset",
    "ArrayDataset",
    "train_test_split",
    "DATASETS",
    "build_dataset",
    "dataset_names",
    "register_dataset",
    "DataLoader",
    "BatchSampler",
    "SyntheticCIFAR10",
    "SyntheticImageNet",
    "make_image_classification",
    "make_spirals",
    "make_regression_series",
    "partition_indices",
    "shard_dataset",
]
