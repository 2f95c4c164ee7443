"""Name-keyed dataset registry: ``config.dataset`` -> (train, test, classes).

Historically the mapping lived as an ``if/elif`` chain inside
``repro.runtime.session.build_dataset``, which meant a new task required
editing core wiring.  Now each dataset is a registered builder —
``builder(config) -> (train_set, test_set, num_classes)`` — and scenarios
like the two-dimensional ``spirals`` task are first-class named entries
selectable from any :class:`~repro.core.config.TrainingConfig` (and hence
from the CLI and sweep grids).

**Builder contract.** A builder may depend on ``config.dataset_kwargs`` and
``config.seed`` only — the seed being ``dataset_kwargs["seed"]`` when given,
``config.seed`` otherwise — so that identical configs produce identical
data: the experiment result store keys on the config alone, and
:func:`build_dataset` shares one copy between every config that agrees on
those inputs.

**Datasets are built once per process.**  :func:`build_dataset` keeps what a
builder returned under ``(config.dataset, the builder, canonical JSON of the
seeded kwargs)`` and hands the same objects to the next caller that asks for
that key — the cells of a campaign differ in algorithm and worker count, not
in data.  The arrays are read-only on every return, hit or miss, so sharing
cannot be observed (:class:`~repro.data.dataset.ArrayDataset` says who gets a
writable copy).  The builder is part of the key, so re-registering a name
never serves the old builder's data.
"""

from __future__ import annotations

import json
import os
from collections import OrderedDict
from typing import Callable, Optional, Tuple

import numpy as np

from repro.analysis.lockorder import make_lock
from repro.data.dataset import ArrayDataset
from repro.data.synthetic import SyntheticCIFAR10, SyntheticImageNet, make_spirals
from repro.utils.registry import Registry

#: what a builder returns: (train, test, num_classes)
BuiltDataset = Tuple[ArrayDataset, ArrayDataset, int]
#: builder(config) -> (train, test, num_classes)
DatasetBuilder = Callable[..., BuiltDataset]

DATASETS: Registry = Registry("dataset")

#: Array bytes the process keeps for reuse, least recently used dropped first.
#: Bytes rather than entries because entry sizes span three orders of
#: magnitude (a 900-point spirals set is 11 kB, the benchmark's cifar 3.5 MB,
#: the largest preset 63 MB): a sweep with the seed axis innermost needs every
#: seed's set resident at once, which a small entry count would thrash and a
#: large one would let grow without limit.  256 MiB holds the paper's whole
#: grid at bench scale many times over, while a paper-scale ``side=32`` set
#: (737 MB) exceeds it and is returned without being kept — a plan already
#: holds it, and the table must not hold it a second time.
DATASET_TABLE_BYTES = 256 * 2**20


class _DatasetTable:
    """Least-recently-used ``key -> built dataset``, bounded by array bytes."""

    def __init__(self, budget_bytes: int) -> None:
        self.budget_bytes = budget_bytes
        self._lock = make_lock("DatasetTable._lock")
        # key -> (built, bytes), oldest use first
        self._entries: "OrderedDict[tuple, Tuple[BuiltDataset, int]]" = OrderedDict()  # guarded-by: _lock

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def retained_bytes(self) -> int:
        """Sum of ``nbytes`` over the four arrays of every entry."""
        with self._lock:
            return sum(size for _, size in self._entries.values())

    def get(self, key: tuple) -> Optional[BuiltDataset]:
        """The entry under ``key``, now the most recently used; None on a miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
            return entry[0]

    def put(self, key: tuple, built: BuiltDataset) -> BuiltDataset:
        """Retain ``built`` and return what callers of ``key`` should share.

        That is the entry already there when another thread built the same
        key meanwhile (nothing is built under the lock, so two may), else
        ``built`` — retained only if it fits the budget on its own.
        """
        train, test, _ = built
        size = sum(a.nbytes for a in (train.inputs, train.targets, test.inputs, test.targets))
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                return entry[0]
            if size <= self.budget_bytes:
                self._entries[key] = (built, size)
                excess = sum(kept for _, kept in self._entries.values()) - self.budget_bytes
                while excess > 0:
                    _, (_, evicted) = self._entries.popitem(last=False)
                    excess -= evicted
        return built


def _new_table() -> None:
    global _TABLE
    _TABLE = _DatasetTable(DATASET_TABLE_BYTES)


_new_table()
if hasattr(os, "register_at_fork"):
    # a forked child (the pool executor's default start method) must not
    # inherit a lock another thread held at the fork; it starts with its own
    # empty table, exactly like a spawned one
    os.register_at_fork(after_in_child=_new_table)


def register_dataset(name: str, builder: DatasetBuilder, override: bool = False) -> DatasetBuilder:
    """Register ``builder`` under ``name``; raises on duplicates unless ``override``."""
    return DATASETS.register(name, builder, override=override)


def dataset_names() -> Tuple[str, ...]:
    """All registered dataset names, sorted."""
    return DATASETS.names()


def build_dataset(config) -> BuiltDataset:
    """Return the shared, read-only (train, test, num_classes) for ``config``.

    Built on the first request for its key and returned again, the same
    objects, until the table drops it; a set larger than
    :data:`DATASET_TABLE_BYTES` is built per call.
    """
    builder = DATASETS.get(config.dataset)
    try:
        kwargs = json.dumps(_seeded_kwargs(config), sort_keys=True, separators=(",", ":"))
    except TypeError:
        # kwargs outside TrainingConfig's JSON contract name nothing to share under
        return _frozen(builder(config))
    key = (config.dataset, builder, kwargs)
    built = _TABLE.get(key)
    if built is None:
        built = _TABLE.put(key, _frozen(builder(config)))
    return built


def _frozen(built: BuiltDataset) -> BuiltDataset:
    built[0].freeze()
    built[1].freeze()
    return built


# ---------------------------------------------------------------------- #
# built-in datasets
# ---------------------------------------------------------------------- #
def _seeded_kwargs(config) -> dict:
    kwargs = dict(config.dataset_kwargs)
    kwargs.setdefault("seed", config.seed)
    return kwargs


def build_cifar(config) -> Tuple[ArrayDataset, ArrayDataset, int]:
    """Synthetic CIFAR-10 stand-in (paper's primary benchmark)."""
    bundle = SyntheticCIFAR10(**_seeded_kwargs(config))
    return bundle.train, bundle.test, SyntheticCIFAR10.num_classes


def build_imagenet(config) -> Tuple[ArrayDataset, ArrayDataset, int]:
    """Synthetic ImageNet stand-in (27 classes)."""
    bundle = SyntheticImageNet(**_seeded_kwargs(config))
    return bundle.train, bundle.test, SyntheticImageNet.num_classes


def build_spirals(config) -> Tuple[ArrayDataset, ArrayDataset, int]:
    """Interleaved 2-D spirals: a tiny non-image scenario for MLP sweeps."""
    kwargs = _seeded_kwargs(config)
    kwargs.setdefault("num_samples", 600)
    num_classes = kwargs.pop("num_classes", 3)
    test_size = kwargs.pop("test_size", max(1, kwargs["num_samples"] // 5))
    full = make_spirals(num_classes=num_classes, **kwargs)
    train = full.subset(np.arange(len(full) - test_size))
    test = full.subset(np.arange(len(full) - test_size, len(full)))
    return train, test, num_classes


register_dataset("cifar", build_cifar)
register_dataset("imagenet", build_imagenet)
register_dataset("spirals", build_spirals)
