"""build_dataset builds each dataset once per process and shares it read-only."""

import hashlib
import multiprocessing as mp
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro.core.config import TrainingConfig
from repro.data import registry
from repro.data.dataset import ArrayDataset, train_test_split
from repro.data.registry import DATASETS, build_dataset, register_dataset
from repro.runtime.session import ExperimentPlan


def arrays(built):
    train, test, _ = built
    return [train.inputs, train.targets, test.inputs, test.targets]


def nbytes(built) -> int:
    return sum(a.nbytes for a in arrays(built))


def tiny(**dataset_kwargs) -> TrainingConfig:
    base = TrainingConfig.tiny()
    return base.with_overrides(dataset_kwargs={**base.dataset_kwargs, **dataset_kwargs})


@pytest.fixture
def table(monkeypatch):
    """An empty table of the real size: every first build below is a miss."""
    fresh = registry._DatasetTable(registry.DATASET_TABLE_BYTES)
    monkeypatch.setattr(registry, "_TABLE", fresh)
    return fresh


@pytest.fixture
def small_table(monkeypatch):
    """Room for two tiny cifar sets and not three."""
    one = nbytes(build_dataset(tiny()))
    fresh = registry._DatasetTable(2 * one + one // 2)
    monkeypatch.setattr(registry, "_TABLE", fresh)
    return fresh


def constant_builder(value: float):
    def build(config):
        def split(n):
            return ArrayDataset(np.full((n, 2), value, dtype=np.float32), np.zeros(n, dtype=np.int64))

        return split(8), split(4), 2

    return build


@pytest.fixture
def scratch_name():
    name = "table-test-scratch"
    yield name
    if name in DATASETS:
        DATASETS.unregister(name)


# ---------------------------------------------------------------------- #
# immutability: unconditional, not a property of hits
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("preset", ["tiny", "small_imagenet", "spirals"])
def test_every_array_is_read_only_on_a_miss_and_on_a_hit(preset, table):
    config = getattr(TrainingConfig, preset)()
    if preset == "small_imagenet":
        config = config.with_overrides(
            dataset_kwargs={"train_size": 270, "test_size": 54, "side": 6}
        )
    miss = build_dataset(config)
    assert len(table) == 1
    hit = build_dataset(config)
    assert hit is miss
    for array in arrays(miss):
        assert not array.flags.writeable


def test_a_user_registered_builder_is_frozen_too(table, scratch_name):
    register_dataset(scratch_name, constant_builder(1.0))
    built = build_dataset(tiny().with_overrides(dataset=scratch_name))
    assert all(not a.flags.writeable for a in arrays(built))


def test_a_set_that_is_not_retained_is_frozen_too(monkeypatch):
    monkeypatch.setattr(registry, "_TABLE", registry._DatasetTable(1024))
    built = build_dataset(tiny())
    assert len(registry._TABLE) == 0 and registry._TABLE.retained_bytes == 0
    assert all(not a.flags.writeable for a in arrays(built))
    # kwargs outside the config's JSON contract are built per call, frozen as well
    odd = build_dataset(tiny(seed=np.int64(3)))
    assert all(not a.flags.writeable for a in arrays(odd))
    np.testing.assert_array_equal(odd[0].inputs, build_dataset(tiny(seed=3))[0].inputs)


def test_writing_into_a_plans_dataset_raises():
    plan = ExperimentPlan.from_config(TrainingConfig.tiny())
    with pytest.raises(ValueError, match="read-only"):
        plan.train_set.inputs[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        plan.test_set.targets += 1


def test_batches_subsets_and_splits_are_writable_copies():
    plan = ExperimentPlan.from_config(TrainingConfig.tiny())
    x, y = plan.workers[0].loader.next_batch()
    assert x.flags.writeable and y.flags.writeable
    assert not np.shares_memory(x, plan.train_set.inputs)
    assert not np.shares_memory(y, plan.train_set.targets)
    before = plan.train_set.inputs.copy()
    x += 1.0
    y[:] = 0
    np.testing.assert_array_equal(plan.train_set.inputs, before)

    subset = plan.train_set.subset(np.arange(10))
    assert subset.inputs.flags.writeable and subset.targets.flags.writeable
    for part in train_test_split(plan.train_set, seed=0):
        assert part.inputs.flags.writeable and part.targets.flags.writeable


# ---------------------------------------------------------------------- #
# the key: the effective builder input, and the builder itself
# ---------------------------------------------------------------------- #
def test_configs_that_differ_outside_the_dataset_share_one_object(table):
    base = tiny()
    train = build_dataset(base)[0]
    for other in (
        base.with_overrides(algorithm="lc-asgd"),
        base.with_overrides(num_workers=8),
        base.with_overrides(batch_size=7, model_kwargs={"hidden": (8,)}),
    ):
        assert build_dataset(other)[0] is train
    assert len(table) == 1


def test_a_different_noise_side_or_seed_is_a_different_dataset(table):
    base = tiny()
    train = build_dataset(base)[0]
    for other in (tiny(noise=0.6), tiny(side=8), base.with_overrides(seed=base.seed + 1)):
        assert build_dataset(other)[0] is not train
    assert len(table) == 4
    # the seed the builder receives is the key: spelled in the kwargs or taken
    # from config.seed makes no difference
    assert build_dataset(tiny(seed=base.seed).with_overrides(seed=99))[0] is train


def test_re_registering_a_name_never_serves_the_old_builders_data(table, scratch_name):
    config = tiny().with_overrides(dataset=scratch_name)
    register_dataset(scratch_name, constant_builder(1.0))
    assert build_dataset(config)[0].inputs[0, 0] == 1.0
    register_dataset(scratch_name, constant_builder(2.0), override=True)
    assert build_dataset(config)[0].inputs[0, 0] == 2.0
    DATASETS.unregister(scratch_name)
    register_dataset(scratch_name, constant_builder(3.0))
    assert build_dataset(config)[0].inputs[0, 0] == 3.0


# ---------------------------------------------------------------------- #
# the bound
# ---------------------------------------------------------------------- #
def test_retained_bytes_stay_under_the_budget_and_the_least_recently_used_goes(small_table):
    a, b, c = tiny(), tiny(noise=0.6), tiny(noise=0.7)
    built_a, built_b = build_dataset(a), build_dataset(b)
    assert small_table.retained_bytes == nbytes(built_a) + nbytes(built_b)
    assert build_dataset(a) is built_a  # a hit: b is now the least recently used
    build_dataset(c)
    assert small_table.retained_bytes <= small_table.budget_bytes
    assert len(small_table) == 2
    assert build_dataset(a) is built_a
    rebuilt_b = build_dataset(b)
    assert rebuilt_b is not built_b
    np.testing.assert_array_equal(rebuilt_b[0].inputs, built_b[0].inputs)
    assert small_table.retained_bytes <= small_table.budget_bytes


def test_the_default_budget_is_a_byte_count_a_paper_scale_set_exceeds():
    paper_cifar = 60000 * 3 * 32 * 32 * 4
    preset = TrainingConfig.paper_imagenet().dataset_kwargs
    largest_preset = (preset["train_size"] + preset["test_size"]) * (3 * preset["side"] ** 2 * 4 + 8)
    assert largest_preset < registry.DATASET_TABLE_BYTES < paper_cifar


def test_two_threads_asking_for_one_cold_key_share_one_entry(table, scratch_name):
    both_building = threading.Barrier(2, timeout=10)

    def slow_builder(config):
        both_building.wait()  # neither can finish before the other has missed
        return constant_builder(float(config.seed))(config)

    register_dataset(scratch_name, slow_builder)
    config = tiny().with_overrides(dataset=scratch_name, seed=4)
    results = []
    threads = [
        threading.Thread(target=lambda: results.append(build_dataset(config))) for _ in range(2)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert len(results) == 2 and len(table) == 1
    assert results[0] is results[1]
    assert results[0][0].inputs[0, 0] == 4.0


def test_many_threads_over_a_table_that_keeps_evicting(monkeypatch, scratch_name):
    register_dataset(scratch_name, lambda config: constant_builder(float(config.seed))(config))
    configs = [tiny().with_overrides(dataset=scratch_name, seed=seed) for seed in range(5)]
    one = nbytes(build_dataset(configs[0]))
    table = registry._DatasetTable(2 * one + one // 2)  # room for two sets and not three
    monkeypatch.setattr(registry, "_TABLE", table)
    failures = []

    def hammer(offset: int) -> None:
        try:
            for step in range(300):
                seed = (offset + step) % len(configs)
                if build_dataset(configs[seed])[0].inputs[0, 0] != seed:
                    failures.append(seed)
        except Exception as exc:  # a thread's failure must reach the assertion below
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=hammer, args=(n,)) for n in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert failures == []
    # an insertion that raced past the eviction loop would break this
    assert table.retained_bytes <= table.budget_bytes
    assert 1 <= len(table) <= 2


# ---------------------------------------------------------------------- #
# new processes start with their own table
# ---------------------------------------------------------------------- #
def _child_probe(config_dict):
    """(entries before, digest of the train inputs, entries after) in this process."""
    config = TrainingConfig.from_dict(config_dict)
    before = len(registry._TABLE)
    train = build_dataset(config)[0]
    return before, hashlib.sha256(train.inputs.tobytes()).hexdigest(), len(registry._TABLE)


@pytest.mark.parametrize("method", ["spawn", "fork"])
def test_a_pool_child_starts_with_an_empty_table(method):
    if method not in mp.get_all_start_methods():
        pytest.skip(f"no {method} on this platform")
    config = tiny()
    train = build_dataset(config)[0]
    assert len(registry._TABLE) >= 1
    with mp.get_context(method).Pool(1) as pool:
        before, digest, after = pool.apply_async(_child_probe, (config.to_dict(),)).get(timeout=60)
    assert (before, after) == (0, 1)
    assert digest == hashlib.sha256(train.inputs.tobytes()).hexdigest()


def test_the_interpreter_a_proc_child_runs_in_starts_with_an_empty_table():
    build_dataset(tiny())
    out = subprocess.run(
        [sys.executable, "-c", "from repro.data import registry; print(len(registry._TABLE))"],
        capture_output=True, text=True, timeout=60, check=True,
        env={"PYTHONPATH": str(registry.__file__).rsplit("/repro/", 1)[0]},
    )
    assert out.stdout.strip() == "0"
