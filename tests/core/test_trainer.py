"""End-to-end DistributedTrainer integration tests (tiny configs)."""

import numpy as np
import pytest

from repro.core import DistributedTrainer, TrainingConfig
from repro.core.metrics import degradation
from repro.data.registry import build_dataset
from repro.nn.registry import build_model


@pytest.mark.parametrize("algorithm", ["sgd", "ssgd", "asgd", "dc-asgd", "lc-asgd"])
def test_every_algorithm_runs_and_learns(algorithm):
    cfg = TrainingConfig.tiny(algorithm=algorithm, num_workers=2, epochs=4, seed=3)
    result = DistributedTrainer(cfg).run()
    assert result.algorithm == algorithm
    assert result.total_updates == cfg.epochs * 8  # 256/32 = 8 iters/epoch
    assert len(result.curve) == cfg.epochs
    # training reduces error well below the 90% chance level of 10 classes
    assert result.final_train_error < 0.85
    assert result.curve[-1].train_loss < result.curve[0].train_loss * 1.5


def test_sequential_sgd_zero_staleness():
    cfg = TrainingConfig.tiny(algorithm="sgd", num_workers=1, seed=0)
    result = DistributedTrainer(cfg).run()
    assert result.staleness["max"] == 0


def test_asgd_staleness_grows_with_workers():
    res = {}
    for m in (2, 4):
        cfg = TrainingConfig.tiny(algorithm="asgd", num_workers=m, seed=0)
        res[m] = DistributedTrainer(cfg).run().staleness["mean"]
    assert res[4] > res[2] > 0
    assert res[4] == pytest.approx(3.0, abs=1.0)  # ~M-1 under uniform interleaving


def test_ssgd_zero_staleness_barrier():
    cfg = TrainingConfig.tiny(algorithm="ssgd", num_workers=4, seed=0)
    result = DistributedTrainer(cfg).run()
    assert result.staleness["max"] == 0


def test_ssgd_slower_wallclock_than_asgd():
    """The barrier makes SSGD's virtual time per batch at least ASGD's."""
    times = {}
    for algo in ("ssgd", "asgd"):
        cfg = TrainingConfig.tiny(algorithm=algo, num_workers=4, seed=0)
        times[algo] = DistributedTrainer(cfg).run().total_virtual_time
    assert times["ssgd"] >= times["asgd"]


def test_deterministic_same_seed():
    runs = []
    for _ in range(2):
        cfg = TrainingConfig.tiny(algorithm="lc-asgd", num_workers=2, epochs=2, seed=11)
        runs.append(DistributedTrainer(cfg).run())
    a, b = runs
    assert a.final_test_error == b.final_test_error
    assert a.total_virtual_time == b.total_virtual_time
    np.testing.assert_array_equal(
        [p.train_loss for p in a.curve], [p.train_loss for p in b.curve]
    )


def test_different_seeds_differ():
    cfg7 = TrainingConfig.tiny(algorithm="asgd", seed=7)
    cfg8 = TrainingConfig.tiny(algorithm="asgd", seed=8)
    r7 = DistributedTrainer(cfg7).run()
    r8 = DistributedTrainer(cfg8).run()
    assert r7.curve[-1].train_loss != r8.curve[-1].train_loss


def test_max_updates_override():
    cfg = TrainingConfig.tiny(algorithm="asgd", max_updates=5, seed=0)
    result = DistributedTrainer(cfg).run()
    assert result.total_updates == 5
    assert len(result.curve) >= 1


def test_lc_asgd_records_predictor_series():
    cfg = TrainingConfig.tiny(algorithm="lc-asgd", num_workers=2, epochs=3, seed=1)
    result = DistributedTrainer(cfg).run()
    assert len(result.loss_prediction_pairs) > 10
    assert len(result.step_prediction_pairs) > 10
    assert result.timers["loss_pred_ms"] > 0
    assert result.timers["step_pred_ms"] > 0
    assert np.isfinite(result.loss_prediction_error())
    assert np.isfinite(result.step_prediction_error())


def test_non_lc_has_no_predictor_series():
    cfg = TrainingConfig.tiny(algorithm="asgd", seed=1)
    result = DistributedTrainer(cfg).run()
    assert result.loss_prediction_pairs == []
    assert result.timers["loss_pred_ms"] == 0.0


def test_finishing_order_covers_all_workers():
    cfg = TrainingConfig.tiny(algorithm="asgd", num_workers=3, seed=0)
    result = DistributedTrainer(cfg).run()
    assert set(result.finishing_order) == {0, 1, 2}


def test_straggler_injection_runs():
    cfg = TrainingConfig.tiny(algorithm="asgd", num_workers=2, seed=0)
    cfg.cluster.straggler_probability = 0.5
    cfg.cluster.straggler_slowdown = 8.0
    result = DistributedTrainer(cfg).run()
    assert result.total_updates > 0


def test_zero_latency_links_ok():
    cfg = TrainingConfig.tiny(algorithm="asgd", num_workers=2, seed=0)
    cfg.cluster.link_latency = 0.0
    cfg.cluster.link_jitter = 0.0
    result = DistributedTrainer(cfg).run()
    assert result.total_updates > 0


@pytest.mark.parametrize("bn_mode", ["replace", "async"])
def test_bn_modes_run(bn_mode):
    cfg = TrainingConfig.tiny(algorithm="asgd", num_workers=2, bn_mode=bn_mode, seed=0)
    result = DistributedTrainer(cfg).run()
    assert result.bn_mode == bn_mode
    assert result.final_test_error < 0.9


@pytest.mark.parametrize("compensation", ["scale", "sensitivity", "damping"])
def test_lc_compensation_modes_run(compensation):
    cfg = TrainingConfig.tiny(
        algorithm="lc-asgd", num_workers=2, epochs=2, compensation=compensation, seed=0
    )
    result = DistributedTrainer(cfg).run()
    assert result.final_train_error <= 1.0


@pytest.mark.parametrize("variant", ["ema", "last", "linear"])
def test_lc_baseline_predictors_run(variant):
    cfg = TrainingConfig.tiny(algorithm="lc-asgd", num_workers=2, epochs=2, seed=0)
    cfg.predictor.loss_variant = variant
    cfg.predictor.step_variant = "ema" if variant != "last" else "last"
    result = DistributedTrainer(cfg).run()
    assert result.total_updates > 0


def test_virtual_time_parallel_speedup():
    """More workers means less virtual time for the same number of batches."""
    times = {}
    for m in (1, 4):
        algo = "sgd" if m == 1 else "asgd"
        cfg = TrainingConfig.tiny(algorithm=algo, num_workers=m, seed=0)
        times[m] = DistributedTrainer(cfg).run().total_virtual_time
    assert times[4] < times[1] * 0.6


def test_curve_epochs_monotone():
    cfg = TrainingConfig.tiny(algorithm="asgd", epochs=4, seed=0)
    result = DistributedTrainer(cfg).run()
    epochs = [p.epoch for p in result.curve]
    times = [p.time for p in result.curve]
    assert epochs == sorted(epochs)
    assert times == sorted(times)


def test_build_dataset_variants():
    for name in ("cifar", "imagenet", "spirals"):
        cfg = TrainingConfig.tiny()
        cfg = cfg.with_overrides(dataset=name, dataset_kwargs={})
        train, test, n_cls = build_dataset(cfg)
        assert len(train) > 0 and len(test) > 0 and n_cls >= 2
    with pytest.raises(ValueError):
        build_dataset(TrainingConfig.tiny().with_overrides(dataset="bogus", dataset_kwargs={}))


def test_build_model_variants():
    cfg = TrainingConfig.tiny()
    for name, kwargs in (
        ("mlp", {"hidden": (8,), "batch_norm": True}),
        ("resnet_tiny", {"base_width": 4}),
    ):
        model = build_model(
            cfg.with_overrides(model=name, model_kwargs=kwargs), (3, 6, 6), 4
        )
        assert model.num_parameters() > 0
    with pytest.raises(ValueError):
        build_model(cfg.with_overrides(model="bogus", model_kwargs={}), (3, 6, 6), 4)
    with pytest.raises(ValueError, match="unknown mlp kwargs"):
        build_model(
            cfg.with_overrides(model="mlp", model_kwargs={"bogus": 1}), (3, 6, 6), 4
        )


def test_identical_replica_initialization():
    """All model replicas must start from the same random initialization."""
    cfg = TrainingConfig.tiny(algorithm="asgd", num_workers=3, seed=5)
    trainer = DistributedTrainer(cfg)
    from repro.nn.module import get_flat_params

    flats = [get_flat_params(w.model) for w in trainer.workers]
    for flat in flats[1:]:
        np.testing.assert_array_equal(flats[0], flat)
    np.testing.assert_array_equal(flats[0], trainer.server.params)
