"""ExperimentPlan / ExperimentSession: backend-agnostic wiring units."""

import numpy as np
import pytest

from repro.core import DistributedTrainer, TrainingConfig
from repro.nn import init as init_mod
from repro.nn.module import get_flat_params
from repro.runtime import ExperimentPlan, ExperimentSession
from repro.runtime.session import STATE_OVERHEAD_BYTES, build_dataset, build_model


def tiny_plan(algorithm="asgd", num_workers=2, **overrides):
    cfg = TrainingConfig.tiny(algorithm=algorithm, num_workers=num_workers, **overrides)
    return ExperimentPlan.from_config(cfg)


class TestExperimentPlan:
    def test_replicas_identical_and_match_server(self):
        plan = tiny_plan(num_workers=3, seed=5)
        flats = [get_flat_params(w.model) for w in plan.workers]
        for flat in flats[1:]:
            np.testing.assert_array_equal(flats[0], flat)
        np.testing.assert_array_equal(flats[0], plan.server.params)

    @pytest.mark.parametrize("num_workers", [1, 4, 8])
    def test_plan_draws_one_model_worth_of_weights(self, monkeypatch, num_workers):
        """The eval model draws; the server and every replica load its vector."""
        drawn = []

        def counting(initializer):
            def draw(shape, rng, dtype=np.float32):
                if isinstance(rng, np.random.Generator):
                    drawn.append(tuple(shape))
                return initializer(shape, rng, dtype)

            return draw

        for name, initializer in list(init_mod._INITIALIZERS.items()):
            monkeypatch.setitem(init_mod._INITIALIZERS, name, counting(initializer))
        cfg = TrainingConfig.tiny(num_workers=num_workers)
        train, _, n_cls = build_dataset(cfg)
        build_model(cfg, train.input_shape, n_cls)
        one_model = list(drawn)
        drawn.clear()
        plan = ExperimentPlan.from_config(cfg)
        assert len(plan.workers) == num_workers
        assert one_model and drawn == one_model

    def test_update_budget_from_epochs(self):
        plan = tiny_plan(epochs=4)
        assert plan.iters_per_epoch == 8  # 256 samples / batch 32
        assert plan.total_updates == 32

    def test_update_budget_from_max_updates(self):
        plan = tiny_plan(max_updates=5)
        assert plan.total_updates == 5

    def test_predictors_only_for_lc_asgd(self):
        assert tiny_plan("asgd").server.loss_predictor is None
        lc = tiny_plan("lc-asgd")
        assert lc.server.loss_predictor is not None
        assert lc.server.step_predictor is not None

    def test_state_bytes_include_bn_payload(self):
        async_bn = tiny_plan("asgd", bn_mode="async")
        assert async_bn.state_bytes > STATE_OVERHEAD_BYTES
        local = tiny_plan("sgd", num_workers=1, bn_mode="local")
        assert local.state_bytes == STATE_OVERHEAD_BYTES

    def test_same_seed_same_plan_params(self):
        a, b = tiny_plan(seed=3), tiny_plan(seed=3)
        np.testing.assert_array_equal(a.server.params, b.server.params)

    def test_trainer_exposes_plan_components(self):
        cfg = TrainingConfig.tiny(algorithm="asgd", num_workers=2, seed=0)
        plan = ExperimentPlan.from_config(cfg)
        trainer = DistributedTrainer(plan=plan)
        assert trainer.server is plan.server
        assert trainer.workers is plan.workers
        assert trainer.compute is plan.compute
        assert trainer.config is plan.config

    def test_trainer_requires_config_or_plan(self):
        with pytest.raises(ValueError, match="config or a plan"):
            DistributedTrainer()


class TestExperimentSession:
    def test_evaluate_stamps_given_clock(self):
        session = ExperimentSession(tiny_plan())
        point = session.evaluate(42.5)
        assert point.time == 42.5
        assert 0.0 <= point.test_error <= 1.0

    def test_maybe_evaluate_respects_boundaries(self):
        session = ExperimentSession(tiny_plan())
        session.maybe_evaluate(0.0)  # zero batches processed: no snapshot
        assert session.curve == []

    def test_ensure_final_eval_fills_empty_curve(self):
        session = ExperimentSession(tiny_plan())
        session.ensure_final_eval(1.0)
        assert len(session.curve) == 1
        session.ensure_final_eval(2.0)  # idempotent once non-empty
        assert len(session.curve) == 1

    def test_build_result_carries_backend_and_clocks(self):
        session = ExperimentSession(tiny_plan(seed=11))
        session.ensure_final_eval(3.0)
        result = session.build_result(3.0, backend="thread", wall_time=2.5)
        assert result.backend == "thread"
        assert result.wall_time == 2.5
        assert result.total_virtual_time == 3.0
        assert result.seed == 11

    def test_build_dataset_reexported(self):
        cfg = TrainingConfig.tiny()
        train, test, n_cls = build_dataset(cfg)
        assert len(train) > 0 and len(test) > 0 and n_cls == 10
        model = build_model(cfg, train.input_shape, n_cls)
        assert model.num_parameters() > 0
