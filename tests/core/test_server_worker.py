"""ParameterServer (Algorithm 2) and DistributedWorker (Algorithm 1) units."""

import numpy as np
import pytest

from repro.core.algorithms import ASGDRule, LCASGDRule, SSGDRule, compensation_seed
from repro.core.algorithms.lcasgd import SEED_MAX, SEED_MIN
from repro.core.predictors import EMALossPredictor, EMAStepPredictor
from repro.core.predictors.base import LossPredictorBase, StepPredictorBase
from repro.core.server import ParameterServer
from repro.core.state import GradientPayload, WorkerState
from repro.core.worker import DistributedWorker
from repro.data.dataset import ArrayDataset
from repro.data.loader import DataLoader
from repro.nn.mlp import MLP
from repro.nn.module import get_flat_params
from repro.optim.lr_scheduler import MultiStepLR


def make_server(rule=None, workers=2, with_predictors=False, iters_per_epoch=4):
    rule = rule or ASGDRule()
    kwargs = {}
    if with_predictors:
        kwargs = dict(
            loss_predictor=EMALossPredictor(),
            step_predictor=EMAStepPredictor(),
        )
    return ParameterServer(
        np.zeros(4),
        rule,
        MultiStepLR(0.1, (2,), 0.1),
        iters_per_epoch=iters_per_epoch,
        **kwargs,
    )


def grad(worker, pull_version, value=1.0):
    return GradientPayload(worker=worker, grad=np.full(4, value), pull_version=pull_version)


class TestServer:
    def test_pull_returns_copy(self):
        server = make_server()
        w = server.handle_pull(0)
        w[:] = 99.0
        np.testing.assert_array_equal(server.params, 0.0)

    def test_version_and_staleness(self):
        server = make_server()
        server.handle_pull(0)
        server.handle_pull(1)
        advanced, staleness = server.handle_gradient(grad(0, 0))
        assert advanced and staleness == 0
        advanced, staleness = server.handle_gradient(grad(1, 0))
        assert staleness == 1  # worker 1's pull is one version behind now

    def test_epoch_and_lr_schedule(self):
        server = make_server(iters_per_epoch=2)
        assert server.epoch == 0
        assert server.current_lr == pytest.approx(0.1)
        for i in range(4):
            server.handle_pull(0)
            server.handle_gradient(grad(0, server.version))
        assert server.epoch == 2
        assert server.current_lr == pytest.approx(0.01)  # milestone at epoch 2

    def test_non_finite_gradient_rejected(self):
        server = make_server()
        server.handle_pull(0)
        bad = GradientPayload(worker=0, grad=np.array([np.nan, 0, 0, 0]), pull_version=0)
        with pytest.raises(FloatingPointError, match="diverged"):
            server.handle_gradient(bad)

    def test_gradient_shape_check(self):
        server = make_server()
        with pytest.raises(ValueError, match="size"):
            server.handle_gradient(GradientPayload(worker=0, grad=np.zeros(3), pull_version=0))

    def test_ssgd_barrier_queues_pulls(self):
        server = make_server(rule=SSGDRule(num_workers=2))
        server.handle_pull(0)
        server.handle_pull(1)
        server.handle_gradient(grad(0, 0))
        # worker 0 already contributed: its next pull must queue
        assert server.handle_pull(0, request_time=1.5) is None
        assert server.pending_pulls == [(0, 1.5)]
        advanced, _ = server.handle_gradient(grad(1, 0))
        assert advanced
        drained = server.drain_pending_pulls()
        assert drained == [(0, 1.5)]
        assert server.pull_versions[0] == 1

    def test_ssgd_drain_preserves_fifo_order(self):
        """Barrier-queued pulls are served strictly in arrival order."""
        server = make_server(rule=SSGDRule(num_workers=3), workers=3)
        for w in range(3):
            server.handle_pull(w)
        server.handle_gradient(grad(0, 0))
        server.handle_gradient(grad(2, 0))
        # two contributors pull again before the round closes: both queue
        assert server.handle_pull(2, request_time=0.7) is None
        assert server.handle_pull(0, request_time=0.9) is None
        assert server.pending_pulls == [(2, 0.7), (0, 0.9)]
        advanced, _ = server.handle_gradient(grad(1, 0))
        assert advanced
        drained = server.drain_pending_pulls()
        assert [w for w, _ in drained] == [2, 0]
        assert [t for _, t in drained] == [0.7, 0.9]

    def test_ssgd_drain_serves_post_barrier_version(self):
        """Drained pulls observe the version advanced by the closing round."""
        server = make_server(rule=SSGDRule(num_workers=2))
        server.handle_pull(0)
        server.handle_pull(1)
        server.handle_gradient(grad(0, 0))
        assert server.handle_pull(0) is None
        server.handle_gradient(grad(1, 0))
        assert server.version == 1
        server.drain_pending_pulls()
        assert server.pull_versions[0] == 1
        assert server.pending_pulls == []
        # the queue does not resurrect: draining again is a no-op
        assert server.drain_pending_pulls() == []

    def test_ssgd_fresh_worker_not_queued(self):
        """Only workers that already contributed this round are barred."""
        server = make_server(rule=SSGDRule(num_workers=2))
        server.handle_pull(0)
        server.handle_gradient(grad(0, 0))
        # worker 1 has not contributed yet: its pull is served immediately
        assert server.handle_pull(1) is not None
        assert server.pending_pulls == []

    def test_handle_combined_logs_iter_and_applies(self):
        server = make_server()
        server.handle_pull(0)
        state = WorkerState(worker=0, loss=1.5)
        advanced, staleness = server.handle_combined(state, grad(0, 0))
        assert advanced and staleness == 0
        assert server.iter_log == [0]
        assert server.batches_processed == 1

    def test_handle_state_without_predictors_returns_none(self):
        server = make_server()
        state = WorkerState(worker=0, loss=1.0)
        assert server.handle_state(state) is None
        assert server.iter_log == [0]

    def test_handle_state_with_predictors(self):
        server = make_server(with_predictors=True)
        server.handle_pull(0)
        reply = server.handle_state(WorkerState(worker=0, loss=2.0, t_comm=0.1, t_comp=0.2))
        assert reply is not None
        assert reply.l_delay >= 0.0
        assert reply.predicted_step >= 0
        # landing the gradient trains the step predictor with the truth
        server.handle_gradient(grad(0, 0))
        assert len(server.step_prediction_pairs) == 1

    def test_loss_prediction_pairs_recorded(self):
        server = make_server(with_predictors=True)
        for i in range(3):
            server.handle_pull(0)
            server.handle_state(WorkerState(worker=0, loss=2.0 - 0.1 * i))
            server.handle_gradient(grad(0, server.version))
        # first arrival has no forecast yet; later ones do
        assert len(server.loss_prediction_pairs) == 2

    def test_state_rejects_nonfinite_loss(self):
        with pytest.raises(ValueError, match="non-finite"):
            WorkerState(worker=0, loss=float("nan"))


class StubLoss(LossPredictorBase):
    def __init__(self, l_delay=1.0, sensitivity=0.0):
        self.l_delay, self.sensitivity = l_delay, sensitivity

    def observe(self, loss):
        pass

    def predict_next(self):
        return None

    def predict_delay(self, loss, k):
        return self.l_delay

    def delay_sensitivity(self, loss, k, eps=1e-3):
        return self.sensitivity


class StubStep(StepPredictorBase):
    def __init__(self, k=1):
        self.k = k

    def observe(self, worker, step, t_comm, t_comp):
        pass

    def predict(self, worker, t_comm, t_comp):
        return self.k


NAN, INF = float("nan"), float("inf")


class TestNonFiniteCompensation:
    """A diverged predictor fails handle_state by name, before any reply."""

    @pytest.mark.parametrize(
        "loss, step, compensation, blamed",
        [
            (StubLoss(), StubStep(k=NAN), "damping", "step predictor's staleness forecast k"),
            (StubLoss(), StubStep(k=INF), "damping", "step predictor's staleness forecast k"),
            (StubLoss(l_delay=NAN), StubStep(), "damping", "loss predictor's l_delay"),
            (StubLoss(l_delay=-INF), StubStep(), "scale", "loss predictor's l_delay"),
            (StubLoss(sensitivity=NAN), StubStep(), "sensitivity", "loss predictor's sensitivity"),
            (StubLoss(sensitivity=INF), StubStep(), "sensitivity", "loss predictor's sensitivity"),
        ],
    )
    def test_handle_state_names_the_predictor_and_worker(self, loss, step, compensation, blamed):
        server = ParameterServer(
            np.zeros(4), LCASGDRule(), MultiStepLR(0.1, (2,), 0.1), iters_per_epoch=4,
            loss_predictor=loss, step_predictor=step, compensation=compensation,
        )
        server.handle_pull(3)
        with pytest.raises(FloatingPointError, match=f"{blamed} for worker 3 is"):
            server.handle_state(WorkerState(worker=3, loss=2.0))
        if blamed.startswith("step"):
            assert 3 not in server._inflight_predicted_k

    def test_finite_stub_forecasts_pass(self):
        server = ParameterServer(
            np.zeros(4), LCASGDRule(), MultiStepLR(0.1, (2,), 0.1), iters_per_epoch=4,
            loss_predictor=StubLoss(l_delay=2.5, sensitivity=0.3), step_predictor=StubStep(k=2),
            compensation="sensitivity",
        )
        reply = server.handle_state(WorkerState(worker=1, loss=2.0))
        assert (reply.l_delay, reply.predicted_step, reply.sensitivity) == (2.5, 2, 0.3)

    @pytest.mark.parametrize("value", [NAN, INF, -INF])
    def test_clip_step_rejects_non_finite_forecasts(self, value):
        with pytest.raises(FloatingPointError, match="step predictor forecast"):
            StepPredictorBase._clip_step(value, 8)

    def test_clip_step_and_seed_clamp_as_np_clip_did(self):
        rng = np.random.default_rng(0)
        for value in np.concatenate([rng.normal(0, 20, 200), [-0.5, 0.5, 1.5, 8.5, 9.0]]):
            value = float(value)
            got = StepPredictorBase._clip_step(value, 8)
            assert type(got) is int and got == int(np.clip(round(value), 0, 8))
        loss, k, lam = 1.3, 3, 0.7
        for l_delay in np.concatenate([rng.normal(0, 5, 200), [NAN, INF, -INF]]):
            l_delay = float(l_delay)
            ratio = min(l_delay / k / loss, 1.0)
            raw = {
                "scale": (loss + lam * l_delay) / loss,
                "damping": (1.0 - lam) + lam * ratio * ratio,
            }
            for mode, seed in raw.items():
                got = compensation_seed(mode, loss, l_delay, k, lam)
                want = float(np.clip(seed, SEED_MIN, SEED_MAX))
                assert got == want or (np.isnan(got) and np.isnan(want))


class TestWorker:
    def make_worker(self, batch_norm=True):
        rng = np.random.default_rng(0)
        model = MLP((6, 5, 3), batch_norm=batch_norm, rng=rng)
        data = ArrayDataset(
            rng.standard_normal((32, 6)).astype(np.float32), rng.integers(0, 3, 32)
        )
        return DistributedWorker(0, model, DataLoader(data, 8, seed=0)), model

    def test_forward_produces_state(self):
        worker, model = self.make_worker()
        worker.load_params(get_flat_params(model), version=3, t_comm=0.05)
        state = worker.forward()
        assert state.worker == 0
        assert np.isfinite(state.loss)
        assert state.pull_version == 3
        assert state.t_comm == pytest.approx(0.05)
        assert len(state.bn_stats) == 1  # MLP(6,5,3) has one hidden BN layer

    def test_backward_before_forward_raises(self):
        worker, _ = self.make_worker()
        with pytest.raises(RuntimeError, match="before forward"):
            worker.backward()

    def test_backward_produces_gradient(self):
        worker, model = self.make_worker()
        worker.load_params(get_flat_params(model), version=0, t_comm=0.0)
        worker.forward()
        payload = worker.backward(t_comp=0.4)
        assert payload.grad.shape == (model.num_parameters(),)
        assert np.abs(payload.grad).max() > 0
        assert worker.last_t_comp == pytest.approx(0.4)
        # graph consumed: calling again raises
        with pytest.raises(RuntimeError):
            worker.backward()

    def test_compensated_backward_scales_gradient(self):
        from repro.core.state import CompensationReply

        worker, model = self.make_worker()
        flat = get_flat_params(model)

        worker.load_params(flat, 0, 0.0)
        worker.forward()
        plain = worker.backward().grad

        worker.load_params(flat, 0, 0.0)
        state = worker.forward()
        # damping with future loss at half the current level -> seed < 1
        reply = CompensationReply(worker=0, l_delay=state.loss * 0.5 * 4, predicted_step=4)
        damped = worker.backward(reply=reply, lc_lambda=0.7, compensation="damping").grad
        ratio = np.linalg.norm(damped) / np.linalg.norm(plain)
        assert ratio < 0.99

    def test_forward_backward_fused(self):
        worker, model = self.make_worker(batch_norm=False)
        worker.load_params(get_flat_params(model), 0, 0.0)
        state, payload = worker.forward_backward()
        assert state.bn_stats == []
        assert payload.pull_version == 0
