"""Bit-for-bit oracle for the worker's training step on the MLP.

A :class:`DistributedWorker` trains an MLP replica for 240 steps.  An
in-test reference replays the same batches on an identically initialised
second replica through the autograd path: ``model(Tensor(x))``,
``F.cross_entropy``, ``backward(seed)``, ``get_flat_grads``.  Every
comparison is ``np.array_equal``: whatever computes the worker's loss and
gradient may drop Python objects, not change a floating-point operation or
the order of one.  Both replicas are moved along the same SGD trajectory, so
the comparison covers a model that learns, not one fixed point.
"""

import numpy as np
import pytest

from repro.core.algorithms.lcasgd import compensation_seed
from repro.core.state import CompensationReply
from repro.core.worker import DistributedWorker
from repro.data.dataset import ArrayDataset
from repro.data.loader import DataLoader
from repro.nn.mlp import MLP
from repro.nn.module import get_flat_grads, get_flat_params, set_flat_params
from repro.nn.norm import bn_layers, set_bn_external
from repro.tensor import Tensor
from repro.tensor import functional as F

STEPS, BATCH, LR, LAMBDA = 240, 64, 0.05, 0.5

SHAPES = [
    ((192, 64, 10), True),
    ((192, 96, 48, 10), True),
    ((432, 160, 64, 27), True),
    ((192, 64, 10), False),
]


def _dataset(sizes, image_shape=None, samples=512):
    rng = np.random.default_rng(11)
    inputs = rng.standard_normal((samples, sizes[0])).astype(np.float32)
    mix = rng.standard_normal((sizes[0], sizes[-1])).astype(np.float32)
    targets = (inputs @ mix).argmax(axis=1).astype(np.int64)
    if image_shape is not None:
        inputs = inputs.reshape((samples,) + image_shape)
    return ArrayDataset(inputs, targets)


def _reference_step(model, inputs, targets, seed):
    """The autograd formulation of one training step: ``(loss, flat grad)``."""
    model.train()
    model.zero_grad()
    loss = F.cross_entropy(model(Tensor(inputs)), targets)
    loss.backward(np.asarray(seed, dtype=loss.data.dtype))
    return float(loss.data), get_flat_grads(model)


def _assert_bn_identical(model, ref, state, collect_bn):
    layers, ref_layers = bn_layers(model), bn_layers(ref)
    assert len(layers) == len(ref_layers)
    if collect_bn:
        assert len(state.bn_stats) == len(ref_layers)
    for index, (layer, ref_layer) in enumerate(zip(layers, ref_layers)):
        assert np.array_equal(layer.last_batch_mean, ref_layer.last_batch_mean)
        assert np.array_equal(layer.last_batch_var, ref_layer.last_batch_var)
        assert layer.last_batch_mean.dtype == ref_layer.last_batch_mean.dtype == np.float64
        assert np.array_equal(layer.running_mean, ref_layer.running_mean)
        assert np.array_equal(layer.running_var, ref_layer.running_var)
        if collect_bn:
            mean, var = state.bn_stats[index]
            assert np.array_equal(mean, ref_layer.last_batch_mean)
            assert np.array_equal(var, ref_layer.last_batch_var)


def _run(sizes, batch_norm, collect_bn=True, external=False, damping=False, image_shape=None):
    data = _dataset(sizes, image_shape)
    model = MLP(sizes, batch_norm=batch_norm, rng=np.random.default_rng(5))
    ref = MLP(sizes, batch_norm=batch_norm, rng=np.random.default_rng(5))
    if external:
        set_bn_external(model)
        set_bn_external(ref)
    worker = DistributedWorker(0, model, DataLoader(data, BATCH, seed=3), collect_bn=collect_bn)
    ref_loader = DataLoader(data, BATCH, seed=3)
    params = get_flat_params(model)
    initial_running = [layer.running_mean.copy() for layer in bn_layers(ref)]
    seeds, losses = set(), []

    for step in range(STEPS):
        worker.load_params(params, version=step, t_comm=0.0)
        set_flat_params(ref, params)
        state = worker.forward()
        inputs, targets = ref_loader.next_batch()

        reply, seed = None, 1.0
        if damping:
            k = 1 + step % 4
            # forecasts below the current loss, so the damped seed is never 1
            fraction = 0.3 + 0.1 * (step % 5)
            reply = CompensationReply(worker=0, l_delay=fraction * k * state.loss, predicted_step=k)
            seed = compensation_seed("damping", state.loss, reply.l_delay, k, LAMBDA)
        payload = worker.backward(reply, lc_lambda=LAMBDA, compensation="damping")
        ref_loss, ref_grad = _reference_step(ref, inputs, targets, seed)

        assert state.loss == ref_loss, f"loss diverged at step {step}"
        assert payload.loss == ref_loss
        assert payload.grad.dtype == np.float64
        assert np.array_equal(payload.grad, ref_grad), f"gradient diverged at step {step}"
        _assert_bn_identical(model, ref, state, collect_bn)
        seeds.add(seed)
        losses.append(state.loss)
        params = params - LR * payload.grad

    if external:
        for layer, before in zip(bn_layers(ref), initial_running):
            assert np.array_equal(layer.running_mean, before)
    if damping:
        assert len(seeds) > 1 and 1.0 not in seeds
    assert np.mean(losses[-20:]) < np.mean(losses[:20])  # the compared stream learns


@pytest.mark.parametrize("sizes, batch_norm", SHAPES)
def test_worker_stream_matches_autograd(sizes, batch_norm):
    _run(sizes, batch_norm)


@pytest.mark.parametrize("sizes", [(192, 64, 10), (192, 96, 48, 10)])
def test_local_bn_running_stats_match_autograd(sizes):
    _run(sizes, True, collect_bn=False)


def test_external_bn_stats_leave_running_stats_alone():
    _run((192, 64, 10), True, external=True)


@pytest.mark.parametrize("sizes, batch_norm", [((192, 64, 10), True), ((192, 64, 10), False)])
def test_damping_seed_matches_autograd(sizes, batch_norm):
    _run(sizes, batch_norm, damping=True)


def test_image_input_is_flattened_like_autograd():
    _run((192, 64, 10), True, image_shape=(3, 8, 8))


def _worker(targets):
    inputs = np.random.default_rng(0).standard_normal((8, 12)).astype(np.float32)
    model = MLP((12, 6, 3), batch_norm=True, rng=np.random.default_rng(1))
    return DistributedWorker(0, model, DataLoader(ArrayDataset(inputs, targets), 4, seed=0))


def test_targets_out_of_range_are_rejected():
    with pytest.raises(ValueError, match="out of range"):
        _worker(np.full(8, 3, dtype=np.int64)).forward()
    with pytest.raises(ValueError, match="out of range"):
        _worker(np.full(8, -1, dtype=np.int64)).forward()


def test_backward_before_forward_is_rejected():
    worker = _worker(np.zeros(8, dtype=np.int64))
    with pytest.raises(RuntimeError, match=r"backward\(\) called before forward\(\)"):
        worker.backward()
    worker.forward()
    worker.backward()
    with pytest.raises(RuntimeError, match=r"backward\(\) called before forward\(\)"):
        worker.backward()
