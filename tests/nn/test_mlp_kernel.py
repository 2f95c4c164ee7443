"""The MLP's fused training kernel against the ``Module`` default, bit for bit.

Two identically initialised replicas take the same batches: one through
:meth:`MLP.train_forward` / :meth:`MLP.train_backward`, the other through
:meth:`Module.train_forward` / :meth:`Module.train_backward` (the autograd
graph).  Loss, flat gradient and every BN statistic must be
``np.array_equal`` for any depth, width, batch size, BN setting and seed.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.mlp import MLP
from repro.nn.module import Module
from repro.nn.norm import bn_layers


@settings(max_examples=60, deadline=None)
@given(
    widths=st.lists(st.integers(1, 40), min_size=3, max_size=5),
    batch=st.integers(1, 70),
    batch_norm=st.booleans(),
    seed=st.one_of(st.just(1.0), st.floats(0.01, 3.0)),
    image=st.booleans(),
    draw=st.integers(0, 2**31 - 1),
)
def test_kernel_is_bit_identical_to_module_default(widths, batch, batch_norm, seed, image, draw):
    classes = max(widths[-1], 2)
    sizes = (12 if image else widths[0], *widths[1:-1], classes)  # 1-3 hidden layers
    kernel = MLP(sizes, batch_norm=batch_norm, rng=np.random.default_rng(draw))
    default = MLP(sizes, batch_norm=batch_norm, rng=np.random.default_rng(draw))
    rng = np.random.default_rng(draw + 1)
    for _ in range(2):  # the second step starts from moved running statistics
        shape = (batch, 3, 2, 2) if image else (batch, sizes[0])
        inputs = rng.standard_normal(shape).astype(np.float32)
        targets = rng.integers(0, classes, batch)

        loss, pending = kernel.train_forward(inputs, targets)
        ref_loss, ref_pending = Module.train_forward(default, inputs, targets)
        grad = kernel.train_backward(pending, seed)
        ref_grad = Module.train_backward(default, ref_pending, seed)

        assert loss == ref_loss
        assert grad.dtype == ref_grad.dtype == np.float64
        assert np.array_equal(grad, ref_grad)
        for layer, ref in zip(bn_layers(kernel), bn_layers(default)):
            assert np.array_equal(layer.last_batch_mean, ref.last_batch_mean)
            assert np.array_equal(layer.last_batch_var, ref.last_batch_var)
            assert np.array_equal(layer.running_mean, ref.running_mean)
            assert np.array_equal(layer.running_var, ref.running_var)
