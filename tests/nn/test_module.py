"""Module registration, traversal, state dicts, flat-parameter exchange."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.nn.module import get_flat_grads, get_flat_params, set_flat_params
from repro.tensor import Tensor
from repro.tensor import functional as F


def make_model(rng):
    return nn.MLP((6, 5, 4), batch_norm=True, rng=rng)


def test_named_parameters_deterministic(rng):
    m1 = make_model(np.random.default_rng(0))
    m2 = make_model(np.random.default_rng(0))
    names1 = [n for n, _ in m1.named_parameters()]
    names2 = [n for n, _ in m2.named_parameters()]
    assert names1 == names2
    assert len(names1) == len(set(names1))


def test_parameter_registration(rng):
    lin = nn.Linear(3, 2, rng=rng)
    names = dict(lin.named_parameters())
    assert set(names) == {"weight", "bias"}


def test_buffers_traversal(rng):
    model = make_model(rng)
    buffer_names = [n for n, _ in model.named_buffers()]
    assert any("running_mean" in n for n in buffer_names)
    assert any("running_var" in n for n in buffer_names)


def test_train_eval_propagates(rng):
    model = make_model(rng)
    model.eval()
    assert all(not m.training for m in model.modules())
    model.train()
    assert all(m.training for m in model.modules())


def test_zero_grad(rng):
    model = make_model(rng)
    x = Tensor(rng.standard_normal((4, 6)).astype(np.float32))
    F.cross_entropy(model(x), np.array([0, 1, 2, 3])).backward()
    assert any(p.grad is not None for p in model.parameters())
    model.zero_grad()
    assert all(p.grad is None for p in model.parameters())


def test_state_dict_roundtrip(rng):
    m1 = make_model(np.random.default_rng(1))
    m2 = make_model(np.random.default_rng(2))
    state = m1.state_dict()
    m2.load_state_dict(state)
    for (n1, p1), (n2, p2) in zip(m1.named_parameters(), m2.named_parameters()):
        assert n1 == n2
        np.testing.assert_allclose(p1.data, p2.data)
    for (n1, b1), (n2, b2) in zip(m1.named_buffers(), m2.named_buffers()):
        np.testing.assert_allclose(b1, b2)


def test_load_state_dict_rejects_unknown(rng):
    model = make_model(rng)
    with pytest.raises(KeyError):
        model.load_state_dict({"nonexistent": np.zeros(3)})
    with pytest.raises(KeyError):
        model.load_state_dict({"buffer:nonexistent": np.zeros(3)})


def test_load_state_dict_rejects_bad_shape(rng):
    model = make_model(rng)
    state = model.state_dict()
    key = next(k for k in state if not k.startswith("buffer:"))
    state[key] = np.zeros((99, 99))
    with pytest.raises(ValueError, match="shape mismatch"):
        model.load_state_dict(state)


def test_num_parameters(rng):
    lin = nn.Linear(3, 2, rng=rng)
    assert lin.num_parameters() == 3 * 2 + 2


def test_flat_params_roundtrip(rng):
    m1 = make_model(np.random.default_rng(1))
    m2 = make_model(np.random.default_rng(2))
    flat = get_flat_params(m1)
    assert flat.dtype == np.float64
    assert flat.size == m1.num_parameters()
    set_flat_params(m2, flat)
    np.testing.assert_allclose(get_flat_params(m2), flat, rtol=1e-6)


def test_set_flat_params_size_validation(rng):
    model = make_model(rng)
    flat = get_flat_params(model)
    with pytest.raises(ValueError):
        set_flat_params(model, flat[:-1])
    with pytest.raises(ValueError):
        set_flat_params(model, np.concatenate([flat, [0.0]]))


@pytest.mark.parametrize("delta", [-1, 1, -5])
def test_set_flat_params_wrong_length_leaves_every_parameter(rng, delta):
    """A wrong-length vector raises before any parameter is written."""
    model = make_model(rng)
    before = [(p, p.data, p.data.copy()) for p in model.parameters()]
    flat = get_flat_params(model)
    wrong = np.full(flat.size + delta, 7.0)
    with pytest.raises(ValueError, match=f"{wrong.size} elements, module holds {flat.size}"):
        set_flat_params(model, wrong)
    for param, data, values in before:
        assert param.data is data
        np.testing.assert_array_equal(param.data, values)


def test_flat_grads_zero_when_missing(rng):
    model = make_model(rng)
    grads = get_flat_grads(model)
    assert grads.shape == get_flat_params(model).shape
    np.testing.assert_array_equal(grads, 0.0)


def test_flat_grads_after_backward(rng):
    model = make_model(rng)
    x = Tensor(rng.standard_normal((8, 6)).astype(np.float32))
    F.cross_entropy(model(x), rng.integers(0, 4, 8)).backward()
    grads = get_flat_grads(model)
    assert np.abs(grads).max() > 0


@given(st.integers(0, 2**16))
@settings(max_examples=20, deadline=None)
def test_flat_roundtrip_property(seed):
    """set_flat_params(get_flat_params(m)) is the identity for any init."""
    rng = np.random.default_rng(seed)
    model = nn.MLP((4, 3, 2), batch_norm=False, rng=rng)
    flat = get_flat_params(model)
    perturbed = flat + np.random.default_rng(seed + 1).standard_normal(flat.size)
    set_flat_params(model, perturbed)
    np.testing.assert_allclose(get_flat_params(model), perturbed, rtol=1e-6, atol=1e-6)


# ---------------------------------------------------------------------- #
# unregistration (overwrite / delete) and the cached traversal
# ---------------------------------------------------------------------- #
def test_overwriting_a_parameter_with_none_unregisters_it(rng):
    layer = nn.Linear(3, 2, rng=rng)
    layer.bias = None
    assert [n for n, _ in layer.named_parameters()] == ["weight"]
    assert len(layer.parameters()) == 1
    assert get_flat_params(layer).size == 6
    out = layer(Tensor(rng.standard_normal((4, 3)).astype(np.float32)))
    out.sum().backward()
    assert get_flat_grads(layer).size == 6
    set_flat_params(layer, np.arange(6.0))
    with pytest.raises(ValueError):
        set_flat_params(layer, np.arange(8.0))


def test_overwriting_a_submodule_with_a_plain_value_unregisters_it(rng):
    model = nn.Sequential(nn.Linear(3, 2, rng=rng), nn.ReLU())
    before = model.num_parameters()
    assert before == 8
    setattr(model, "0", None)
    assert model.num_parameters() == 0
    assert [type(m) for m in model.modules()] == [nn.Sequential, nn.ReLU]


def test_delattr_unregisters_parameters_modules_and_buffers(rng):
    model = make_model(rng)
    bn = next(m for m in model.modules() if isinstance(m, nn.BatchNorm1d))
    total = model.num_parameters()
    del bn.gamma
    assert model.num_parameters() == total - 5
    del bn.running_mean
    assert not any("running_mean" in n for n, _ in model.named_buffers())
    del model.body
    assert model.parameters() == [] and list(model.modules()) == [model]
    with pytest.raises(AttributeError):
        del model.body


def test_reassigning_a_parameter_keeps_its_place_in_the_layout(rng):
    layer = nn.Linear(3, 2, rng=rng)
    layer.parameters()
    layer.weight = nn.Parameter(np.full((2, 3), 7.0, dtype=np.float32))
    assert [n for n, _ in layer.named_parameters()] == ["weight", "bias"]
    assert get_flat_params(layer)[:6].tolist() == [7.0] * 6


def test_registration_in_a_nested_child_reaches_the_parents_cache(rng):
    model = make_model(rng)
    count, modules = len(model.parameters()), len(list(model.modules()))
    inner = model.body[0]
    inner.extra = nn.Parameter(np.zeros(3, dtype=np.float32))
    assert len(model.parameters()) == count + 1
    assert get_flat_params(model).size == model.num_parameters()
    inner.child = nn.Linear(2, 2, rng=rng)
    assert len(model.parameters()) == count + 3
    assert len(list(model.modules())) == modules + 1
    model.eval()
    assert inner.child.training is False


def test_parameters_returns_a_fresh_list(rng):
    model = make_model(rng)
    first = model.parameters()
    first.clear()
    assert len(model.parameters()) == 5
    assert model.parameters() is not model.parameters()


def test_cached_lists_survive_data_rebinding(rng):
    """load_state_dict, set_flat_params and SGD.step rebind ``param.data``."""
    from repro.optim import SGD

    model, donor = make_model(np.random.default_rng(1)), make_model(np.random.default_rng(2))
    params = model.parameters()
    model.load_state_dict(donor.state_dict())
    np.testing.assert_array_equal(get_flat_params(model), get_flat_params(donor))
    set_flat_params(model, np.arange(model.num_parameters(), dtype=np.float64))
    assert get_flat_params(model)[-1] == model.num_parameters() - 1
    opt = SGD(model.parameters(), lr=0.5)
    x = Tensor(rng.standard_normal((8, 6)).astype(np.float32))
    F.cross_entropy(model(x), rng.integers(0, 4, 8)).backward()
    before, grads = get_flat_params(model), get_flat_grads(model)
    opt.step()
    np.testing.assert_allclose(get_flat_params(model), before - 0.5 * grads, rtol=1e-6, atol=1e-6)
    assert all(a is b for a, b in zip(params, model.parameters()))
    model.zero_grad()
    np.testing.assert_array_equal(get_flat_grads(model), 0.0)


def test_flat_grads_is_a_new_vector_each_call(rng):
    model = make_model(rng)
    x = Tensor(rng.standard_normal((8, 6)).astype(np.float32))
    F.cross_entropy(model(x), rng.integers(0, 4, 8)).backward()
    first = get_flat_grads(model)
    kept = first.copy()
    second = get_flat_grads(model)
    second += 1.0
    np.testing.assert_array_equal(first, kept)


def test_copies_of_a_model_rebuild_their_own_cache(rng):
    import copy
    import pickle

    model = make_model(rng)
    model.parameters()
    for clone in (copy.deepcopy(model), pickle.loads(pickle.dumps(model))):
        assert all(a is not b for a, b in zip(clone.parameters(), model.parameters()))
        np.testing.assert_array_equal(get_flat_params(clone), get_flat_params(model))
        set_flat_params(clone, np.zeros(clone.num_parameters()))
        assert np.abs(get_flat_params(model)).max() > 0


def test_concurrent_readers_never_see_a_half_built_cache(rng):
    """Readers traverse a model whose cache is being invalidated under them.

    Registrations on an unrelated module start new epochs, so the readers
    keep rebuilding and republishing the model's cache concurrently (the
    thread backend's eval path reads a replica while its worker does).
    Every traversal they obtain must be the complete one.
    """
    import sys
    import threading
    import time

    model = make_model(rng)
    params, modules = model.parameters(), list(model.modules())
    size = get_flat_params(model).size
    unrelated = nn.Module()
    stop, failures = threading.Event(), []

    def read():
        while not stop.is_set():
            if model.parameters() != params or list(model.modules()) != modules:
                failures.append("traversal")
            if get_flat_params(model).size != size or get_flat_grads(model).size != size:
                failures.append("flat size")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    readers = [threading.Thread(target=read) for _ in range(4)]
    try:
        for t in readers:
            t.start()
        deadline = time.monotonic() + 0.5
        epochs = 0
        while time.monotonic() < deadline:
            unrelated.scratch = nn.Parameter(np.zeros(1, dtype=np.float32))
            epochs += 1
    finally:
        stop.set()
        for t in readers:
            t.join(timeout=10)
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in readers)
    assert epochs > 10
    assert failures == []
