"""``layer_ops``: direct timed calls into single layers' public functions.

Each op is calibrated so one batch of calls lasts ~10 ms, then timed over
:data:`BATCHES` batches; the reported cost is the median batch divided by
its call count.  Sizes mirror the workloads: a batch-64 MLP(64) step, the
hidden-16 predictors of ``lc_sim`` and the paper-scale hidden-64 ones of
the sweep's lc cell, a model-sized gradient on the wire.
"""

from __future__ import annotations

import shutil
import socket
import statistics
import tempfile
import time
from typing import Callable, Dict

import numpy as np

from perfbench.workloads import OUT_DIR, config

BATCHES = 15
BATCH_SECONDS = 0.010


def time_call(fn: Callable[[], object], batches: int = BATCHES, batch_s: float = BATCH_SECONDS) -> float:
    """Median seconds per call of ``fn`` over ``batches`` calibrated batches."""
    clock = time.perf_counter
    calls = 1
    while True:
        start = clock()
        for _ in range(calls):
            fn()
        spent = clock() - start
        if spent >= batch_s / 4 or calls >= 1 << 16:
            break
        calls *= 4
    calls = max(1, round(calls * batch_s / spent))
    samples = []
    for _ in range(batches):
        start = clock()
        for _ in range(calls):
            fn()
        samples.append((clock() - start) / calls)
    return statistics.median(samples)


def measure(seed: int, batches: int = BATCHES, batch_s: float = BATCH_SECONDS) -> Dict[str, float]:
    """Every ``layer_ops`` metric, keyed by its declared name."""
    from repro import nn
    from repro.core.predictors import LSTMLossPredictor, LSTMStepPredictor
    from repro.core.state import GradientPayload, WorkerState
    from repro.data.registry import build_dataset
    from repro.experiments.spec import ExperimentSpec
    from repro.experiments.store import ResultStore
    from repro.optim import SGD
    from repro.runtime.backends import run_experiment
    from repro.runtime.codecs import make_codec
    from repro.runtime.messages import GradientPush, PullRequest
    from repro.runtime.session import ExperimentPlan
    from repro.runtime.transport import Mailbox
    from repro.runtime.wire import (
        FrameConnection, decode_frame, encode_message, encode_message_into,
    )
    from repro.tensor import Tensor, no_grad
    from repro.tensor import functional as F

    rng = np.random.default_rng(seed)
    us: Dict[str, float] = {}

    def record(name: str, fn: Callable[[], object], scale: float = 1e6, per: int = 1) -> None:
        us[name] = time_call(fn, batches, batch_s) * scale / per

    # --- tensor / nn -------------------------------------------------------------
    a = Tensor(rng.standard_normal((64, 192)).astype(np.float32), requires_grad=True)
    b = Tensor(rng.standard_normal((192, 64)).astype(np.float32), requires_grad=True)

    def matmul():
        a.grad = b.grad = None
        (a @ b).sum().backward()

    record("tensor.matmul_64x192x64_us", matmul)

    model = nn.MLP((192, 64, 10), batch_norm=True, rng=np.random.default_rng(seed))
    opt = SGD(model.parameters(), lr=0.05, momentum=0.9)
    x = Tensor(rng.standard_normal((64, 192)).astype(np.float32))
    y = rng.integers(0, 10, 64)

    def train_step():
        loss = F.cross_entropy(model(x), y)
        opt.zero_grad()
        loss.backward()
        opt.step()

    record("tensor.mlp_train_step_us", train_step)

    window = Tensor(rng.standard_normal((1, 10, 1)).astype(np.float32))
    for hidden in (16, 64):
        lstm = nn.LSTM(1, hidden, num_layers=2, rng=np.random.default_rng(seed))

        def lstm_forward(lstm=lstm):
            with no_grad():
                lstm(window)

        # a 10-step window through both layers, reported per time step
        record(f"nn.lstm_step_h{hidden}_us", lstm_forward, per=10)

    # --- predictors --------------------------------------------------------------
    losses = iter(2.0 + 0.3 * np.sin(np.arange(1 << 20) / 7.0))
    for hidden, win in ((16, 10), (64, 16)):
        loss_pred = LSTMLossPredictor(hidden_size=hidden, window=win, seed=seed)
        for _ in range(win + 2):
            loss_pred.observe(next(losses))
        record(
            f"core.predictors.loss.observe_h{hidden}_us",
            lambda p=loss_pred: p.observe(next(losses)),
        )
        record(
            f"core.predictors.loss.predict_delay_h{hidden}_us",
            lambda p=loss_pred: p.predict_delay(2.0, 3),
        )

    step_pred = LSTMStepPredictor(hidden_size=16, window=5, max_step=16, seed=seed)
    steps = iter(np.tile([2.0, 3.0, 4.0, 3.0, 1.0], 1 << 18))
    for _ in range(8):
        step_pred.observe(0, next(steps), 0.01, 0.03)
    record("core.predictors.step.observe_us", lambda: step_pred.observe(0, next(steps), 0.01, 0.03))
    record("core.predictors.step.predict_us", lambda: step_pred.predict(0, 0.01, 0.03))

    # --- server ------------------------------------------------------------------
    server = ExperimentPlan.from_config(config("asgd", 4, 64, seed)).server
    grad = rng.standard_normal(server.params.size) * 1e-6
    server.handle_pull(0)
    payload = GradientPayload(worker=0, grad=grad, pull_version=0, loss=2.0)
    record("core.server.handle_pull_us", lambda: server.handle_pull(0))
    record("core.server.handle_gradient_us", lambda: server.handle_gradient(payload))

    lc_server = ExperimentPlan.from_config(config("lc-asgd", 4, 64, seed)).server
    for _ in range(12):
        lc_server.handle_state(WorkerState(worker=0, loss=float(next(losses)), t_comm=0.01, t_comp=0.03))
    record(
        "core.server.handle_state_us",
        lambda: lc_server.handle_state(
            WorkerState(worker=0, loss=float(next(losses)), t_comm=0.01, t_comp=0.03)
        ),
    )

    # --- wire / transport --------------------------------------------------------
    push = GradientPush(0, payload=GradientPayload(worker=0, grad=grad * 1e6, pull_version=0, loss=2.0))
    for name in ("raw32", "fp16", "topk"):
        codec = make_codec(name)
        frame = encode_message(push, codec=make_codec(name))
        record(f"runtime.wire.encode_{name}_us", lambda c=codec: encode_message_into(push, codec=c))
        record(f"runtime.wire.decode_{name}_us", lambda f=frame: decode_frame(f, copy=False))

    left, right = socket.socketpair()
    near, far = FrameConnection(left, codec=make_codec("raw32")), FrameConnection(right)
    try:
        def round_trip():
            near.send_message(push)
            far.recv()
            far.send_message(PullRequest(0))
            near.recv()

        record("runtime.wire.loopback_rtt_us", round_trip)
    finally:
        near.close()
        far.close()

    mailbox = Mailbox()
    request = PullRequest(0)

    def put_get():
        mailbox.put(request)
        mailbox.get()

    record("runtime.transport.mailbox_putget_us", put_get)

    # --- experiments / data ------------------------------------------------------
    cfg = config("asgd", 4, 64, seed)
    spec = ExperimentSpec(cfg, "sim")
    result = run_experiment(cfg, backend="sim")
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    root = tempfile.mkdtemp(prefix="ops-store-", dir=OUT_DIR)
    try:
        store = ResultStore(root)
        record("experiments.spec.key_us", spec.key)
        record("experiments.store.put_us", lambda: store.put(spec, result))
        record("experiments.store.get_us", lambda: store.get(spec))
    finally:
        shutil.rmtree(root, ignore_errors=True)
    record("data.build_dataset_ms", lambda: build_dataset(cfg), scale=1e3)
    return us


#: declared names, in the order :func:`measure` fills them
NAMES = (
    "tensor.matmul_64x192x64_us",
    "tensor.mlp_train_step_us",
    "nn.lstm_step_h16_us",
    "nn.lstm_step_h64_us",
    "core.predictors.loss.observe_h16_us",
    "core.predictors.loss.predict_delay_h16_us",
    "core.predictors.loss.observe_h64_us",
    "core.predictors.loss.predict_delay_h64_us",
    "core.predictors.step.observe_us",
    "core.predictors.step.predict_us",
    "core.server.handle_pull_us",
    "core.server.handle_gradient_us",
    "core.server.handle_state_us",
    "runtime.wire.encode_raw32_us",
    "runtime.wire.decode_raw32_us",
    "runtime.wire.encode_fp16_us",
    "runtime.wire.decode_fp16_us",
    "runtime.wire.encode_topk_us",
    "runtime.wire.decode_topk_us",
    "runtime.wire.loopback_rtt_us",
    "runtime.transport.mailbox_putget_us",
    "experiments.spec.key_us",
    "experiments.store.put_us",
    "experiments.store.get_us",
    "data.build_dataset_ms",
)
