"""``--smoke``: every workload end to end, the traced path, and ``compare``."""

import io
import json

import pytest

from perfbench import manifest, report
from perfbench.workloads import WORKLOADS


def _last_line(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def result_files(tmp_path_factory):
    return tmp_path_factory.mktemp("perfbench")


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run_prints_exactly_the_declared_end_to_end_metrics(name, run_module, result_files, capsys):
    path = result_files / f"{name}.json"
    assert run_module.main(["--workload", name, "--smoke", "--seed", "11", "--json", str(path)]) == 0
    result = _last_line(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == run_module.SMOKE_REPEATS
    declared = {m["name"]: m["unit"] for m in manifest.load()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())

    document = json.loads(path.read_text())
    env, run = document["env"], document["workloads"][name]
    assert {"commit", "python", "numpy", "cpu", "nproc", "loadavg_start", "loadavg_end", "seed"} <= set(env)
    assert len(run["repeats"]) == run["metrics"]["setup_s"]["n"] == run_module.SMOKE_REPEATS
    assert run["reconciliation_error"] <= 0.03


def test_traced_smoke_run_prints_exactly_the_declared_per_layer_metrics(run_module, capsys):
    assert run_module.main(["--workload", "lc_sim", "--smoke", "--trace", "1"]) == 0
    result = _last_line(capsys)
    assert result["correct"] is True
    declared = {m["name"]: m["unit"] for m in manifest.load()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["core.predictors.loss.observe.calls"] > 0
    assert values["nn.rnn.lstm_forward.self_us_per_update"] > 0
    assert values["runtime.wire.encode.calls"] == 0  # sim moves no bytes
    assert values["tensor.mlp_train_step_us"] > 0
    assert (run_module.OUT_DIR / "trace-lc_sim.jsonl").stat().st_size > 0
    # the wrappers are gone: a second, untraced run records nothing new
    from repro.core.server import ParameterServer

    assert not hasattr(ParameterServer.handle_pull, "__wrapped__")


def _entry(median, iqr=0.0, samples=None):
    return {"median": median, "iqr": iqr, "n": 5, "samples": samples or [median] * 5}


def test_verdicts():
    assert report.verdict(_entry(100.0), _entry(91.0), "higher", 0.08)["verdict"] == "worse"
    assert report.verdict(_entry(100.0), _entry(95.0), "higher", 0.08)["verdict"] == "unchanged"
    assert report.verdict(_entry(100.0, 1.0), _entry(103.0, 1.0), "higher", 0.08)["verdict"] == "better"
    assert report.verdict(_entry(1.0), _entry(1.2), "lower", 0.10)["verdict"] == "worse"
    noisy_a = _entry(100.0, 12.0, [90.0, 95.0, 100.0, 107.0, 110.0])
    noisy_b = _entry(99.0, 12.0, [89.0, 94.0, 99.0, 106.0, 109.0])
    assert report.verdict(noisy_a, noisy_b, "higher", 0.08)["verdict"] == "unresolved"


def test_compare_exits_nonzero_on_a_regression_or_a_new_failure(result_files):
    base = json.loads((result_files / "asgd_sim.json").read_text())
    assert report.compare(base, base, out=io.StringIO()) == 0

    slower = json.loads(json.dumps(base))
    entry = slower["workloads"]["asgd_sim"]["metrics"]["updates_per_s"]
    entry["median"] *= 0.5
    entry["samples"] = [s * 0.5 for s in entry["samples"]]
    out = io.StringIO()
    assert report.compare(base, slower, out=out) == 1
    assert "worse" in out.getvalue()

    # a per-layer metric that doubled is printed but never decides the exit status
    layer = json.loads(json.dumps(base))
    base["workloads"]["asgd_sim"]["metrics"]["tensor.mlp_train_step_us"] = _entry(400.0)
    layer["workloads"]["asgd_sim"]["metrics"]["tensor.mlp_train_step_us"] = _entry(800.0)
    out = io.StringIO()
    assert report.compare(base, layer, out=out) == 0
    assert "tensor.mlp_train_step_us" in out.getvalue() and "worse" in out.getvalue()

    failing = json.loads(json.dumps(base))
    failing["workloads"]["asgd_sim"]["ops_failed"] = 1
    out = io.StringIO()
    assert report.compare(base, failing, out=out) == 1
    assert "ops_failed rose" in out.getvalue()


def test_noisy_host_warning_fires_past_twice_the_bound():
    quiet = {"updates_per_s": _entry(100.0, 5.0)}
    loud = {"updates_per_s": _entry(100.0, 25.0)}
    assert report.noisy_host_warnings(quiet) == []
    assert "noisy-host" in report.noisy_host_warnings(loud)[0]
