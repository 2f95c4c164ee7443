"""End-to-end obs guarantees: determinism, reconstruction, forwarding.

The acceptance criteria of the observability layer live here:

* sim traces are bit-reproducible (virtual time, no wall-clock reads in
  the record stream);
* a proc-backend run's JSONL trace reconstructs per-phase attribution and
  a staleness histogram that matches ``RunResult.staleness`` exactly;
* pool workers forward curve points live; fleet agents ship traces back
  over ``trace`` frames; ``RunResult.obs`` survives its dict round-trip.
"""

import numpy as np
import pytest

from repro.core import TrainingConfig
from repro.core.metrics import RunResult
from repro.experiments import Campaign, CampaignEvents
from repro.experiments.executors import MultiprocessExecutor, SerialExecutor
from repro.experiments.spec import ExperimentSpec
from repro.obs.recorder import load_trace
from repro.runtime import run_experiment

PROC_TIMEOUT = 120.0


def sim_spec(seed=0, algorithm="lc-asgd", epochs=1):
    return ExperimentSpec(
        config=TrainingConfig.tiny(
            algorithm=algorithm, num_workers=2, epochs=epochs, seed=seed
        ),
        backend="sim",
    )


class RecordingEvents(CampaignEvents):
    def __init__(self):
        self.curve_points, self.ends = [], []

    def on_curve_point(self, spec, point):
        self.curve_points.append((spec.key(), point))

    def on_run_end(self, spec, result, cached, index, total):
        self.ends.append(spec.key())


# ---------------------------------------------------------------------- #
# determinism
# ---------------------------------------------------------------------- #
def test_sim_trace_is_bit_reproducible(tmp_path):
    cfg = TrainingConfig.tiny(algorithm="lc-asgd", num_workers=4, epochs=1, seed=5)
    paths = [str(tmp_path / f"run{i}.jsonl") for i in (0, 1)]
    for path in paths:
        run_experiment(cfg, backend="sim", obs=True, trace_path=path)
    # record streams must be byte-identical; only the meta line may differ
    # (it carries wall-clock Timer totals)
    streams = [open(path).read().splitlines()[1:] for path in paths]
    assert streams[0] == streams[1]
    assert len(streams[0]) > 0


# ---------------------------------------------------------------------- #
# span parity: one worker cycle, so every driver emits the same phases
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "backend,options",
    [("sim", {}), ("thread", {}), ("thread", {"deterministic": True})],
)
def test_every_driver_emits_compute_wire_and_encode_spans(tmp_path, backend, options):
    cfg = TrainingConfig.tiny(algorithm="lc-asgd", num_workers=2, epochs=1, seed=2)
    path = str(tmp_path / "run.jsonl")
    result = run_experiment(cfg, backend=backend, obs=True, trace_path=path, **options)

    _, records = load_trace(path)
    phases = {r.fields["phase"] for r in records if r.kind == "span"}
    assert {"compute", "wire", "encode"} <= phases
    assert result.obs["spans_ms"]["compute"] > 0
    # the compute interval is attributed once: from its spans, not again
    # from the worker-compute Timer section covering the same math
    assert "worker-compute" not in result.obs["spans_ms"]
    assert result.timers["worker_compute_ms"] > 0


# ---------------------------------------------------------------------- #
# the reconstruction criterion (proc backend, real processes + sockets)
# ---------------------------------------------------------------------- #
def test_proc_trace_reconstructs_attribution_and_staleness(tmp_path):
    cfg = TrainingConfig.tiny(algorithm="asgd", num_workers=2, epochs=2, seed=3)
    path = str(tmp_path / "proc.jsonl")
    result = run_experiment(
        cfg, backend="proc", obs=True, trace_path=path, timeout=PROC_TIMEOUT
    )

    meta, records = load_trace(path)
    assert meta["run_id"] == "asgd-M2-seed3-proc"

    # per-phase time attribution: worker children streamed their spans
    # back over TracePush, so compute/encode/wire all appear
    phases = {r.fields["phase"] for r in records if r.kind == "span"}
    assert {"compute", "encode", "wire"} <= phases

    # the staleness histogram in the trace matches RunResult.staleness:
    # same emission sites, same sample count, same mean
    staleness = [r.fields["value"] for r in records if r.kind == "staleness"]
    assert len(staleness) == result.staleness["count"]
    assert np.mean(staleness) == pytest.approx(result.staleness["mean"])
    assert max(staleness) == result.staleness["max"]

    # the hub snapshot in RunResult.obs agrees with the raw trace
    hist = result.obs["hub"]["histograms"]["staleness"]
    assert hist["count"] == len(staleness)
    assert hist["mean"] == pytest.approx(result.staleness["mean"])


def test_thread_backend_hub_matches_staleness():
    cfg = TrainingConfig.tiny(algorithm="asgd", num_workers=2, epochs=1, seed=1)
    result = run_experiment(cfg, backend="thread", obs=True)
    hist = result.obs["hub"]["histograms"]["staleness"]
    assert hist["count"] == result.staleness["count"]
    assert hist["mean"] == pytest.approx(result.staleness["mean"])


def test_obs_off_is_the_default_and_costs_nothing_in_results():
    cfg = TrainingConfig.tiny(algorithm="asgd", num_workers=2, epochs=1, seed=1)
    result = run_experiment(cfg, backend="sim")
    assert result.obs == {}
    clone = RunResult.from_dict(result.to_dict())
    assert clone.obs == {}


def test_obs_survives_result_dict_round_trip():
    cfg = TrainingConfig.tiny(algorithm="asgd", num_workers=2, epochs=1, seed=1)
    result = run_experiment(cfg, backend="sim", obs=True)
    assert result.obs["enabled"] is True
    assert result.obs["records"] > 0
    clone = RunResult.from_dict(result.to_dict())
    assert clone.obs == result.obs


# ---------------------------------------------------------------------- #
# executor forwarding
# ---------------------------------------------------------------------- #
def test_pool_streams_curve_points_and_obs():
    specs = [sim_spec(seed=s) for s in range(3)]
    events = RecordingEvents()
    report = Campaign(
        specs, executor=MultiprocessExecutor(processes=2, obs=True), events=events
    ).run()
    # every run's evaluation points crossed the process boundary live
    streamed = {key for key, _ in events.curve_points}
    assert streamed == {spec.key() for spec in specs}
    assert all(result.obs.get("enabled") for result in report.results)


def test_pool_matches_serial_results_with_obs_on():
    specs = [sim_spec(seed=s) for s in range(2)]
    serial = Campaign(list(specs), executor=SerialExecutor(obs=True)).run()
    pooled = Campaign(list(specs), executor=MultiprocessExecutor(processes=2, obs=True)).run()
    for a, b in zip(serial.results, pooled.results):
        assert a.final_test_error == b.final_test_error
        assert a.staleness["mean"] == b.staleness["mean"]
