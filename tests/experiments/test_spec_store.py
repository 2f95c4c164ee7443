"""ExperimentSpec keys and the content-addressed ResultStore."""

import json

import numpy as np
import pytest

from repro.core.config import ClusterConfig, TrainingConfig
from repro.core.metrics import CurvePoint, RunResult
from repro.experiments import ExperimentSpec, ResultStore, format_summary


def tiny_spec(**overrides) -> ExperimentSpec:
    seed = overrides.pop("seed", 0)
    return ExperimentSpec(TrainingConfig.tiny(seed=seed, **overrides))


def fake_result(algorithm="asgd", seed=0, test_error=0.25) -> RunResult:
    return RunResult(
        algorithm=algorithm,
        num_workers=2,
        bn_mode="async",
        curve=[CurvePoint(epoch=1, time=1.5, train_error=0.3,
                          train_loss=1.1, test_error=test_error, test_loss=1.2)],
        staleness={"mean": 1.0, "max": 3.0},
        loss_prediction_pairs=[(0.5, 0.6)],
        step_prediction_pairs=[(1, 2)],
        finishing_order=[0, 1],
        timers={"loss_pred_ms": 0.1},
        total_updates=24,
        total_virtual_time=3.0,
        seed=seed,
        backend="sim",
        wall_time=0.4,
    )


class TestSpecKey:
    def test_key_is_deterministic_across_instances(self):
        # two independently built but identical specs: identical keys —
        # the property multi-seed campaign resume rests on
        assert tiny_spec(seed=3).key() == tiny_spec(seed=3).key()

    def test_each_seed_gets_its_own_key(self):
        keys = {tiny_spec(seed=s).key() for s in range(5)}
        assert len(keys) == 5

    def test_config_backend_and_options_feed_the_key(self):
        base = tiny_spec()
        assert base.key() != tiny_spec(num_workers=4).key()
        assert base.key() != ExperimentSpec(base.config, backend="thread").key()
        assert (
            base.key()
            != ExperimentSpec(base.config, backend_options={"deterministic": True}).key()
        )
        cluster = ClusterConfig(mean_batch_time=0.5)
        assert base.key() != tiny_spec(cluster=cluster).key()

    def test_tags_do_not_affect_the_key(self):
        assert tiny_spec().key() == tiny_spec().with_tags("a", "b").key()

    def test_to_dict_round_trips_through_json(self):
        payload = tiny_spec().with_tags("sweep").to_dict()
        restored = json.loads(json.dumps(payload))
        assert restored["key"] == payload["key"]
        assert restored["tags"] == ["sweep"]
        assert restored["config"]["algorithm"] == "asgd"

    def test_label_is_human_readable(self):
        assert tiny_spec(seed=3).label() == "asgd@M2 seed=3 [sim]"


class TestResultStore:
    def test_put_get_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        spec, result = tiny_spec(), fake_result()
        assert store.get(spec) is None and spec not in store
        path = store.put(spec, result)
        assert path.name == f"{spec.key()}.json"
        assert spec in store and len(store) == 1
        loaded = store.get(spec)
        assert loaded.final_test_error == result.final_test_error
        assert loaded.curve[0] == result.curve[0]
        assert loaded.loss_prediction_pairs == [(0.5, 0.6)]
        assert loaded.staleness == result.staleness

    def test_record_keeps_spec_document(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = tiny_spec().with_tags("smoke")
        store.put(spec, fake_result())
        record = store.load(spec.key())
        assert record.spec["key"] == spec.key()
        assert record.spec["tags"] == ["smoke"]
        assert record.spec["config"]["seed"] == 0

    def test_missing_key_raises(self, tmp_path):
        with pytest.raises(KeyError, match="deadbeef"):
            ResultStore(tmp_path).load("deadbeef")

    def test_no_tmp_droppings_after_put(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(tiny_spec(), fake_result())
        assert not list(store.root.glob("*.tmp"))

    def test_init_sweeps_stale_tmp_files(self, tmp_path):
        # a SIGKILL between mkstemp and os.replace strands a .tmp file;
        # reopening the store must collect it without touching records
        import os
        import time

        store = ResultStore(tmp_path)
        store.put(tiny_spec(), fake_result())
        orphan = tmp_path / "tmpabc123.tmp"
        orphan.write_text("half-written")
        old = time.time() - 7200
        os.utime(orphan, (old, old))  # orphans are old; live writers are ms
        reopened = ResultStore(tmp_path)
        assert not list(tmp_path.glob("*.tmp"))
        assert len(reopened) == 1  # the completed record survived

    def test_init_leaves_fresh_tmp_files_alone(self, tmp_path):
        # a just-written .tmp may belong to a concurrent writer mid-put:
        # deleting it would crash that writer's os.replace
        ResultStore(tmp_path)
        inflight = tmp_path / "tmplive.tmp"
        inflight.write_text("concurrent writer")
        ResultStore(tmp_path)
        assert inflight.exists()

    def test_summarize_results_rejects_mismatched_scenarios(self):
        from repro.experiments.store import summarize_results

        with pytest.raises(ValueError, match="parallel"):
            summarize_results([fake_result()], scenarios=["a", "b"])

    def test_summarize_groups_and_averages_seeds(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(tiny_spec(seed=0), fake_result(seed=0, test_error=0.2))
        store.put(tiny_spec(seed=1), fake_result(seed=1, test_error=0.4))
        rows = store.summarize()
        assert len(rows) == 1
        row = rows[0]
        assert row["algorithm"] == "asgd"
        assert row["runs"] == 2
        assert row["seeds"] == [0, 1]
        assert row["final_test_error"] == pytest.approx(0.3)
        assert format_summary(rows).count("\n") >= 2

    def test_summarize_separates_scenarios(self, tmp_path):
        # two campaigns (different epoch budgets) sharing one store must
        # not average into a single row
        store = ResultStore(tmp_path)
        store.put(tiny_spec(seed=0), fake_result(test_error=0.2))
        store.put(tiny_spec(seed=0, epochs=5), fake_result(test_error=0.6))
        rows = store.summarize()
        assert len(rows) == 2
        assert {r["scenario"] for r in rows} == {"cifar/mlp/e3", "cifar/mlp/e5"}
        assert "scenario" in format_summary(rows)  # column shown when mixed

    def test_format_summary_empty(self):
        assert "no runs" in format_summary([])


def test_stored_record_bytes_match_the_default_hook_encoding(tmp_path):
    """A record holding numpy values is written byte for byte as
    ``json.dump(..., default=hook)`` with the numpy scalar/array hook wrote it."""
    import numpy as np

    def hook(value):
        if isinstance(value, np.generic):
            return value.item()
        if isinstance(value, np.ndarray):
            return value.tolist()
        raise TypeError(type(value).__name__)

    result = fake_result()
    result.staleness = {"mean": np.float64(1.0 / 3.0), "max": np.int64(7), "p": np.float32(0.1)}
    result.timers = {"loss_pred_ms": np.float32(2.5), "hist": np.arange(3)}
    result.finishing_order = [np.int64(1), 0]
    spec = tiny_spec(seed=9)
    path = ResultStore(tmp_path).put(spec, result)
    payload = {"version": 1, "spec": spec.to_dict(), "result": result.to_dict()}
    assert path.read_bytes() == json.dumps(payload, indent=2, default=hook).encode()
