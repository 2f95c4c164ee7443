"""A spec owns its config: built once, hashed once, never aliased."""

import json

import pytest

from repro.core.config import TrainingConfig
from repro.experiments import Campaign, ExperimentSpec, Grid, ResultStore


def tiny_config(**kwargs) -> TrainingConfig:
    kwargs.setdefault("max_updates", 4)
    kwargs.setdefault("epochs", 1)
    return TrainingConfig.tiny(**kwargs)


def test_specs_built_from_one_mutated_config_are_separate_runs():
    cfg = tiny_config()
    specs = []
    for seed in (0, 1, 2):
        cfg.seed = seed
        spec = ExperimentSpec(cfg)
        assert spec.config == cfg and spec.config is not cfg
        specs.append(spec)
    assert len({spec.key() for spec in specs}) == 3
    report = Campaign(specs).run()
    assert len(report.executed) == 3
    assert [run.result.seed for run in report.runs] == [0, 1, 2]
    assert [run.key for run in report.runs] == [spec.key() for spec in specs]


def test_a_spec_keeps_its_key_when_the_callers_objects_change():
    cfg = tiny_config()
    options = {"deterministic": True, "nested": {"depth": 1}}
    spec = ExperimentSpec(cfg, "thread", options)
    key = spec.key()
    cfg.predictor.loss_hidden = 99
    cfg.model_kwargs["hidden"] = (1,)
    options["nested"]["depth"] = 2
    assert spec.key() == key
    assert spec.config.predictor.loss_hidden == 8
    assert spec.backend_options["nested"] == {"depth": 1}
    assert ExperimentSpec(spec.config, "thread", spec.backend_options).key() == key


def test_grid_specs_over_a_config_base_share_no_nested_object():
    base = tiny_config()
    specs = Grid(seed=[0, 1]).specs(base)
    keys = [spec.key() for spec in specs]
    assert specs[0].config.cluster is not specs[1].config.cluster
    assert specs[0].config.predictor is not base.predictor
    base.cluster.mean_batch_time = 1.0
    base.predictor.loss_window = 3
    assert [spec.key() for spec in specs] == keys
    assert specs[1].config.cluster.mean_batch_time == TrainingConfig.tiny().cluster.mean_batch_time
    assert specs[0].config.predictor.loss_window == TrainingConfig.tiny().predictor.loss_window


def test_documents_are_built_fresh_for_every_caller():
    spec = ExperimentSpec(tiny_config())
    first = spec.to_dict()
    first["config"]["seed"] = 123
    first["backend_options"]["x"] = 1
    spec.identity()["config"]["predictor"]["lr"] = 9.0
    assert spec.to_dict() == ExperimentSpec(tiny_config()).to_dict()
    assert spec.to_dict()["key"] == spec.key()


def test_a_stored_campaign_builds_each_config_document_at_most_twice(tmp_path, monkeypatch):
    calls = []
    original = TrainingConfig.to_dict

    def counting(self):
        calls.append(self.seed)
        return original(self)

    monkeypatch.setattr(TrainingConfig, "to_dict", counting)
    specs = [ExperimentSpec(tiny_config(seed=seed)) for seed in (0, 1, 2)]
    report = Campaign(specs, store=ResultStore(tmp_path)).run()
    assert len(report.executed) == 3
    # one document for the key when the spec is built, one for the record
    assert sorted(calls) == [0, 0, 1, 1, 2, 2]


def test_a_corrupt_record_names_its_file_on_resume(tmp_path):
    store = ResultStore(tmp_path)
    specs = [ExperimentSpec(tiny_config(seed=seed)) for seed in (0, 1)]
    Campaign(specs, store=store).run()
    damaged = store.path_for(specs[1])
    damaged.write_text("{ truncated")
    with pytest.raises(json.JSONDecodeError, match=str(damaged)):
        Campaign(specs, store=ResultStore(tmp_path)).run()
