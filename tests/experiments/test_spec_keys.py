"""Spec keys are pinned: a moved key orphans every record in every store.

The hex literals below were captured from the specs as they are built
here; a change to the config document, its canonical JSON or the hash
moves them.  The config document is also checked against the reference
construction (``dataclasses.asdict`` followed by a tuple-to-list walk),
in value and in key order, because store records are written unsorted.
"""

import json
from dataclasses import asdict

import pytest

from repro.core.config import ClusterConfig, PredictorConfig, TrainingConfig
from repro.experiments import ExperimentSpec


def pinned_specs():
    return {
        "8d06d3ef326e549a": ExperimentSpec(TrainingConfig.tiny(), "sim"),
        "8662ba19102c4cfa": ExperimentSpec(
            TrainingConfig.small_cifar(
                algorithm="lc-asgd", predictor=PredictorConfig(), lr_milestones=(2, 4)
            )
        ),
        "42f230a33c46265b": ExperimentSpec(
            TrainingConfig.tiny(algorithm="asgd", num_workers=1, seed=5),
            "proc",
            {"time_scale": 0.0},
            tags=("bench", "proc"),
        ),
        "5ba30e274684656b": ExperimentSpec(
            TrainingConfig.tiny(algorithm="lc-asgd", seed=3),
            "thread",
            {"deterministic": True},
        ),
    }


@pytest.mark.parametrize("expected", sorted(pinned_specs()))
def test_key_is_the_pinned_hex(expected):
    spec = pinned_specs()[expected]
    assert spec.key() == expected
    assert spec.to_dict()["key"] == expected
    assert ExperimentSpec.from_dict(json.loads(json.dumps(spec.to_dict()))).key() == expected


def reference_document(config):
    """The config document as ``asdict`` plus a tuple-to-list walk builds it."""

    def convert(value):
        if isinstance(value, dict):
            return {k: convert(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [convert(v) for v in value]
        return value

    return convert(asdict(config))


def document_configs():
    return [
        TrainingConfig.tiny(),
        TrainingConfig.small_cifar(algorithm="lc-asgd", predictor=PredictorConfig()),
        TrainingConfig.small_imagenet(algorithm="dc-asgd", num_workers=8, seed=4),
        TrainingConfig.paper_cifar10(algorithm="sgd"),
        TrainingConfig.spirals(algorithm="ad-psgd", topology="complete", comm_codec="topk"),
        TrainingConfig.tiny(
            max_updates=12,
            model_kwargs={"hidden": (8, (4, 2)), "extra": {"pair": (1, 2), "flags": [True]}},
            dataset_kwargs={"train_size": 64, "test_size": 32, "side": 4, "noise": 0.1},
            cluster=ClusterConfig(mean_batch_time=0.5, straggler_probability=0.2),
        ),
    ]


@pytest.mark.parametrize("index", range(len(document_configs())))
def test_config_document_is_the_asdict_document(index):
    config = document_configs()[index]
    document = config.to_dict()
    reference = reference_document(config)
    assert document == reference
    # equal and equally ordered: the store writes records without sort_keys
    assert json.dumps(document) == json.dumps(reference)
