"""Checkpointing for distributed runs.

Saves the server's global model (flat parameter vector + BN running
statistics + version counters) so a trained model can be reloaded for
evaluation or fine-tuning without re-running the simulation.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.config import TrainingConfig
from repro.core.trainer import DistributedTrainer
from repro.data.registry import build_dataset
from repro.nn.module import Module, set_flat_params
from repro.nn.norm import bn_layers, load_bn_running_stats
from repro.nn.registry import build_model
from repro.utils.serialization import load_checkpoint, save_checkpoint


def save_run_checkpoint(trainer: DistributedTrainer, path: str) -> None:
    """Persist the trainer's current global model to an ``.npz`` file."""
    tensors = {"params": trainer.server.params}
    if trainer.server.bn_strategy is not None:
        for i, (mean, var) in enumerate(trainer.server.bn_strategy.current()):
            tensors[f"bn_mean_{i}"] = mean
            tensors[f"bn_var_{i}"] = var
        bn_layers_count = len(trainer.server.bn_strategy.current())
    else:
        layers = bn_layers(trainer.workers[0].model)
        for i, layer in enumerate(layers):
            tensors[f"bn_mean_{i}"] = layer.running_mean
            tensors[f"bn_var_{i}"] = layer.running_var
        bn_layers_count = len(layers)
    save_checkpoint(
        path,
        tensors,
        version=trainer.server.version,
        batches=trainer.server.batches_processed,
        algorithm=trainer.config.algorithm,
        seed=trainer.config.seed,
        bn_layers=bn_layers_count,
    )


def load_model_from_checkpoint(config: TrainingConfig, path: str) -> Tuple[Module, dict]:
    """Rebuild the model architecture from ``config`` and load a checkpoint.

    Returns ``(model_in_eval_mode, metadata)``.  The config must describe
    the same architecture/dataset the checkpoint was trained with.
    """
    tensors, metadata = load_checkpoint(path)
    train_set, _, num_classes = build_dataset(config)
    model = build_model(config, train_set.input_shape, num_classes)
    set_flat_params(model, tensors["params"])
    n_layers = int(metadata.get("bn_layers", 0))
    if n_layers:
        stats = [(tensors[f"bn_mean_{i}"], tensors[f"bn_var_{i}"]) for i in range(n_layers)]
        load_bn_running_stats(model, stats)
    model.eval()
    return model, metadata
