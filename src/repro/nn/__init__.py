"""Neural-network layers built on :mod:`repro.tensor`.

This subpackage supplies every architecture the paper uses: the ResNet
family trained by the workers (:mod:`repro.nn.resnet`), the 2-layer-LSTM +
linear predictors that live on the parameter server
(:mod:`repro.nn.rnn`), and batch-normalization layers whose batch statistics
are exposed for the Async-BN protocol (:mod:`repro.nn.norm`).
"""

from repro.nn.module import (
    Module,
    Parameter,
    get_flat_grads,
    get_flat_params,
    set_flat_params,
)
from repro.nn.activations import GELU, LeakyReLU, ReLU, Sigmoid, Tanh
from repro.nn.container import ModuleList, Sequential
from repro.nn.conv import Conv2d
from repro.nn.linear import Linear
from repro.nn.loss import CrossEntropyLoss, MSELoss
from repro.nn.mlp import MLP
from repro.nn.norm import (
    BatchNorm1d,
    BatchNorm2d,
    collect_bn_stats,
    count_bn_layers,
    load_bn_running_stats,
)
from repro.nn.pooling import AvgPool2d, GlobalAvgPool2d, MaxPool2d
from repro.nn.resnet import (
    BasicBlock,
    Bottleneck,
    ResNet,
    resnet18,
    resnet50,
    resnet_tiny,
)
from repro.nn.regularization import Dropout, LayerNorm
from repro.nn.registry import MODELS, build_model, model_names, register_model
from repro.nn.rnn import LSTM, LSTMCell
from repro.nn import init

__all__ = [
    "Module",
    "Parameter",
    "get_flat_params",
    "set_flat_params",
    "get_flat_grads",
    "Linear",
    "Conv2d",
    "BatchNorm1d",
    "BatchNorm2d",
    "collect_bn_stats",
    "load_bn_running_stats",
    "count_bn_layers",
    "ReLU",
    "Sigmoid",
    "Tanh",
    "LeakyReLU",
    "GELU",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool2d",
    "Sequential",
    "ModuleList",
    "LSTM",
    "LSTMCell",
    "Dropout",
    "LayerNorm",
    "CrossEntropyLoss",
    "MSELoss",
    "MLP",
    "ResNet",
    "BasicBlock",
    "Bottleneck",
    "resnet18",
    "resnet50",
    "resnet_tiny",
    "MODELS",
    "build_model",
    "model_names",
    "register_model",
    "init",
]
