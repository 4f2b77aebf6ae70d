"""A minimal-but-complete deep-learning framework on top of numpy.

This package is the training substrate for the AdaptiveFL reproduction.  It
provides:

* a :class:`~repro.nn.module.Module` system with named parameters, buffers
  and a ``state_dict`` API (the interface the federated-learning code
  aggregates over),
* convolutional / batch-norm / pooling / linear layers with full backward
  passes (``repro.nn.layers``),
* losses (cross-entropy, KL divergence for ScaleFL's self-distillation),
* an SGD optimizer with momentum and weight decay,
* parameter and FLOP counting (:mod:`repro.perf.flops`) used to reproduce
  Table 1 of the paper,
* a zoo of *slimmable* architectures (VGG16, ResNet18, MobileNetV2-lite and
  a small FEMNIST CNN) under ``repro.nn.models``.

The framework intentionally mirrors a small subset of the PyTorch API
(``forward``, ``state_dict``, ``load_state_dict``, ``parameters``) so the
federated-learning layers read like their PyTorch/Flower counterparts.
"""

from repro.nn.module import Module, Sequential
from repro.nn.layers import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Flatten,
    GlobalAvgPool2d,
    Identity,
    Linear,
    MaxPool2d,
    ReLU,
)
from repro.nn.losses import CrossEntropyLoss, KLDivergenceLoss
from repro.nn.optim import SGD, ConstantLR, StepLR


def __getattr__(name: str):
    # lazy: repro.perf.flops traces layer types from this package, so an
    # eager import here would be circular
    if name in {"count_flops", "count_params", "FlopReport"}:
        from repro.perf import flops

        return getattr(flops, name)
    raise AttributeError(f"module 'repro.nn' has no attribute {name!r}")

__all__ = [
    "Module",
    "Sequential",
    "Conv2d",
    "Linear",
    "BatchNorm2d",
    "ReLU",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool2d",
    "Flatten",
    "Dropout",
    "Identity",
    "CrossEntropyLoss",
    "KLDivergenceLoss",
    "SGD",
    "ConstantLR",
    "StepLR",
    "count_params",
    "count_flops",
]
