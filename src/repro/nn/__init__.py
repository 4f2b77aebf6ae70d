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
* a zoo of *slimmable* architectures (VGG16, ResNet18, MobileNetV2-lite and
  a small FEMNIST CNN) under ``repro.nn.models``.

Parameter and FLOP counting, used to reproduce Table 1 of the paper, lives
in :mod:`repro.perf.flops`.

The framework intentionally mirrors a small subset of the PyTorch API
(``forward``, ``state_dict``, ``load_state_dict``, ``parameters``) so the
federated-learning layers read like their PyTorch/Flower counterparts.

Import from the submodules; the package itself exports nothing.
"""
