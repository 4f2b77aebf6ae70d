"""Parameter and FLOP counting.

Used to regenerate Table 1 of the paper (the #PARAMS / #FLOPS columns of
the VGG16 split settings).  Following the convention of the paper (and of
HeteroFL/ScaleFL), "FLOPs" here counts multiply–accumulate operations of
conv and linear layers; batch-norm, activation and pooling costs are
ignored because they are negligible and the paper's numbers match the
MAC-only count.
"""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn.layers import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    DepthwiseConv2d,
    Dropout,
    Flatten,
    GlobalAvgPool2d,
    Identity,
    Linear,
    MaxPool2d,
    ReLU,
    ReLU6,
)
from repro.nn.module import Module, Sequential

__all__ = ["count_params", "count_flops", "FlopReport"]


class FlopReport:
    """Result of a FLOP trace: total MACs plus the final output shape."""

    def __init__(self, flops: int, output_shape: tuple[int, ...]):
        self.flops = int(flops)
        self.output_shape = tuple(output_shape)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FlopReport(flops={self.flops}, output_shape={self.output_shape})"


def count_params(module: Module, trainable_only: bool = True) -> int:
    """Total number of scalar parameters in ``module``.

    With ``trainable_only=False`` batch-norm running statistics (buffers)
    are included as well.
    """
    total = sum(p.size for p in module.parameters())
    if not trainable_only:
        total += sum(int(np.asarray(b).size) for _, b in module.named_buffers())
    return int(total)


def _trace_layer(layer: Module, shape: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """FLOPs and output shape of a single primitive layer.

    ``shape`` excludes the batch dimension: ``(C, H, W)`` for spatial
    tensors or ``(features,)`` after flattening.
    """
    if isinstance(layer, Conv2d):
        c, h, w = shape
        out_h = F.conv_output_size(h, layer.kernel_size, layer.stride, layer.padding)
        out_w = F.conv_output_size(w, layer.kernel_size, layer.stride, layer.padding)
        macs = layer.out_channels * layer.in_channels * layer.kernel_size**2 * out_h * out_w
        return macs, (layer.out_channels, out_h, out_w)
    if isinstance(layer, DepthwiseConv2d):
        c, h, w = shape
        out_h = F.conv_output_size(h, layer.kernel_size, layer.stride, layer.padding)
        out_w = F.conv_output_size(w, layer.kernel_size, layer.stride, layer.padding)
        macs = layer.channels * layer.kernel_size**2 * out_h * out_w
        return macs, (layer.channels, out_h, out_w)
    if isinstance(layer, Linear):
        return layer.out_features * layer.in_features, (layer.out_features,)
    if isinstance(layer, (MaxPool2d, AvgPool2d)):
        c, h, w = shape
        out_h = F.conv_output_size(h, layer.kernel_size, layer.stride, 0)
        out_w = F.conv_output_size(w, layer.kernel_size, layer.stride, 0)
        return 0, (c, out_h, out_w)
    if isinstance(layer, GlobalAvgPool2d):
        c, _, _ = shape
        return 0, (c,)
    if isinstance(layer, Flatten):
        return 0, (int(np.prod(shape)),)
    if isinstance(layer, (BatchNorm2d, ReLU, ReLU6, Dropout, Identity)):
        return 0, shape
    raise TypeError(f"count_flops does not know how to trace layer type {type(layer).__name__}")


def count_flops(module: Module, input_shape: tuple[int, ...]) -> FlopReport:
    """Count multiply–accumulates of a forward pass on one sample.

    ``input_shape`` excludes the batch dimension.  Composite models may
    implement ``compute_flops(input_shape) -> FlopReport`` to describe
    non-sequential control flow (residual blocks, early exits); that hook
    takes precedence over the generic trace.
    """
    custom = getattr(module, "compute_flops", None)
    if callable(custom):
        report = custom(input_shape)
        if not isinstance(report, FlopReport):
            raise TypeError("compute_flops must return a FlopReport")
        return report
    if isinstance(module, Sequential):
        total = 0
        shape = tuple(input_shape)
        for layer in module:
            report = count_flops(layer, shape)
            total += report.flops
            shape = report.output_shape
        return FlopReport(total, shape)
    flops, shape = _trace_layer(module, tuple(input_shape))
    return FlopReport(flops, shape)
