"""Slimmable MobileNetV2-lite for the (simulated) real test-bed experiment.

The paper's test-bed experiment trains MobileNetV2 on the Widar gesture
dataset.  This implementation keeps the inverted-residual structure
(1x1 expansion, 3x3 depthwise, 1x1 projection, residual add on stride-1
blocks) with a reduced block schedule suitable for CPU-only simulation.
As in the ResNet implementation, channel mismatches on identity shortcuts
caused by pruning are resolved with a parameter-free slice-or-pad shortcut.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.nn.layers import BatchNorm2d, Conv2d, DepthwiseConv2d, GlobalAvgPool2d, Linear, ReLU6
from repro.nn.module import Module
from repro.nn.models.spec import ChannelGroup, SlimmableArchitecture, StagedModel, annotate
from repro.perf.flops import FlopReport, count_flops

__all__ = ["InvertedResidual", "MobileNetModel", "SlimmableMobileNetV2"]


class InvertedResidual(Module):
    """MobileNetV2 block: expand (1x1) -> depthwise (3x3) -> project (1x1)."""

    def __init__(
        self,
        in_channels: int,
        expand_channels: int,
        out_channels: int,
        stride: int,
        expand_group: str,
        out_group: str,
        in_group: str | None,
        use_residual: bool,
        rng: np.random.Generator,
    ):
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.stride = stride
        self.use_residual = use_residual and stride == 1
        self.has_expand = expand_channels != in_channels or True  # always use an explicit expansion conv

        self.expand_conv = annotate(
            Conv2d(in_channels, expand_channels, 1, bias=False, rng=rng), expand_group, in_group
        )
        self.expand_bn = annotate(BatchNorm2d(expand_channels), expand_group)
        self.expand_act = ReLU6()
        self.dw_conv = annotate(
            DepthwiseConv2d(expand_channels, 3, stride=stride, padding=1, bias=False, rng=rng),
            expand_group,
        )
        self.dw_bn = annotate(BatchNorm2d(expand_channels), expand_group)
        self.dw_act = ReLU6()
        self.project_conv = annotate(
            Conv2d(expand_channels, out_channels, 1, bias=False, rng=rng), out_group, expand_group
        )
        self.project_bn = annotate(BatchNorm2d(out_channels), out_group)
        self._shortcut_in_channels: int | None = None

    def _shortcut_forward(self, x: np.ndarray) -> np.ndarray:
        self._shortcut_in_channels = x.shape[1]
        if x.shape[1] == self.out_channels:
            return x
        if x.shape[1] > self.out_channels:
            return x[:, : self.out_channels]
        padded = np.zeros((x.shape[0], self.out_channels, x.shape[2], x.shape[3]), dtype=x.dtype)
        padded[:, : x.shape[1]] = x
        return padded

    def _shortcut_backward(self, grad: np.ndarray) -> np.ndarray:
        in_channels = self._shortcut_in_channels
        if in_channels is None:
            raise RuntimeError("backward called before forward")
        self._shortcut_in_channels = None
        if in_channels == self.out_channels:
            return grad
        if in_channels > self.out_channels:
            padded = np.zeros((grad.shape[0], in_channels, grad.shape[2], grad.shape[3]), dtype=grad.dtype)
            padded[:, : self.out_channels] = grad
            return padded
        return grad[:, :in_channels]

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = self.expand_act(self.expand_bn(self.expand_conv(x)))
        out = self.dw_act(self.dw_bn(self.dw_conv(out)))
        out = self.project_bn(self.project_conv(out))
        if self.use_residual:
            return out + self._shortcut_forward(x)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad = grad_out
        grad_main = self.project_conv.backward(self.project_bn.backward(grad))
        grad_main = self.dw_conv.backward(self.dw_bn.backward(self.dw_act.backward(grad_main)))
        grad_main = self.expand_conv.backward(self.expand_bn.backward(self.expand_act.backward(grad_main)))
        if self.use_residual:
            return grad_main + self._shortcut_backward(grad)
        return grad_main

    def compute_flops(self, input_shape: tuple[int, ...]) -> FlopReport:
        expand = count_flops(self.expand_conv, input_shape)
        dw = count_flops(self.dw_conv, expand.output_shape)
        project = count_flops(self.project_conv, dw.output_shape)
        return FlopReport(expand.flops + dw.flops + project.flops, project.output_shape)


class MobileNetModel(StagedModel):
    """A concrete (possibly pruned) MobileNetV2-lite instance."""

    def __init__(self, stem: list[Module], blocks: list[InvertedResidual], head_layers: list[Module], classifier: Linear):
        super().__init__()
        self.stem_conv, self.stem_bn, self.stem_act = stem
        self._block_names: list[str] = []
        for index, block in enumerate(blocks, start=1):
            name = f"block{index}"
            setattr(self, name, block)
            self._block_names.append(name)
        self.head_conv, self.head_bn, self.head_act = head_layers
        self.pool = GlobalAvgPool2d()
        self.classifier = classifier

    @property
    def blocks(self) -> list[InvertedResidual]:
        return [getattr(self, name) for name in self._block_names]

    def stages(self) -> list[Module]:
        stem = [self.stem_conv, self.stem_bn, self.stem_act]
        head = [self.head_conv, self.head_bn, self.head_act, self.pool, self.classifier]
        return [*stem, *self.blocks, *head]


class SlimmableMobileNetV2(SlimmableArchitecture):
    """MobileNetV2-lite with per-block prunable expansion and output widths.

    Layer indices: stem conv is layer 1, each inverted-residual block is one
    layer (its expansion and output groups share the index) and the final
    1x1 head conv is the last layer.
    """

    # (expansion factor, output channels, repeats, first stride)
    DEFAULT_SCHEDULE = ((1, 16, 1, 1), (6, 24, 2, 2), (6, 32, 2, 2), (6, 64, 2, 2))

    def __init__(
        self,
        num_classes: int = 22,
        input_shape: tuple[int, int, int] = (1, 32, 32),
        width_multiplier: float = 1.0,
        stem_channels: int = 32,
        head_channels: int = 256,
        schedule: tuple[tuple[int, int, int, int], ...] | None = None,
    ):
        super().__init__(input_shape, num_classes)
        if width_multiplier <= 0:
            raise ValueError("width_multiplier must be positive")
        self.name = "mobilenetv2"
        self.width_multiplier = width_multiplier
        self.schedule = tuple(schedule) if schedule is not None else self.DEFAULT_SCHEDULE
        self._stem_channels = max(1, int(round(stem_channels * width_multiplier)))
        self._head_channels = max(1, int(round(head_channels * width_multiplier)))

    def _block_plan(self) -> list[tuple[int, int, int, int, bool]]:
        """Per-block (index, expand_channels, out_channels, stride, residual)."""
        plan = []
        in_channels = self._stem_channels
        block_index = 0
        for expansion, channels, repeats, first_stride in self.schedule:
            out_channels = max(1, int(round(channels * self.width_multiplier)))
            for position in range(repeats):
                block_index += 1
                stride = first_stride if position == 0 else 1
                expand_channels = max(1, in_channels * expansion)
                residual = stride == 1 and in_channels == out_channels
                plan.append((block_index, expand_channels, out_channels, stride, residual))
                in_channels = out_channels
        return plan

    def _describe_groups(self) -> list[ChannelGroup]:
        groups = [ChannelGroup("stem", self._stem_channels, layer_index=1)]
        plan = self._block_plan()
        for block_index, expand_channels, out_channels, _, _ in plan:
            layer_index = block_index + 1
            groups.append(ChannelGroup(f"block{block_index}_exp", expand_channels, layer_index=layer_index))
            groups.append(ChannelGroup(f"block{block_index}_out", out_channels, layer_index=layer_index))
        groups.append(ChannelGroup("head", self._head_channels, layer_index=len(plan) + 2))
        return groups

    def build(
        self,
        group_sizes: Mapping[str, int] | None = None,
        rng: np.random.Generator | None = None,
    ) -> MobileNetModel:
        rng = rng if rng is not None else np.random.default_rng(0)
        sizes = dict(group_sizes) if group_sizes is not None else self.full_group_sizes()
        self.validate_group_sizes(sizes)

        stem_channels = sizes["stem"]
        stem = [
            annotate(Conv2d(self.input_shape[0], stem_channels, 3, stride=1, padding=1, bias=False, rng=rng), "stem", None),
            annotate(BatchNorm2d(stem_channels), "stem"),
            ReLU6(),
        ]

        blocks: list[InvertedResidual] = []
        in_channels = stem_channels
        in_group: str | None = "stem"
        for block_index, _, _, stride, residual in self._block_plan():
            expand_group = f"block{block_index}_exp"
            out_group = f"block{block_index}_out"
            block = InvertedResidual(
                in_channels=in_channels,
                expand_channels=sizes[expand_group],
                out_channels=sizes[out_group],
                stride=stride,
                expand_group=expand_group,
                out_group=out_group,
                in_group=in_group,
                use_residual=residual,
                rng=rng,
            )
            blocks.append(block)
            in_channels = sizes[out_group]
            in_group = out_group

        head_channels = sizes["head"]
        head_layers = [
            annotate(Conv2d(in_channels, head_channels, 1, bias=False, rng=rng), "head", in_group),
            annotate(BatchNorm2d(head_channels), "head"),
            ReLU6(),
        ]
        classifier = annotate(Linear(head_channels, self.num_classes, rng=rng), None, "head")
        return MobileNetModel(stem, blocks, head_layers, classifier)
