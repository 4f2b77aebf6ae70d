"""Slimmable ResNet-18 (CIFAR variant: 3x3 stem, no initial max-pool).

Residual blocks complicate width-wise pruning because the skip connection
requires the block input and output to have the same channel count.  The
paper's fine-grained mechanism can prune a block while leaving its
predecessor untouched, so this implementation uses a parameter-free
*slice-or-pad* shortcut whenever pruning creates a channel mismatch on a
connection that is an identity in the full model: the identity tensor is
truncated (or zero-padded) to the block's output width.  Blocks that have a
projection shortcut in the full model (the first block of stages 2-4) keep
it, with its weights sliced like any other conv.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.nn.layers import BatchNorm2d, Conv2d, GlobalAvgPool2d, Linear, ReLU
from repro.nn.module import Module
from repro.nn.models.spec import ChannelGroup, SlimmableArchitecture, StagedModel, annotate
from repro.perf.flops import FlopReport, count_flops

__all__ = ["BasicBlock", "ResNetModel", "SlimmableResNet18"]


class BasicBlock(Module):
    """Two 3x3 convs with batch norm plus a residual connection."""

    def __init__(
        self,
        in_channels: int,
        mid_channels: int,
        out_channels: int,
        stride: int,
        mid_group: str,
        out_group: str,
        in_group: str | None,
        use_projection: bool,
        rng: np.random.Generator,
    ):
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.stride = stride
        self.use_projection = use_projection

        self.conv1 = annotate(
            Conv2d(in_channels, mid_channels, 3, stride=stride, padding=1, bias=False, rng=rng),
            mid_group,
            in_group,
        )
        self.bn1 = annotate(BatchNorm2d(mid_channels), mid_group)
        self.relu1 = ReLU()
        self.conv2 = annotate(
            Conv2d(mid_channels, out_channels, 3, stride=1, padding=1, bias=False, rng=rng),
            out_group,
            mid_group,
        )
        self.bn2 = annotate(BatchNorm2d(out_channels), out_group)
        self.relu2 = ReLU()

        if use_projection:
            self.downsample_conv = annotate(
                Conv2d(in_channels, out_channels, 1, stride=stride, bias=False, rng=rng),
                out_group,
                in_group,
            )
            self.downsample_bn = annotate(BatchNorm2d(out_channels), out_group)
        self._shortcut_in_channels: int | None = None

    def _shortcut_forward(self, x: np.ndarray) -> np.ndarray:
        if self.use_projection:
            return self.downsample_bn(self.downsample_conv(x))
        self._shortcut_in_channels = x.shape[1]
        if x.shape[1] == self.out_channels:
            return x
        if x.shape[1] > self.out_channels:
            return x[:, : self.out_channels]
        padded = np.zeros((x.shape[0], self.out_channels, x.shape[2], x.shape[3]), dtype=x.dtype)
        padded[:, : x.shape[1]] = x
        return padded

    def _shortcut_backward(self, grad: np.ndarray) -> np.ndarray:
        if self.use_projection:
            return self.downsample_conv.backward(self.downsample_bn.backward(grad))
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
        identity = self._shortcut_forward(x)
        out = self.relu1(self.bn1(self.conv1(x)))
        out = self.bn2(self.conv2(out))
        return self.relu2(out + identity)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad = self.relu2.backward(grad_out)
        grad_main = self.conv1.backward(
            self.bn1.backward(self.relu1.backward(self.conv2.backward(self.bn2.backward(grad))))
        )
        grad_identity = self._shortcut_backward(grad)
        return grad_main + grad_identity

    def compute_flops(self, input_shape: tuple[int, ...]) -> FlopReport:
        main1 = count_flops(self.conv1, input_shape)
        main2 = count_flops(self.conv2, main1.output_shape)
        total = main1.flops + main2.flops
        if self.use_projection:
            total += count_flops(self.downsample_conv, input_shape).flops
        return FlopReport(total, main2.output_shape)


class ResNetModel(StagedModel):
    """A concrete (possibly pruned) ResNet instance."""

    def __init__(self, stem: list[Module], blocks: list[BasicBlock], head: Linear):
        super().__init__()
        self.stem_conv, self.stem_bn, self.stem_relu = stem
        self._block_names: list[str] = []
        for index, block in enumerate(blocks, start=1):
            name = f"block{index}"
            setattr(self, name, block)
            self._block_names.append(name)
        self.pool = GlobalAvgPool2d()
        self.head = head

    @property
    def blocks(self) -> list[BasicBlock]:
        return [getattr(self, name) for name in self._block_names]

    def stages(self) -> list[Module]:
        return [self.stem_conv, self.stem_bn, self.stem_relu, *self.blocks, self.pool, self.head]


class SlimmableResNet18(SlimmableArchitecture):
    """ResNet-18 whose block widths can be pruned block by block.

    Channel-group layer indices: the stem conv is layer 1 and each of the
    eight basic blocks is one layer (indices 2-9); a block's two convs share
    its index so the residual add inside a block always stays consistent.
    """

    STAGE_CHANNELS = (64, 128, 256, 512)
    BLOCKS_PER_STAGE = 2

    def __init__(
        self,
        num_classes: int = 10,
        input_shape: tuple[int, int, int] = (3, 32, 32),
        width_multiplier: float = 1.0,
    ):
        super().__init__(input_shape, num_classes)
        if width_multiplier <= 0:
            raise ValueError("width_multiplier must be positive")
        self.name = "resnet18"
        self.width_multiplier = width_multiplier
        self._stage_channels = [max(1, int(round(c * width_multiplier))) for c in self.STAGE_CHANNELS]

    def _block_plan(self) -> list[tuple[int, int, int, bool]]:
        """Per-block (index, out_channels, stride, has_projection)."""
        plan = []
        block_index = 0
        for stage, channels in enumerate(self._stage_channels):
            for position in range(self.BLOCKS_PER_STAGE):
                block_index += 1
                stride = 2 if stage > 0 and position == 0 else 1
                projection = stage > 0 and position == 0
                plan.append((block_index, channels, stride, projection))
        return plan

    def _describe_groups(self) -> list[ChannelGroup]:
        groups = [ChannelGroup("conv1", self._stage_channels[0], layer_index=1)]
        for block_index, channels, _, _ in self._block_plan():
            layer_index = block_index + 1
            groups.append(ChannelGroup(f"block{block_index}_mid", channels, layer_index=layer_index))
            groups.append(ChannelGroup(f"block{block_index}_out", channels, layer_index=layer_index))
        return groups

    def build(
        self,
        group_sizes: Mapping[str, int] | None = None,
        rng: np.random.Generator | None = None,
    ) -> ResNetModel:
        rng = rng if rng is not None else np.random.default_rng(0)
        sizes = dict(group_sizes) if group_sizes is not None else self.full_group_sizes()
        self.validate_group_sizes(sizes)

        stem_channels = sizes["conv1"]
        stem_conv = annotate(
            Conv2d(self.input_shape[0], stem_channels, 3, stride=1, padding=1, bias=False, rng=rng),
            "conv1",
            None,
        )
        stem_bn = annotate(BatchNorm2d(stem_channels), "conv1")
        stem = [stem_conv, stem_bn, ReLU()]

        blocks: list[BasicBlock] = []
        in_channels = stem_channels
        in_group: str | None = "conv1"
        for block_index, _, stride, projection in self._block_plan():
            mid_group = f"block{block_index}_mid"
            out_group = f"block{block_index}_out"
            block = BasicBlock(
                in_channels=in_channels,
                mid_channels=sizes[mid_group],
                out_channels=sizes[out_group],
                stride=stride,
                mid_group=mid_group,
                out_group=out_group,
                in_group=in_group,
                use_projection=projection,
                rng=rng,
            )
            blocks.append(block)
            in_channels = sizes[out_group]
            in_group = out_group

        head = annotate(Linear(in_channels, self.num_classes, rng=rng), None, in_group)
        return ResNetModel(stem, blocks, head)
