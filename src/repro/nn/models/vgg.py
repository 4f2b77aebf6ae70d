"""Slimmable VGG (VGG16 / VGG11) for the CIFAR-style experiments.

Matches the configuration used in the paper's Table 1: thirteen 3x3 conv
layers with batch normalisation, five max-pool stages and a
512 -> 4096 -> 4096 -> classes classifier, which totals 33.65M parameters
and ~333M MACs on 3x32x32 inputs at full width.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.nn.layers import BatchNorm2d, Conv2d, Dropout, Flatten, Linear, MaxPool2d, ReLU
from repro.nn.module import Module, Sequential
from repro.nn.models.spec import ChannelGroup, SlimmableArchitecture, StagedModel, annotate

__all__ = ["VGGModel", "SlimmableVGG", "VGG_CONFIGS"]

# 'M' entries are max-pool stages; integers are conv output channels.
VGG_CONFIGS: dict[str, list] = {
    "vgg11": [64, "M", 128, "M", 256, 256, "M", 512, 512, "M", 512, 512, "M"],
    "vgg16": [64, 64, "M", 128, 128, "M", 256, 256, 256, "M", 512, 512, 512, "M", 512, 512, 512, "M"],
}


class VGGModel(StagedModel):
    """A concrete VGG instance (possibly pruned); built by :class:`SlimmableVGG`."""

    def __init__(self, features: Sequential, classifier: Sequential):
        super().__init__()
        self.features = features
        self.flatten = Flatten()
        self.classifier = classifier

    def stages(self) -> list[Module]:
        return [*self.features, self.flatten, *self.classifier]


class SlimmableVGG(SlimmableArchitecture):
    """VGG family whose conv/linear widths can be pruned layer by layer.

    Local training gives each ``Dropout`` layer its own stream, keyed on
    the task's seed and the layer's place in the network; earlier releases
    let all of them share the generator that had initialised the weights,
    so masks of ``dropout > 0`` runs differ from those releases
    (``dropout = 0``, the default, is untouched).
    """

    def __init__(
        self,
        config: str = "vgg16",
        num_classes: int = 10,
        input_shape: tuple[int, int, int] = (3, 32, 32),
        width_multiplier: float = 1.0,
        classifier_widths: tuple[int, int] = (4096, 4096),
        dropout: float = 0.0,
    ):
        super().__init__(input_shape, num_classes)
        if config not in VGG_CONFIGS:
            raise ValueError(f"unknown VGG config {config!r}; choose from {sorted(VGG_CONFIGS)}")
        if width_multiplier <= 0:
            raise ValueError("width_multiplier must be positive")
        self.name = config
        self.config = config
        self.width_multiplier = width_multiplier
        self.classifier_widths = tuple(classifier_widths)
        self.dropout = dropout
        self._plan = VGG_CONFIGS[config]
        self._conv_channels = [
            max(1, int(round(entry * width_multiplier))) for entry in self._plan if entry != "M"
        ]
        self._pool_count = sum(1 for entry in self._plan if entry == "M")
        spatial_h = self.input_shape[1] // (2**self._pool_count)
        spatial_w = self.input_shape[2] // (2**self._pool_count)
        if spatial_h < 1 or spatial_w < 1:
            raise ValueError(
                f"input {self.input_shape} too small for {self._pool_count} pooling stages"
            )
        self._final_spatial = spatial_h * spatial_w

    # -- description ----------------------------------------------------------------
    def _describe_groups(self) -> list[ChannelGroup]:
        groups = []
        for index, channels in enumerate(self._conv_channels, start=1):
            groups.append(ChannelGroup(f"conv{index}", channels, layer_index=index))
        base = len(self._conv_channels)
        for offset, width in enumerate(self.classifier_widths, start=1):
            groups.append(ChannelGroup(f"fc{offset}", width, layer_index=base + offset))
        return groups

    # -- construction -----------------------------------------------------------------
    def build(
        self,
        group_sizes: Mapping[str, int] | None = None,
        rng: np.random.Generator | None = None,
    ) -> VGGModel:
        rng = rng if rng is not None else np.random.default_rng(0)
        sizes = dict(group_sizes) if group_sizes is not None else self.full_group_sizes()
        self.validate_group_sizes(sizes)

        feature_layers: list[Module] = []
        in_channels = self.input_shape[0]
        in_group: str | None = None
        conv_index = 0
        for entry in self._plan:
            if entry == "M":
                feature_layers.append(MaxPool2d(2, 2))
                continue
            conv_index += 1
            group = f"conv{conv_index}"
            out_channels = sizes[group]
            conv = Conv2d(in_channels, out_channels, kernel_size=3, padding=1, bias=True, rng=rng)
            feature_layers.append(annotate(conv, group, in_group))
            feature_layers.append(annotate(BatchNorm2d(out_channels), group))
            feature_layers.append(ReLU())
            in_channels = out_channels
            in_group = group

        classifier_layers: list[Module] = []
        last_group = in_group
        in_features = in_channels * self._final_spatial
        repeat = self._final_spatial
        for offset, _ in enumerate(self.classifier_widths, start=1):
            group = f"fc{offset}"
            out_features = sizes[group]
            linear = Linear(in_features, out_features, rng=rng)
            classifier_layers.append(annotate(linear, group, last_group, in_repeat=repeat))
            classifier_layers.append(ReLU())
            if self.dropout > 0:
                classifier_layers.append(Dropout(self.dropout, rng=rng))
            in_features = out_features
            last_group = group
            repeat = 1
        head = Linear(in_features, self.num_classes, rng=rng)
        classifier_layers.append(annotate(head, None, last_group))

        return VGGModel(Sequential(*feature_layers), Sequential(*classifier_layers))
