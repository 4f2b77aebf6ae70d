"""Slimmable two-conv CNN for FEMNIST-style grayscale classification.

The LEAF FEMNIST reference model: two 5x5 conv layers with max pooling
followed by a hidden linear layer and the class head.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.nn.layers import BatchNorm2d, Conv2d, Flatten, Linear, MaxPool2d, ReLU
from repro.nn.module import Module, Sequential
from repro.nn.models.spec import ChannelGroup, SlimmableArchitecture, StagedModel, annotate

__all__ = ["SimpleCNNModel", "SlimmableSimpleCNN"]


class SimpleCNNModel(StagedModel):
    """A concrete (possibly pruned) SimpleCNN instance."""

    def __init__(self, features: Sequential, classifier: Sequential):
        super().__init__()
        self.features = features
        self.flatten = Flatten()
        self.classifier = classifier

    def stages(self) -> list[Module]:
        return [*self.features, self.flatten, *self.classifier]


class SlimmableSimpleCNN(SlimmableArchitecture):
    """LEAF-style CNN (conv 32 -> conv 64 -> fc hidden -> classes)."""

    def __init__(
        self,
        num_classes: int = 62,
        input_shape: tuple[int, int, int] = (1, 28, 28),
        width_multiplier: float = 1.0,
        conv_channels: tuple[int, int] = (32, 64),
        hidden_features: int = 512,
    ):
        super().__init__(input_shape, num_classes)
        if width_multiplier <= 0:
            raise ValueError("width_multiplier must be positive")
        self.name = "simple_cnn"
        self.width_multiplier = width_multiplier
        self._conv_channels = [max(1, int(round(c * width_multiplier))) for c in conv_channels]
        self._hidden_features = max(1, int(round(hidden_features * width_multiplier)))
        spatial_h = self.input_shape[1] // 4
        spatial_w = self.input_shape[2] // 4
        if spatial_h < 1 or spatial_w < 1:
            raise ValueError(f"input {self.input_shape} too small for two 2x2 pooling stages")
        self._final_spatial = spatial_h * spatial_w

    def _describe_groups(self) -> list[ChannelGroup]:
        return [
            ChannelGroup("conv1", self._conv_channels[0], layer_index=1),
            ChannelGroup("conv2", self._conv_channels[1], layer_index=2),
            ChannelGroup("fc1", self._hidden_features, layer_index=3),
        ]

    def build(
        self,
        group_sizes: Mapping[str, int] | None = None,
        rng: np.random.Generator | None = None,
    ) -> SimpleCNNModel:
        rng = rng if rng is not None else np.random.default_rng(0)
        sizes = dict(group_sizes) if group_sizes is not None else self.full_group_sizes()
        self.validate_group_sizes(sizes)

        conv1 = annotate(
            Conv2d(self.input_shape[0], sizes["conv1"], 5, padding=2, rng=rng), "conv1", None
        )
        conv2 = annotate(Conv2d(sizes["conv1"], sizes["conv2"], 5, padding=2, rng=rng), "conv2", "conv1")
        features = Sequential(
            conv1,
            annotate(BatchNorm2d(sizes["conv1"]), "conv1"),
            ReLU(),
            MaxPool2d(2, 2),
            conv2,
            annotate(BatchNorm2d(sizes["conv2"]), "conv2"),
            ReLU(),
            MaxPool2d(2, 2),
        )
        fc1 = annotate(
            Linear(sizes["conv2"] * self._final_spatial, sizes["fc1"], rng=rng),
            "fc1",
            "conv2",
            in_repeat=self._final_spatial,
        )
        head = annotate(Linear(sizes["fc1"], self.num_classes, rng=rng), None, "fc1")
        classifier = Sequential(fc1, ReLU(), head)
        return SimpleCNNModel(features, classifier)
