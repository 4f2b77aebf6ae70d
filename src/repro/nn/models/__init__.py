"""Slimmable architecture zoo used by the AdaptiveFL reproduction."""

from repro.nn.models.mobilenet import SlimmableMobileNetV2
from repro.nn.models.registry import available_architectures, create_architecture, register_architecture
from repro.nn.models.resnet import SlimmableResNet18
from repro.nn.models.simple_cnn import SlimmableSimpleCNN
from repro.nn.models.spec import (
    ChannelGroup,
    ParamSpec,
    SlimmableArchitecture,
    StagedModel,
    annotate,
    derive_param_specs,
    resolve_group_sizes,
    scaled_size,
)
from repro.nn.models.vgg import SlimmableVGG

__all__ = [
    "ChannelGroup",
    "ParamSpec",
    "SlimmableArchitecture",
    "StagedModel",
    "SlimmableVGG",
    "SlimmableResNet18",
    "SlimmableMobileNetV2",
    "SlimmableSimpleCNN",
    "annotate",
    "derive_param_specs",
    "resolve_group_sizes",
    "scaled_size",
    "create_architecture",
    "available_architectures",
    "register_architecture",
]
