"""Slimmable-architecture description.

AdaptiveFL (like HeteroFL and ScaleFL) builds heterogeneous submodels by
keeping a *prefix* of the channels of selected layers of a full global
model.  To implement that generically, every architecture in the zoo
describes itself in terms of:

* **channel groups** — named sets of channels whose width shrinks together
  (e.g. the output channels of one conv layer).  Each group carries the
  1-based ``layer_index`` the paper's starting-pruning-layer hyper-parameter
  ``I`` refers to, plus a ``prunable`` flag (the RGB input and the class
  logits are never pruned).
* **parameter specs** — for every entry of the model ``state_dict``, which
  group governs its output axis (axis 0) and which governs its input axis
  (axis 1), plus an ``in_repeat`` factor for flattened conv→linear
  boundaries where each kept channel contributes ``H*W`` consecutive
  inputs.

Given a mapping ``group name -> kept size`` the federated-learning code can
then slice the global state dict into a submodel state dict, build a
matching smaller network, and scatter trained submodel weights back into
the global coordinate system (Algorithm 2 of the paper) without knowing
anything architecture-specific.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.nn.module import Module
from repro.perf.flops import FlopReport, count_flops

__all__ = [
    "ChannelGroup",
    "ParamSpec",
    "StagedModel",
    "SlimmableArchitecture",
    "annotate",
    "derive_param_specs",
    "resolve_group_sizes",
    "scaled_size",
]


@dataclass(frozen=True)
class ChannelGroup:
    """A named set of channels that are pruned together.

    Attributes:
        name: unique identifier of the group within one architecture.
        full_size: channel count in the unpruned global model.
        layer_index: 1-based position used by the starting-pruning-layer
            hyper-parameter ``I``; groups with ``layer_index > I`` are
            pruned.  Non-prunable groups use index 0.
        prunable: whether width-wise pruning may shrink this group.
    """

    name: str
    full_size: int
    layer_index: int = 0
    prunable: bool = True

    def __post_init__(self) -> None:
        if self.full_size <= 0:
            raise ValueError(f"group {self.name!r} must have positive size")
        if self.prunable and self.layer_index <= 0:
            raise ValueError(f"prunable group {self.name!r} needs a positive layer_index")


@dataclass(frozen=True)
class ParamSpec:
    """How one state-dict tensor maps onto channel groups.

    ``out_group`` governs axis 0, ``in_group`` governs axis 1 (if the
    tensor has a second axis tied to a group).  ``in_repeat`` multiplies the
    input-group size, used when a conv feature map of shape (C, H, W) is
    flattened channel-major before a linear layer (each kept channel then
    owns ``H*W`` consecutive columns).  ``buffer`` marks a tensor the model
    declares as a buffer, not a parameter: a running statistic that forward
    passes update and no gradient step touches.  ``nonnegative`` marks a
    buffer its layer declares can hold no negative value (a variance).
    """

    name: str
    out_group: str | None
    in_group: str | None = None
    in_repeat: int = 1
    buffer: bool = False
    nonnegative: bool = False


def annotate(layer: Module, out_group: str | None, in_group: str | None = None, in_repeat: int = 1) -> Module:
    """Tag a layer with the channel groups its parameters belong to.

    The tags are consumed by :func:`derive_param_specs` after the model has
    been assembled, which avoids hand-maintaining state-dict key lists.
    """
    layer._slim_out_group = out_group  # type: ignore[attr-defined]
    layer._slim_in_group = in_group  # type: ignore[attr-defined]
    layer._slim_in_repeat = in_repeat  # type: ignore[attr-defined]
    return layer


def derive_param_specs(model: Module) -> list[ParamSpec]:
    """Walk a model annotated with :func:`annotate` and emit parameter specs.

    Every parameter and buffer of an annotated layer is mapped: tensors with
    two or more axes get both the out and in group; one-dimensional tensors
    (biases, batch-norm weights and running statistics) get only the out
    group.  Parameters of un-annotated layers are treated as shared
    (never-pruned) tensors with no group attachment.
    """
    specs: list[ParamSpec] = []
    for prefix, module in model.named_modules():
        own_names = list(module._parameters) + list(module._buffers)
        if not own_names:
            continue
        out_group = getattr(module, "_slim_out_group", None)
        in_group = getattr(module, "_slim_in_group", None)
        in_repeat = getattr(module, "_slim_in_repeat", 1)
        for local in own_names:
            full = f"{prefix}.{local}" if prefix else local
            buffer = local not in module._parameters
            tensor = module._buffers[local] if buffer else module._parameters[local].data
            nonnegative = local in module.nonnegative_buffers
            if tensor.ndim >= 2:
                specs.append(ParamSpec(full, out_group, in_group, in_repeat, buffer, nonnegative))
            else:
                specs.append(ParamSpec(full, out_group, None, 1, buffer, nonnegative))
    return specs


def scaled_size(full_size: int, ratio: float) -> int:
    """Number of channels kept when pruning ``full_size`` channels at ``ratio``.

    Uses floor with a minimum of one channel, matching the convention that
    recovers Table 1 of the paper.
    """
    if not 0.0 < ratio <= 1.0:
        raise ValueError(f"width ratio must be in (0, 1], got {ratio}")
    return max(1, int(np.floor(full_size * ratio)))


def resolve_group_sizes(
    groups: list[ChannelGroup],
    width_ratio: float,
    start_layer: int | None,
) -> dict[str, int]:
    """Kept size of every channel group for a (``r_w``, ``I``) configuration.

    ``start_layer=None`` (or ``width_ratio == 1.0``) keeps the full model.
    Groups whose ``layer_index`` is greater than ``start_layer`` are scaled
    by ``width_ratio``; everything else keeps its full size.
    """
    sizes: dict[str, int] = {}
    for group in groups:
        if (
            width_ratio < 1.0
            and group.prunable
            and start_layer is not None
            and group.layer_index > start_layer
        ):
            sizes[group.name] = scaled_size(group.full_size, width_ratio)
        else:
            sizes[group.name] = group.full_size
    return sizes


class StagedModel(Module):
    """A network that is one ordered chain of stages.

    A family supplies :meth:`stages`; the forward pass, the backward pass
    and the FLOP trace are written once over that chain.  Two callers rely
    on the seam: shared-trunk evaluation (:func:`repro.core.metrics.evaluate_heads`)
    taps the activation entering a stage and starts a pruned head's chain
    there, and local training asks for no input gradient so the stem skips
    the work of producing the gradient of the images.
    """

    def stages(self) -> list[Module]:  # pragma: no cover - abstract
        """The chain, nested ``Sequential``s flattened; residual blocks are
        one stage.  The first stage must be a ``Conv2d`` stem."""
        raise NotImplementedError

    def forward(self, x: np.ndarray, start: int = 0, taps: dict | None = None) -> np.ndarray:
        """Run ``stages()[start:]``; each index keyed in ``taps`` receives
        the activation *entering* that stage."""
        for index, stage in enumerate(self.stages()[start:], start):
            if taps is not None and index in taps:
                taps[index] = x
            x = stage(x)
        return x

    def backward(self, grad_out: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        """Backpropagate through the chain; ``input_grad=False`` lets the
        stem skip the gradient with respect to the model input."""
        stem, *rest = self.stages()
        for stage in reversed(rest):
            grad_out = stage.backward(grad_out)
        return stem.backward(grad_out, input_grad)

    def compute_flops(self, input_shape: tuple[int, ...]) -> FlopReport:
        total = 0
        shape = tuple(input_shape)
        for stage in self.stages():
            report = count_flops(stage, shape)
            total += report.flops
            shape = report.output_shape
        return FlopReport(total, shape)


class SlimmableArchitecture(ABC):
    """A model family that can be instantiated at arbitrary channel widths."""

    #: short identifier used in configs and registries
    name: str = "slimmable"

    def __init__(self, input_shape: tuple[int, int, int], num_classes: int):
        if num_classes <= 0:
            raise ValueError("num_classes must be positive")
        if len(input_shape) != 3:
            raise ValueError("input_shape must be (channels, height, width)")
        self.input_shape = tuple(input_shape)
        self.num_classes = int(num_classes)
        self._channel_groups: tuple[ChannelGroup, ...] | None = None
        self._param_specs: list[ParamSpec] | None = None
        self._full_shapes: dict[str, tuple[int, ...]] | None = None

    # -- architecture description -------------------------------------------------
    @abstractmethod
    def _describe_groups(self) -> list[ChannelGroup]:
        """Ordered channel groups of the full architecture."""

    def channel_groups(self) -> list[ChannelGroup]:
        """Ordered channel groups of the full architecture (described once
        per architecture object; a fresh list per call)."""
        if self._channel_groups is None:
            self._channel_groups = tuple(self._describe_groups())
        return list(self._channel_groups)

    @abstractmethod
    def build(
        self,
        group_sizes: Mapping[str, int] | None = None,
        rng: np.random.Generator | None = None,
    ) -> StagedModel:
        """Instantiate the network at the given channel widths.

        ``group_sizes=None`` builds the full model.  The returned module
        must be annotated (see :func:`annotate`) so that parameter specs can
        be derived from it.
        """

    # -- derived helpers -----------------------------------------------------------
    def signature(self) -> tuple:
        """Value identity: the class and every attribute the constructor set
        (not the memoised descriptions).  Unpickled copies of one architecture
        compare equal, architectures differing in any constructor argument do
        not — the key of a cache that outlives the object."""
        memoised = ("_channel_groups", "_param_specs", "_full_shapes")
        return type(self), repr(sorted(item for item in vars(self).items() if item[0] not in memoised))

    def full_group_sizes(self) -> dict[str, int]:
        """Channel sizes of the unpruned global model."""
        return {g.name: g.full_size for g in self.channel_groups()}

    def num_prunable_layers(self) -> int:
        """Largest ``layer_index`` across prunable groups."""
        return max((g.layer_index for g in self.channel_groups() if g.prunable), default=0)

    def param_specs(self) -> list[ParamSpec]:
        """Parameter specs derived from the full model (cached)."""
        if self._param_specs is None:
            model = self.build(None, rng=np.random.default_rng(0))
            self._param_specs = derive_param_specs(model)
            self._full_shapes = {name: np.asarray(v).shape for name, v in model.state_dict().items()}
        return self._param_specs

    def buffer_names(self) -> frozenset[str]:
        """State-dict names of the model's buffers (its running statistics)."""
        return frozenset(spec.name for spec in self.param_specs() if spec.buffer)

    def full_param_shapes(self) -> dict[str, tuple[int, ...]]:
        """Shapes of every state-dict tensor of the full model (cached)."""
        if self._full_shapes is None:
            self.param_specs()
        assert self._full_shapes is not None
        return self._full_shapes

    def group_sizes_for(self, width_ratio: float, start_layer: int | None) -> dict[str, int]:
        """Kept channel sizes for a (``r_w``, ``I``) pruning configuration."""
        return resolve_group_sizes(self.channel_groups(), width_ratio, start_layer)

    def param_shape_for(self, spec: ParamSpec, group_sizes: Mapping[str, int]) -> tuple[int, ...]:
        """Shape of one tensor when the model is built at ``group_sizes``."""
        full_shape = self.full_param_shapes()[spec.name]
        shape = list(full_shape)
        if spec.out_group is not None:
            shape[0] = group_sizes[spec.out_group]
        if spec.in_group is not None and len(shape) > 1:
            shape[1] = group_sizes[spec.in_group] * spec.in_repeat
        return tuple(shape)

    def parameter_count(self, group_sizes: Mapping[str, int] | None = None) -> int:
        """Trainable parameter count at the given widths, without building.

        Buffers (batch-norm running statistics) are excluded so the number
        matches ``count_params(model)`` for the built model.
        """
        sizes = group_sizes if group_sizes is not None else self.full_group_sizes()
        total = 0
        for spec in self.param_specs():
            if spec.buffer:
                continue
            total += int(np.prod(self.param_shape_for(spec, sizes)))
        return total

    def validate_group_sizes(self, group_sizes: Mapping[str, int]) -> None:
        """Raise if ``group_sizes`` is missing groups or exceeds full sizes."""
        for group in self.channel_groups():
            if group.name not in group_sizes:
                raise KeyError(f"missing size for channel group {group.name!r}")
            size = group_sizes[group.name]
            if not 1 <= size <= group.full_size:
                raise ValueError(
                    f"size {size} for group {group.name!r} outside [1, {group.full_size}]"
                )
            if not group.prunable and size != group.full_size:
                raise ValueError(f"group {group.name!r} is not prunable but size differs from full")
