"""Concrete experiment settings mirroring the paper's evaluation section.

This module turns a (dataset, model, distribution, scale) tuple into the
objects the algorithms need: the synthetic dataset pair, the federated
partition, the device profiles, the resource model and the architecture.
It also exposes the paper's Table 1 split settings for VGG16.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import (
    RUNTIME_FIELDS, SELECTION_STRATEGIES, AdaptiveFLConfig, FederatedConfig, LocalTrainingConfig, ModelPoolConfig,
)
from repro.core.serialization import Serializable
from repro.data.datasets import Dataset, make_cifar10_like, make_cifar100_like, make_femnist_like, make_widar_like
from repro.data.partition import ClientPartition, partition_dataset
from repro.devices.profiles import DeviceProfile, build_device_profiles, parse_proportion
from repro.devices.resources import ResourceModel
from repro.experiments.scaling import ExperimentScale, get_scale
from repro.nn.models import available_architectures, create_architecture
from repro.nn.models.spec import SlimmableArchitecture
from repro.sim.fleet import FleetSimulator
from repro.sim.scenario import get_scenario

__all__ = [
    "DATASET_BUILDERS",
    "DISTRIBUTIONS",
    "ExperimentSetting",
    "PreparedExperiment",
    "prepare_experiment",
    "vgg16_table1_settings",
    "paper_pool_config",
]

DATASET_BUILDERS = {
    "cifar10": make_cifar10_like,
    "cifar100": make_cifar100_like,
    "femnist": make_femnist_like,
    "widar": make_widar_like,
}

#: valid values of ``ExperimentSetting.distribution``
DISTRIBUTIONS = ("iid", "dirichlet", "natural")

_DATASET_CLASSES = {"cifar10": 10, "cifar100": 100, "femnist": 62, "widar": 22}
_DATASET_CHANNELS = {"cifar10": 3, "cifar100": 3, "femnist": 1, "widar": 1}
#: datasets whose samples carry writer/user groups (what "natural" partitions by)
_GROUPED_DATASETS = ("femnist", "widar")


@dataclass(frozen=True)
class ExperimentSetting(Serializable):
    """One cell of the paper's evaluation grid."""

    dataset: str = "cifar10"
    #: architecture registry name; simple_cnn builds at every scale (a
    #: paper-scale VGG16 run passes model="vgg16", which needs 32 px inputs)
    model: str = "simple_cnn"
    #: one of DISTRIBUTIONS
    distribution: str = "iid"
    alpha: float | None = None
    proportion: str = "4:3:3"
    scale: str = "ci"
    seed: int = 0
    resource_uncertainty: float = 0.1
    #: the runtime knobs (RUNTIME_FIELDS): declared, documented and validated
    #: by :class:`~repro.core.config.FederatedConfig`, which receives them as-is
    executor: str = "serial"
    max_workers: int | None = None
    scenario: str | None = None
    transport: str = "delta"
    transport_codec: str = "none"
    overrides: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.dataset not in DATASET_BUILDERS:
            raise ValueError(f"unknown dataset {self.dataset!r}")
        if self.model not in available_architectures():
            raise ValueError(f"unknown model {self.model!r}; available: {', '.join(available_architectures())}")
        if self.distribution not in DISTRIBUTIONS:
            raise ValueError(f"unknown distribution {self.distribution!r}")
        if self.distribution == "dirichlet" and self.alpha is None:
            raise ValueError("dirichlet distribution requires alpha")
        if self.alpha is not None and not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.distribution == "natural" and self.dataset not in _GROUPED_DATASETS:
            raise ValueError(
                f"distribution 'natural' partitions by writer/user groups, which dataset {self.dataset!r} "
                f"does not have (it needs one of {', '.join(_GROUPED_DATASETS)})"
            )
        if not self.resource_uncertainty >= 0:
            raise ValueError(f"resource_uncertainty must be non-negative, got {self.resource_uncertainty}")
        try:
            parse_proportion(self.proportion)
        except ValueError as error:
            raise ValueError(f"invalid proportion {self.proportion!r}: {error}") from None
        try:
            get_scale(self.scale, **self.overrides)
        except (KeyError, TypeError) as error:
            raise ValueError(f"invalid scale {self.scale!r} or overrides {self.overrides!r}: {error.args[0]}") from None
        FederatedConfig(**self.runtime_options())

    def runtime_options(self) -> dict:
        """The runtime knobs as :class:`~repro.core.config.FederatedConfig` keyword arguments."""
        return {name: getattr(self, name) for name in RUNTIME_FIELDS}


@dataclass
class PreparedExperiment:
    """Everything needed to instantiate an algorithm for one setting."""

    setting: ExperimentSetting
    scale: ExperimentScale
    architecture: SlimmableArchitecture
    train_dataset: Dataset
    test_dataset: Dataset
    partition: ClientPartition
    profiles: list[DeviceProfile]
    resource_model: ResourceModel
    federated_config: FederatedConfig
    local_config: LocalTrainingConfig
    pool_config: ModelPoolConfig

    def algorithm_kwargs(self) -> dict:
        """Keyword arguments accepted by every :class:`FederatedAlgorithm`."""
        return {
            "architecture": self.architecture,
            "train_dataset": self.train_dataset,
            "partition": self.partition,
            "test_dataset": self.test_dataset,
            "profiles": self.profiles,
            "federated_config": self.federated_config,
            "local_config": self.local_config,
            "resource_model": self.resource_model,
            "seed": self.setting.seed,
        }

    def adaptivefl_config(self, selection_strategy: str = SELECTION_STRATEGIES[0]) -> AdaptiveFLConfig:
        """AdaptiveFL configuration matching this experiment."""
        return AdaptiveFLConfig(
            federated=self.federated_config,
            local=self.local_config,
            pool=self.pool_config,
            selection_strategy=selection_strategy,
        )


def paper_pool_config(architecture: SlimmableArchitecture) -> ModelPoolConfig:
    """The paper's p=3 pool (Table 1) adjusted to the architecture's depth.

    The published start layers (8/6/4) assume the 16-layer VGG16; for
    shallower architectures the start layers are scaled proportionally so
    the pool keeps the same relative fine-grained structure.
    """
    max_layer = architecture.num_prunable_layers()
    if max_layer >= 10:
        start_layers = (8, 6, 4)
        tau = 4
    else:
        top = max(2, max_layer - 1)
        mid = max(1, int(round(top * 0.75)))
        low = max(1, int(round(top * 0.5)))
        if mid >= top:
            mid = top - 1 if top > 1 else top
        if low >= mid:
            low = max(1, mid - 1)
        start_layers = (top, mid, low)
        tau = low
    return ModelPoolConfig(
        models_per_level=3,
        level_width_ratios={"L": 1.0, "M": 0.66, "S": 0.40},
        start_layers=start_layers,
        min_start_layer=tau,
    )


def _build_architecture(setting: ExperimentSetting, scale: ExperimentScale) -> SlimmableArchitecture:
    num_classes = _DATASET_CLASSES[setting.dataset]
    channels = _DATASET_CHANNELS[setting.dataset]
    input_shape = (channels, scale.image_size, scale.image_size)
    kwargs: dict = {
        "num_classes": num_classes,
        "input_shape": input_shape,
        "width_multiplier": scale.width_multiplier,
    }
    if setting.model in {"vgg16", "vgg11"}:
        kwargs["classifier_widths"] = (scale.classifier_width, scale.classifier_width)
    if setting.model == "simple_cnn":
        kwargs["hidden_features"] = scale.classifier_width
    return create_architecture(setting.model, **kwargs)


def prepare_experiment(setting: ExperimentSetting) -> PreparedExperiment:
    """Materialise datasets, partition, devices and configs for one setting."""
    scale = get_scale(setting.scale, **setting.overrides)
    rng = np.random.default_rng(setting.seed)

    architecture = _build_architecture(setting, scale)
    builder = DATASET_BUILDERS[setting.dataset]
    dataset_kwargs: dict = {
        "train_samples": scale.train_samples,
        "test_samples": scale.test_samples,
        "image_size": scale.image_size,
        "seed": setting.seed,
    }
    if setting.dataset == "femnist":
        dataset_kwargs["num_writers"] = max(scale.num_clients, 2)
    if setting.dataset == "widar":
        dataset_kwargs["num_users"] = max(scale.num_clients, 2)
    train_dataset, test_dataset = builder(**dataset_kwargs)

    partition = partition_dataset(
        train_dataset,
        scale.num_clients,
        scheme=setting.distribution,
        rng=rng,
        alpha=setting.alpha,
    )
    if setting.scenario is not None:
        # the scenario's device mix defines the fleet: capacity profiles come
        # from the same deterministic expansion the per-run FleetSimulator uses
        fleet = FleetSimulator(get_scenario(setting.scenario), num_clients=scale.num_clients, seed=setting.seed)
        profiles = fleet.build_profiles()
    else:
        profiles = build_device_profiles(scale.num_clients, setting.proportion, rng)
    resource_model = ResourceModel(
        profiles,
        architecture.parameter_count(),
        uncertainty=setting.resource_uncertainty,
        seed=setting.seed,
    )
    federated_config = FederatedConfig(
        num_rounds=scale.num_rounds,
        clients_per_round=scale.clients_per_round,
        eval_every=scale.eval_every,
        seed=setting.seed,
        **setting.runtime_options(),
    )
    local_config = LocalTrainingConfig(
        local_epochs=scale.local_epochs,
        batch_size=scale.batch_size,
        max_batches_per_epoch=scale.max_batches_per_epoch,
    )
    return PreparedExperiment(
        setting=setting,
        scale=scale,
        architecture=architecture,
        train_dataset=train_dataset,
        test_dataset=test_dataset,
        partition=partition,
        profiles=profiles,
        resource_model=resource_model,
        federated_config=federated_config,
        local_config=local_config,
        pool_config=paper_pool_config(architecture),
    )


def vgg16_table1_settings() -> list[dict]:
    """The paper's Table 1: VGG16 split settings for p = 3.

    Returns one row per pool entry with the pruning configuration and the
    paper-reported sizes, to be compared against the measured sizes by the
    Table 1 benchmark.
    """
    return [
        {"level": "L1", "r_w": 1.00, "start_layer": None, "paper_params_m": 33.65, "paper_flops_m": 333.22, "paper_ratio": 1.00},
        {"level": "M1", "r_w": 0.66, "start_layer": 8, "paper_params_m": 16.81, "paper_flops_m": 272.17, "paper_ratio": 0.50},
        {"level": "M2", "r_w": 0.66, "start_layer": 6, "paper_params_m": 15.41, "paper_flops_m": 239.95, "paper_ratio": 0.46},
        {"level": "M3", "r_w": 0.66, "start_layer": 4, "paper_params_m": 14.84, "paper_flops_m": 203.41, "paper_ratio": 0.44},
        {"level": "S1", "r_w": 0.40, "start_layer": 8, "paper_params_m": 8.39, "paper_flops_m": 239.00, "paper_ratio": 0.25},
        {"level": "S2", "r_w": 0.40, "start_layer": 6, "paper_params_m": 6.48, "paper_flops_m": 191.31, "paper_ratio": 0.19},
        {"level": "S3", "r_w": 0.40, "start_layer": 4, "paper_params_m": 5.67, "paper_flops_m": 139.07, "paper_ratio": 0.17},
    ]
