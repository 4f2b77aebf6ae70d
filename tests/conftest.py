"""Shared fixtures: tiny architectures, datasets and federated settings.

Everything here is deliberately small so the full suite runs in minutes on
a CPU; the same code paths scale to the paper's configurations through the
experiment scale presets.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import AdaptiveFLConfig, FederatedConfig, LocalTrainingConfig, ModelPoolConfig
from repro.core.model_pool import ModelPool
from repro.data.datasets import SyntheticTaskConfig, synthesize_classification_task
from repro.data.partition import iid_partition
from repro.devices.profiles import build_device_profiles
from repro.devices.resources import ResourceModel
from repro.experiments.settings import ExperimentSetting, prepare_experiment
from repro.nn.models import SlimmableResNet18, SlimmableSimpleCNN, SlimmableVGG
from repro.perf.workspace import thread_arena


@pytest.fixture(autouse=True)
def arena_closed_after_each_test():
    """Every test checks in what it checked out: a skeleton left checked out
    keeps this thread's arena open, and every later task on the thread then
    allocates its scratch afresh.  A leak is closed here, then reported."""
    yield
    arena = thread_arena()
    leaked = arena.is_open
    while arena.is_open:
        arena.close()
    assert not leaked, "a skeleton was checked out and never checked in"


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def tiny_cnn() -> SlimmableSimpleCNN:
    """A small slimmable CNN (3 prunable layers) used across core tests."""
    return SlimmableSimpleCNN(num_classes=5, input_shape=(1, 8, 8), width_multiplier=0.5, hidden_features=32)


@pytest.fixture(scope="session")
def tiny_vgg() -> SlimmableVGG:
    """A narrow VGG11 for tests that need a deeper layered architecture."""
    return SlimmableVGG(
        config="vgg11",
        num_classes=5,
        input_shape=(3, 32, 32),
        width_multiplier=0.125,
        classifier_widths=(16, 16),
    )


@pytest.fixture(scope="session")
def tiny_resnet() -> SlimmableResNet18:
    """A narrow ResNet18 for residual-specific tests."""
    return SlimmableResNet18(num_classes=5, input_shape=(3, 16, 16), width_multiplier=0.125)


@pytest.fixture(scope="session")
def tiny_pool_config() -> ModelPoolConfig:
    return ModelPoolConfig(models_per_level=3, start_layers=(2, 2, 1), min_start_layer=1)


@pytest.fixture(scope="session")
def tiny_pool(tiny_cnn, tiny_pool_config) -> ModelPool:
    return ModelPool(tiny_cnn, tiny_pool_config)


@pytest.fixture(scope="session")
def tiny_task():
    """A small, learnable synthetic task (train, test)."""
    config = SyntheticTaskConfig(
        num_classes=5,
        input_shape=(1, 8, 8),
        train_samples=400,
        test_samples=150,
        clusters_per_class=2,
        noise_std=0.4,
        label_noise=0.0,
        seed=7,
    )
    return synthesize_classification_task(config)


@pytest.fixture(scope="session")
def tiny_federated_setup(tiny_cnn, tiny_task):
    """Partition, profiles and resource model for a 8-client federation."""
    train, test = tiny_task
    setup_rng = np.random.default_rng(3)
    partition = iid_partition(train, 8, setup_rng)
    profiles = build_device_profiles(8, "4:3:3", setup_rng)
    resource_model = ResourceModel(profiles, tiny_cnn.parameter_count(), uncertainty=0.1, seed=3)
    return {
        "train": train,
        "test": test,
        "partition": partition,
        "profiles": profiles,
        "resource_model": resource_model,
    }


@pytest.fixture(scope="session")
def fast_configs(tiny_pool_config):
    """Federated/local configs sized for second-scale tests."""
    federated = FederatedConfig(num_rounds=2, clients_per_round=3, eval_every=2)
    local = LocalTrainingConfig(local_epochs=1, batch_size=16, max_batches_per_epoch=3)
    adaptive = AdaptiveFLConfig(federated=federated, local=local, pool=tiny_pool_config)
    return {"federated": federated, "local": local, "adaptive": adaptive, "pool": tiny_pool_config}


@pytest.fixture(scope="session")
def ci_setting() -> ExperimentSetting:
    """The CI-scale experiment setting shared by the api/engine test suites."""
    return ExperimentSetting(
        dataset="cifar10", model="simple_cnn", scale="ci", overrides={"num_rounds": 2, "eval_every": 2}
    )


@pytest.fixture(scope="session")
def ci_prepared(ci_setting):
    """The ``ci_setting`` experiment prepared once for the whole test session.

    Prepared experiments are read-only by construction (each algorithm run
    builds its own clients, pool and global state), so sharing the snapshot
    across test modules is safe and skips repeated dataset synthesis.
    """
    return prepare_experiment(ci_setting)


@pytest.fixture(scope="session")
def easy_setup():
    """An easy 4-class task + federation that a tiny CNN learns in a few rounds.

    Used by the integration and engine suites; session-scoped because the
    synthesis is the expensive part and every consumer treats it read-only.
    """
    arch = SlimmableSimpleCNN(num_classes=4, input_shape=(1, 8, 8), width_multiplier=0.5, hidden_features=32)
    config = SyntheticTaskConfig(
        num_classes=4, input_shape=(1, 8, 8), train_samples=600, test_samples=240,
        clusters_per_class=1, noise_std=0.35, label_noise=0.0, seed=21,
    )
    train, test = synthesize_classification_task(config)
    setup_rng = np.random.default_rng(5)
    partition = iid_partition(train, 8, setup_rng)
    profiles = build_device_profiles(8, "4:3:3", setup_rng)
    resource_model = ResourceModel(profiles, arch.parameter_count(), uncertainty=0.1, seed=5)
    pool_config = ModelPoolConfig(models_per_level=3, start_layers=(2, 2, 1), min_start_layer=1)
    return {
        "arch": arch, "train": train, "test": test, "partition": partition,
        "profiles": profiles, "resource_model": resource_model, "pool": pool_config,
    }
