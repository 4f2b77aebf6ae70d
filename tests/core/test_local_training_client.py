"""Local-training and simulated-client tests."""

import numpy as np
import pytest

from repro.core.client import SimulatedClient
from repro.core.config import LocalTrainingConfig
from repro.core.local_training import train_local_model
from repro.devices.profiles import DEFAULT_DEVICE_CLASSES, DeviceProfile


@pytest.fixture
def client_dataset(tiny_task):
    train, _ = tiny_task
    return train.subset(np.arange(80))


class TestTrainLocalModel:
    def test_returns_trained_state_with_expected_shapes(self, tiny_cnn, client_dataset):
        initial = tiny_cnn.build(rng=np.random.default_rng(0)).state_dict()
        config = LocalTrainingConfig(local_epochs=1, batch_size=16, max_batches_per_epoch=3)
        result = train_local_model(
            tiny_cnn, tiny_cnn.full_group_sizes(), initial, client_dataset, config, np.random.default_rng(1)
        )
        assert result.num_samples == len(client_dataset)
        assert result.num_steps == 3
        assert set(result.state) == set(initial)
        assert all(result.state[name].shape == initial[name].shape for name in initial)

    def test_training_changes_parameters(self, tiny_cnn, client_dataset):
        initial = tiny_cnn.build(rng=np.random.default_rng(0)).state_dict()
        config = LocalTrainingConfig(local_epochs=1, batch_size=16, max_batches_per_epoch=2)
        result = train_local_model(
            tiny_cnn, tiny_cnn.full_group_sizes(), initial, client_dataset, config, np.random.default_rng(1)
        )
        changed = any(
            not np.allclose(result.state[name], initial[name])
            for name in initial
            if not name.endswith(("running_mean", "running_var"))
        )
        assert changed

    def test_loss_decreases_over_epochs(self, tiny_cnn, client_dataset):
        initial = tiny_cnn.build(rng=np.random.default_rng(0)).state_dict()
        short = LocalTrainingConfig(local_epochs=1, batch_size=20)
        long = LocalTrainingConfig(local_epochs=4, batch_size=20)
        loss_short = train_local_model(
            tiny_cnn, tiny_cnn.full_group_sizes(), initial, client_dataset, short, np.random.default_rng(1)
        ).mean_loss
        loss_long = train_local_model(
            tiny_cnn, tiny_cnn.full_group_sizes(), initial, client_dataset, long, np.random.default_rng(1)
        ).mean_loss
        assert loss_long < loss_short

    def test_empty_dataset_rejected(self, tiny_cnn, client_dataset):
        empty = client_dataset.subset(np.array([], dtype=int))
        with pytest.raises(ValueError):
            train_local_model(
                tiny_cnn,
                tiny_cnn.full_group_sizes(),
                tiny_cnn.build().state_dict(),
                empty,
                LocalTrainingConfig(),
                np.random.default_rng(0),
            )

    def test_local_config_validation(self):
        with pytest.raises(ValueError):
            LocalTrainingConfig(local_epochs=0)
        with pytest.raises(ValueError):
            LocalTrainingConfig(batch_size=0)
        with pytest.raises(ValueError):
            LocalTrainingConfig(learning_rate=-1)
        with pytest.raises(ValueError):
            LocalTrainingConfig(momentum=1.0)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("learning_rate", float("nan")),
            ("learning_rate", float("inf")),
            ("learning_rate", 0.0),
            ("weight_decay", -0.5),
            ("weight_decay", float("nan")),
            ("weight_decay", float("inf")),
            ("momentum", float("nan")),
        ],
    )
    def test_non_numbers_and_negatives_are_refused_by_name(self, field, value):
        """``nan <= 0`` is False: a NaN learning rate used to train NaN weights."""
        with pytest.raises(ValueError, match=field):
            LocalTrainingConfig(**{field: value})
        with pytest.raises(ValueError, match=field):
            LocalTrainingConfig.from_dict({**LocalTrainingConfig().to_dict(), field: value})

    def test_zero_weight_decay_is_valid(self):
        assert LocalTrainingConfig(weight_decay=0.0).weight_decay == 0.0


class TestSimulatedClient:
    def make_client(self, dataset, class_name="strong"):
        profile = DeviceProfile(client_id=0, device_class=DEFAULT_DEVICE_CLASSES[class_name])
        config = LocalTrainingConfig(local_epochs=1, batch_size=16, max_batches_per_epoch=2)
        return SimulatedClient(0, dataset, profile, config)

    def test_empty_client_rejected(self, tiny_pool, client_dataset):
        empty = client_dataset.subset(np.array([], dtype=int))
        with pytest.raises(ValueError):
            self.make_client(empty)
