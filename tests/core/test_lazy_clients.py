"""Clients on first touch: a fleet costs the clients a run dispatches to.

``FederatedAlgorithm.clients`` reads like the list it used to be, but a
client — and the shard ``Dataset.subset`` cuts out of the training set
for it — exists only once something indexes it.  The complexity guard
keeps the per-fleet construction walk from coming back.
"""

import numpy as np
import pytest

from repro.baselines import HeteroFL
from repro.core.client import LazyClients, SimulatedClient
from repro.core.config import AdaptiveFLConfig, FederatedConfig, LocalTrainingConfig, ModelPoolConfig
from repro.core.server import AdaptiveFL
from repro.data.datasets import Dataset
from repro.data.partition import ClientPartition, iid_partition
from repro.devices.profiles import build_device_profiles
from repro.devices.resources import ResourceModel
from repro.nn.models import SlimmableSimpleCNN

FLEET = 20_000
ALGORITHMS = {"adaptivefl": AdaptiveFL, "heterofl": HeteroFL}


@pytest.fixture(scope="module")
def fleet_setup():
    """20 000 clients with one sample each (the construction cost is per client, not per sample)."""
    arch = SlimmableSimpleCNN(num_classes=4, input_shape=(1, 8, 8), width_multiplier=0.5, hidden_features=16)
    rng = np.random.default_rng(0)
    train = Dataset(rng.normal(size=(FLEET, 1, 8, 8)), rng.integers(0, 4, size=FLEET), 4)
    test = Dataset(rng.normal(size=(40, 1, 8, 8)), rng.integers(0, 4, size=40), 4)
    profiles = build_device_profiles(FLEET, "4:3:3", rng)
    return dict(
        architecture=arch,
        train_dataset=train,
        partition=iid_partition(train, FLEET, rng),
        test_dataset=test,
        profiles=profiles,
        resource_model=ResourceModel(profiles, arch.parameter_count(), uncertainty=0.1, seed=0),
    )


def build(name, setup, **overrides):
    pool = ModelPoolConfig(models_per_level=3, start_layers=(2, 2, 1), min_start_layer=1)
    federated = FederatedConfig(num_rounds=3, clients_per_round=6, eval_every=3)
    local = LocalTrainingConfig(local_epochs=1, batch_size=1, max_batches_per_epoch=1)
    kwargs = dict(setup, federated_config=federated, local_config=local, seed=1, **overrides)
    if name == "adaptivefl":
        kwargs.update(pool_config=pool, algorithm_config=AdaptiveFLConfig(federated=federated, local=local, pool=pool))
    return ALGORITHMS[name](**kwargs)


@pytest.fixture
def subset_calls(monkeypatch):
    calls = []
    subset = Dataset.subset

    def counting(self, indices):
        calls.append(len(indices))
        return subset(self, indices)

    monkeypatch.setattr(Dataset, "subset", counting)
    return calls


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
class TestComplexityGuard:
    def test_construction_cuts_no_shard(self, name, fleet_setup, subset_calls):
        algorithm = build(name, fleet_setup)
        assert algorithm.num_clients == len(algorithm.clients) == FLEET
        assert subset_calls == []

    def test_a_run_cuts_one_shard_per_distinct_selected_client(self, name, fleet_setup, subset_calls):
        algorithm = build(name, fleet_setup)
        history = algorithm.run()
        selected = [client for record in history.records for client in record.selected_clients]
        assert len(history.records) == 3 and len(selected) == 18
        assert len(subset_calls) == len(set(selected))
        # a client selected again is the same object with the same shard
        again = algorithm.clients[selected[0]]
        assert again is algorithm.clients[selected[0]] and again.client_id == selected[0]
        assert len(subset_calls) == len(set(selected))


class TestReadsLikeTheList:
    @pytest.fixture
    def clients(self, tiny_cnn, tiny_federated_setup, fast_configs):
        algorithm = AdaptiveFL(
            architecture=tiny_cnn,
            train_dataset=tiny_federated_setup["train"],
            partition=tiny_federated_setup["partition"],
            test_dataset=tiny_federated_setup["test"],
            profiles=tiny_federated_setup["profiles"],
            resource_model=tiny_federated_setup["resource_model"],
            algorithm_config=fast_configs["adaptive"],
        )
        return algorithm.clients

    def test_len_index_and_negative_index(self, clients, tiny_federated_setup):
        assert isinstance(clients, LazyClients) and len(clients) == 8
        assert clients[3].client_id == 3 and clients[3] is clients[3]
        assert clients[-1] is clients[7] and clients[-8] is clients[0]
        assert clients[np.int64(2)] is clients[2]
        assert clients[5].num_samples == tiny_federated_setup["partition"].sizes()[5]
        assert clients[5].profile is tiny_federated_setup["profiles"][5]

    @pytest.mark.parametrize("index", [8, -9, 10**6])
    def test_out_of_range_raises_index_error(self, clients, index):
        with pytest.raises(IndexError):
            clients[index]
        with pytest.raises(IndexError):
            list(range(8))[index]

    def test_a_non_integer_index_raises_type_error(self, clients):
        with pytest.raises(TypeError):
            clients["3"]
        with pytest.raises(TypeError):
            clients[1.0]

    def test_iteration_and_membership(self, clients):
        walked = list(clients)
        assert [client.client_id for client in walked] == list(range(8))
        assert all(isinstance(client, SimulatedClient) for client in walked)
        assert walked == list(clients) and walked[::-1] == list(reversed(clients))
        assert clients[4] in clients and clients.index(clients[6]) == 6


class TestEmptyShard:
    def test_refused_at_construction_naming_the_client(self, tiny_cnn, tiny_federated_setup, fast_configs, subset_calls):
        indices = [np.array(shard) for shard in tiny_federated_setup["partition"].client_indices]
        indices[5] = np.array([], dtype=np.int64)
        with pytest.raises(ValueError, match="client 5 has no local data"):
            AdaptiveFL(
                architecture=tiny_cnn,
                train_dataset=tiny_federated_setup["train"],
                partition=ClientPartition(indices),
                test_dataset=tiny_federated_setup["test"],
                profiles=tiny_federated_setup["profiles"],
                resource_model=tiny_federated_setup["resource_model"],
                algorithm_config=fast_configs["adaptive"],
            )
        assert subset_calls == []
