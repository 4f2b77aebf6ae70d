"""Stacked training: K clients in one pass, each bit-identical to training alone.

A model checked out of a :class:`~repro.nn.module.Skeleton` for K clients
holds every tensor as a ``(K, *shape)`` stack and trains on the clients'
``K·N`` samples, client-major.  For every row of the training-step goldens,
at K = 1, 2 and 3 and both golden batch sizes, three SGD steps of the
stack must leave each client with exactly what three steps of that client
alone leave: the weights, the batch-norm buffers, the last gradients and
every loss, bit for bit.  Each client starts from its own weights and sees
its own data, so a kernel that mixed clients — a reduction over the client
axis, a GEMM across it — cannot pass by accident.
"""

from functools import lru_cache

import numpy as np
import pytest

from repro.nn.layers import Dropout
from repro.nn.losses import CrossEntropyLoss
from repro.nn.models import SlimmableVGG, create_architecture
from repro.nn.module import Skeleton
from repro.nn.optim import SGD
from test_training_step_goldens import BATCH_SIZES, NUM_CLASSES, ROWS, STEPS

CLIENTS = (1, 2, 3)


def architecture(row: str):
    name, input_shape, extra = ROWS[row]
    return create_architecture(name, num_classes=NUM_CLASSES, input_shape=input_shape, width_multiplier=0.25, **extra)


def client_data(row: str, batch: int, client: int):
    input_shape = ROWS[row][1]
    rng = np.random.default_rng([1, client])
    images = rng.normal(size=(STEPS, batch, *input_shape)).astype(np.float32)
    return images, rng.integers(0, NUM_CLASSES, size=(STEPS, batch))


def snapshot(model, losses):
    return {
        "state": model.state_dict(),
        "grads": {name: param.grad.copy() for name, param in model.named_parameters()},
        "losses": losses,
    }


@lru_cache(maxsize=None)
def alone(row: str, batch: int, client: int) -> dict:
    """Three SGD steps of one client, as the training-step goldens take them."""
    model = architecture(row).build(rng=np.random.default_rng([0, client]))
    model.train()
    images, labels = client_data(row, batch, client)
    optimizer = SGD(model.parameters(), lr=0.01, momentum=0.5, weight_decay=1e-4)
    loss_fn = CrossEntropyLoss()
    losses = []
    for step in range(STEPS):
        optimizer.zero_grad()
        losses.append(loss_fn(model(images[step]), labels[step]).hex())
        model.backward(loss_fn.backward(), input_grad=False)
        optimizer.step()
    return snapshot(model, losses)


def stacked(row: str, batch: int, clients: int) -> list[dict]:
    """The same three steps of clients ``0..clients-1`` as one stacked pass."""
    arch = architecture(row)
    starts = [arch.build(rng=np.random.default_rng([0, client])).state_dict() for client in range(clients)]
    skeleton = Skeleton(arch.build())
    model = skeleton.check_out(list(range(clients)))
    model.load_state_dict({name: np.stack([start[name] for start in starts]) for name in starts[0]})
    model.train()
    data = [client_data(row, batch, client) for client in range(clients)]
    optimizer = SGD(model.parameters(), lr=0.01, momentum=0.5, weight_decay=1e-4)
    loss_fn = CrossEntropyLoss()
    losses = []
    for step in range(STEPS):
        optimizer.zero_grad()
        images = np.concatenate([images[step] for images, _ in data])
        step_losses = loss_fn(model(images), np.stack([labels[step] for _, labels in data]))
        assert step_losses.shape == (clients,)
        losses.append([float(loss).hex() for loss in step_losses])
        model.backward(loss_fn.backward(), input_grad=False)
        optimizer.step()
    state = model.state_dict()
    grads = {name: param.grad for name, param in model.named_parameters()}
    skeleton.check_in()
    return [
        {
            "state": {name: value[client] for name, value in state.items()},
            "grads": {name: value[client] for name, value in grads.items()},
            "losses": [step_losses[client] for step_losses in losses],
        }
        for client in range(clients)
    ]


def assert_same_bytes(ours: dict, theirs: dict) -> None:
    assert list(ours) == list(theirs)
    for name, value in theirs.items():
        assert ours[name].shape == value.shape and ours[name].dtype == value.dtype, name
        assert ours[name].tobytes() == value.tobytes(), name


@pytest.mark.parametrize("clients", CLIENTS)
@pytest.mark.parametrize("batch", BATCH_SIZES)
@pytest.mark.parametrize("row", list(ROWS))
def test_each_client_of_a_stack_trains_as_it_would_alone(row, batch, clients):
    for client, result in enumerate(stacked(row, batch, clients)):
        expected = alone(row, batch, client)
        assert result["losses"] == expected["losses"], client
        assert_same_bytes(result["state"], expected["state"])
        assert_same_bytes(result["grads"], expected["grads"])


def dropout_vgg():
    return SlimmableVGG(
        config="vgg11", num_classes=4, input_shape=(3, 32, 32), width_multiplier=0.1,
        classifier_widths=(16, 16), dropout=0.5,
    )


class TestDropout:
    def test_forward_and_backward_keep_float32(self):
        model = dropout_vgg().build(rng=np.random.default_rng(0))
        model.train()
        logits = model(np.random.default_rng(1).normal(size=(2, 3, 32, 32)).astype(np.float32))
        assert logits.dtype == np.float32
        assert model.backward(np.ones_like(logits)).dtype == np.float32
        layer = Dropout(0.25, rng=np.random.default_rng(2))
        x = np.ones((4, 8), np.float32)
        out = layer(x)
        assert out.dtype == np.float32 and layer.backward(x).dtype == np.float32
        assert set(np.unique(out).tolist()) <= {0.0, float(np.float32(1) / np.float32(0.75))}

    def test_each_clients_mask_is_its_own_stream(self):
        seeds = [11, 12, 13]
        skeleton = Skeleton(dropout_vgg().build())
        model = skeleton.check_out(seeds)
        places = [index for index, module in enumerate(model.modules()) if isinstance(module, Dropout)]
        layers = [module for module in model.modules() if isinstance(module, Dropout)]
        assert len(layers) == 2
        model.train()
        x = np.ones((len(seeds) * 5, 16), np.float32)
        for place, layer in zip(places, layers):
            layer(x)
            for client, seed in enumerate(seeds):
                rows = layer._mask[client * 5 : (client + 1) * 5]
                kept = np.random.default_rng([seed, place]).random((5, 16)) < 0.5
                assert np.array_equal(rows != 0, kept), (place, client)
        skeleton.check_in()
