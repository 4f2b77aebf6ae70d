"""``Skeleton.load``: the set-up of a stacked pass, read off the skeleton's flat lists.

Loading a slice into a model checked out for K clients must write exactly
what ``Module.load_state_dict`` of K-fold broadcast views wrote — every
parameter and batch-norm buffer, a ``float64`` slice cast into ``float32``
stacks — and refuse, by name, a state with a tensor missing, extra or of
the wrong shape.  The skeleton's lists also give the optimiser its
parameters, the training mode and the trained stacks, in the order the
module tree walks give them.
"""

import numpy as np
import pytest

from repro.nn.models import create_architecture
from repro.nn.module import Skeleton

CLIENTS = 3


def architecture():
    return create_architecture("resnet18", num_classes=4, input_shape=(3, 16, 16), width_multiplier=0.25)


def slice_of(dtype) -> dict[str, np.ndarray]:
    """A state with distinct values in every parameter and buffer."""
    rng = np.random.default_rng(0)
    shapes = {name: value.shape for name, value in architecture().build().state_dict().items()}
    return {name: rng.standard_normal(shape).astype(dtype) for name, shape in shapes.items()}


def broadcast_load(state) -> dict[str, np.ndarray]:
    """The stacks ``load_state_dict`` of K-fold broadcast views leaves."""
    skeleton = Skeleton(architecture().build())
    model = skeleton.check_out(list(range(CLIENTS)))
    model.load_state_dict({name: np.broadcast_to(value, (CLIENTS, *value.shape)) for name, value in state.items()})
    loaded = model.state_dict()
    skeleton.check_in()
    return loaded


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64-into-float32"])
def test_the_rows_are_what_broadcast_views_load(dtype):
    skeleton = Skeleton(architecture().build())
    state = slice_of(dtype)
    assert any("running" in name for name in state), "the model needs batch-norm buffers"
    model = skeleton.check_out(list(range(CLIENTS)))
    skeleton.load(state)
    loaded = model.state_dict()
    expected = broadcast_load(state)
    assert list(loaded) == list(expected) == list(state)
    for name, value in expected.items():
        assert loaded[name].shape == (CLIENTS, *state[name].shape) and loaded[name].dtype == np.float32
        assert loaded[name].tobytes() == value.tobytes(), name
    skeleton.check_in()


def test_the_lists_are_the_tree_walks():
    skeleton = Skeleton(architecture().build())
    model = skeleton.check_out([0, 1])
    model.eval()
    assert skeleton.train() is model
    assert all(module.training for module in model.modules())
    assert skeleton.parameters() == list(model.parameters())
    tensors = skeleton.tensors()
    walked = [(name, param.data) for name, param in model.named_parameters()] + list(model.named_buffers())
    assert list(tensors) == [name for name, _ in walked]
    assert all(tensors[name] is value for name, value in walked)
    skeleton.check_in()


@pytest.mark.parametrize("defect", ["missing", "extra", "misshapen-parameter", "misshapen-buffer"])
def test_a_state_that_does_not_fit_is_refused_by_name(defect):
    skeleton = Skeleton(architecture().build())
    state = slice_of(np.float32)
    skeleton.check_out([0, 1])
    parameter = next(iter(dict(skeleton.model.named_parameters())))
    buffer = next(name for name, _ in skeleton.model.named_buffers())
    if defect == "missing":
        del state[buffer]
        error, match = KeyError, rf"missing=\['{buffer}'\], unexpected=\[\]"
    elif defect == "extra":
        state["ghost.weight"] = np.zeros(3, dtype=np.float32)
        error, match = KeyError, r"missing=\[\], unexpected=\['ghost.weight'\]"
    else:
        name = parameter if defect == "misshapen-parameter" else buffer
        state[name] = state[name][:1]
        error, match = ValueError, rf"shape mismatch for '{name}'"
    with pytest.raises(error, match=match):
        skeleton.load(state)
    skeleton.check_in()
