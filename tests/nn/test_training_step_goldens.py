"""Training-step goldens: three SGD steps on every zoo architecture, bit for bit.

``golden/training_steps.json`` pins, for each architecture / input row at
two batch sizes (one odd), the hash of the state dict (weights *and*
batch-norm buffers), the hash of every parameter's gradient after the
last backward, and each step's loss as ``float.hex()`` — through the
calls :func:`repro.core.local_training.train_local_model` makes
(``backward(..., input_grad=False)``).  A kernel in ``repro.nn`` may
change how it computes, never what: the run-level goldens elsewhere only
ever train ``simple_cnn``, so a change that moved MobileNetV2's bits (its
depthwise convolution hands ``BatchNorm2d`` a channel-major array) used
to pass the whole suite.

The fixture was generated on the commit that still pooled through a
patch gather + ``argmax`` and normalised through ``x.mean`` / ``x.var``.
Regenerate only for a deliberate change of the arithmetic:
``PYTHONPATH=src python tests/nn/test_training_step_goldens.py``.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.nn.losses import CrossEntropyLoss
from repro.nn.models import create_architecture
from repro.nn.optim import SGD

GOLDEN_PATH = Path(__file__).parent / "golden" / "training_steps.json"
NUM_CLASSES = 10
STEPS = 3
#: row -> (registry name, input shape, extra constructor arguments); every
#: row builds at width_multiplier=0.25, VGG with a classifier narrow enough
#: that the suite's time goes to the layers this file is about
VGG_HEAD = {"classifier_widths": (512, 512)}
ROWS = {
    "simple_cnn-3x16x16": ("simple_cnn", (3, 16, 16), {}),
    "simple_cnn-1x28x28": ("simple_cnn", (1, 28, 28), {}),
    "vgg11-3x32x32": ("vgg11", (3, 32, 32), VGG_HEAD),
    "vgg16-3x32x32": ("vgg16", (3, 32, 32), VGG_HEAD),
    "resnet18-3x16x16": ("resnet18", (3, 16, 16), {}),
    "mobilenetv2-1x16x16": ("mobilenetv2", (1, 16, 16), {}),
}
BATCH_SIZES = (8, 3)
CASES = [(row, batch) for row in ROWS for batch in BATCH_SIZES]


def digest(named_arrays) -> str:
    """One sha256 over ``name, shape, dtype, bytes`` of every array in order."""
    sha = hashlib.sha256()
    for name, array in named_arrays:
        sha.update(f"{name}{array.shape}{array.dtype.str}".encode())
        sha.update(np.ascontiguousarray(array).tobytes())
    return sha.hexdigest()


def training_case(row: str, batch: int) -> dict:
    name, input_shape, extra = ROWS[row]
    architecture = create_architecture(
        name, num_classes=NUM_CLASSES, input_shape=input_shape, width_multiplier=0.25, **extra
    )
    model = architecture.build(rng=np.random.default_rng(0))
    model.train()
    data_rng = np.random.default_rng(1)
    images = data_rng.normal(size=(STEPS, batch, *input_shape)).astype(np.float32)
    labels = data_rng.integers(0, NUM_CLASSES, size=(STEPS, batch))

    optimizer = SGD(model.parameters(), lr=0.01, momentum=0.5, weight_decay=1e-4)
    loss_fn = CrossEntropyLoss()
    losses = []
    for step in range(STEPS):
        optimizer.zero_grad()
        losses.append(loss_fn(model(images[step]), labels[step]).hex())
        model.backward(loss_fn.backward(), input_grad=False)
        optimizer.step()
    return {
        "state": digest(model.state_dict().items()),
        "grads": digest((param_name, param.grad) for param_name, param in model.named_parameters()),
        "losses": losses,
    }


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("row,batch", CASES)
def test_three_sgd_steps_are_bit_identical(goldens, row, batch):
    assert training_case(row, batch) == goldens[f"{row}-b{batch}"]


def test_the_fixture_covers_every_row_and_nothing_else(goldens):
    assert sorted(goldens) == sorted(f"{row}-b{batch}" for row, batch in CASES)


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    payload = {f"{row}-b{batch}": training_case(row, batch) for row, batch in CASES}
    GOLDEN_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(payload)} cases to {GOLDEN_PATH}", file=sys.stderr)
