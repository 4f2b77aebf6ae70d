"""Dataset-synthesis goldens: the four ``make_*_like`` builders, bit for bit.

``golden/synthesis.json`` holds the hashes of the images, labels and group
ids of both splits of every builder at two sizes — one whose splits are
whole multiples of 1024 samples and one whose splits are not — so a
change to *how* a split is filled (in one piece, in blocks) cannot move a
single bit of *what* it is filled with: the same ``Generator`` sequence,
the same float64 arithmetic, the same cast to the stack dtype.

The fixture was generated on the commit that still drew a whole split's
noise in one call.  Regenerate only for a deliberate change of the data:
``PYTHONPATH=src python tests/data/test_synthesis_goldens.py``.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.data.datasets import make_cifar10_like, make_cifar100_like, make_femnist_like, make_widar_like
from repro.store.objects import sha256_hex

GOLDEN_PATH = Path(__file__).parent / "golden" / "synthesis.json"
BUILDERS = {
    "cifar10": make_cifar10_like,
    "cifar100": make_cifar100_like,
    "femnist": make_femnist_like,
    "widar": make_widar_like,
}
#: (train_samples, test_samples): whole blocks of 1024, and a ragged tail on both splits
SIZES = {"whole_blocks": (2048, 1024), "ragged": (1300, 1100)}
CASES = [(builder, size) for builder in BUILDERS for size in SIZES]


def split_hashes(dataset):
    return {
        "shape": list(dataset.images.shape),
        "dtype": dataset.images.dtype.str,
        "images": sha256_hex(np.ascontiguousarray(dataset.images).tobytes()),
        "labels": sha256_hex(np.ascontiguousarray(dataset.labels).tobytes()),
        "groups": None if dataset.groups is None else sha256_hex(np.ascontiguousarray(dataset.groups).tobytes()),
    }


def synthesis_case(builder, size):
    train_samples, test_samples = SIZES[size]
    train, test = BUILDERS[builder](train_samples=train_samples, test_samples=test_samples, image_size=8, seed=5)
    return {"train": split_hashes(train), "test": split_hashes(test)}


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("builder,size", CASES)
def test_synthesised_data_is_bit_identical(goldens, builder, size):
    assert synthesis_case(builder, size) == goldens[f"{builder}-{size}"]


def test_grouped_builders_pin_their_group_ids(goldens):
    for size in SIZES:
        assert goldens[f"cifar10-{size}"]["train"]["groups"] is None
        assert goldens[f"femnist-{size}"]["train"]["groups"] is not None
        assert goldens[f"widar-{size}"]["test"]["groups"] is not None


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    payload = {f"{builder}-{size}": synthesis_case(builder, size) for builder, size in CASES}
    GOLDEN_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(payload)} cases to {GOLDEN_PATH}", file=sys.stderr)
