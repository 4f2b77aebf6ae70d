"""Format golden: the checkpoint file a stored run writes, pinned by SHA-256.

Two ``ci`` runs checkpoint every round into a fresh store:

* ``adaptivefl`` under ``flaky_edge`` with the ``topk`` codec for 3 rounds,
  whose checkpoints carry every state part the base algorithm and AdaptiveFL
  own: the RL tables (``rl/``), the fleet (``fleet``) and the per-client
  error-feedback residuals (``codec/``);
* ``decoupled`` for 2 rounds, whose checkpoints carry the per-level weight
  streams (``stream/``).

The SHA-256 of each run's last checkpoint file is pinned in
``golden/checkpoint_manifests.json``.  The file holds every array's bytes
and the JSON state in insertion order, so a changed key, array, value or
order shows here — and a checkpoint written by an older build would no
longer resume.

Regenerate only for a deliberate format change:
``PYTHONPATH=src python tests/store/regen_golden.py``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.api.cli import main

GOLDEN_PATH = Path(__file__).parent / "golden" / "checkpoint_manifests.json"
RUNS = {
    "adaptivefl-flaky_edge-topk": [
        "--algorithm", "adaptivefl", "--scenario", "flaky_edge", "--transport-codec", "topk", "--rounds", "3",
    ],
    "decoupled": ["--algorithm", "decoupled", "--rounds", "2"],
}


def last_checkpoint_hash(name: str, out_dir: Path) -> str:
    """Run ``RUNS[name]`` into a store under ``out_dir``; SHA-256 of its last checkpoint file."""
    store = out_dir / "store"
    argv = ["run", *RUNS[name], "--scale", "ci", "--quiet", "--store", str(store), "--output-dir", str(out_dir / "out")]
    assert main(argv) == 0
    (checkpoint,) = sorted(store.glob("runs/*/checkpoints/*.ckpt"))[-1:]
    return hashlib.sha256(checkpoint.read_bytes()).hexdigest()


def checkpoint_hashes(out_dir: Path) -> dict[str, str]:
    return {name: last_checkpoint_hash(name, out_dir / name) for name in RUNS}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_checkpoint_file_matches_golden(name, tmp_path):
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert last_checkpoint_hash(name, tmp_path) == golden[name]
