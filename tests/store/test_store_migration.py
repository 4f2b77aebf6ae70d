"""Stores this build cannot read are refused as CLI errors, and left as they are.

A store written before checkpoints became single files (store schema 1:
``store.json`` v1, array blobs under ``objects/``, JSON manifests) has no
reader here.  ``repro report``, ``repro run --resume`` and ``repro sweep``
must each refuse it with ``error: …`` and exit code 2 — not a traceback —
and change none of its bytes; a corrupt checkpoint under ``--resume`` is
refused the same way, by name.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.api.cli import main

RUN = ["run", "--algorithm", "heterofl", "--scale", "ci", "--rounds", "2", "--quiet"]

COMMANDS = {
    "report": ["report"],
    "run --resume": [*RUN, "--resume", "--output-dir", "{tmp}/out"],
    "sweep": ["sweep", "--algorithms", "heterofl", "--seeds", "0", "--scale", "ci", "--rounds", "2", "--quiet"],
}


def write_v1_store(root: Path) -> dict[str, bytes | None]:
    """A schema-1 store as an earlier build left it; returns every file's bytes."""
    digest = "ab" * 32
    files = {
        "store.json": json.dumps({"schema_version": 1}) + "\n",
        f"objects/{digest[:2]}/{digest}": "\x93NUMPY blob",
        "runs/0123456789abcdef/run.json": json.dumps({"schema_version": 1, "run_id": "0123456789abcdef",
                                                      "key": {}, "status": "running", "stop_reason": None}),
        "runs/0123456789abcdef/checkpoints/round_000000.json": json.dumps(
            {"schema_version": 1, "arrays": {"global/w": {"ref": digest}}, "checksum": "0" * 64}
        ),
    }
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    return snapshot(root)


def snapshot(root: Path) -> dict[str, bytes | None]:
    """Every path under ``root``: a file's bytes, None for a directory."""
    return {str(path.relative_to(root)): path.read_bytes() if path.is_file() else None for path in root.rglob("*")}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_a_v1_store_is_refused_and_left_alone(tmp_path, capsys, command):
    store = tmp_path / "store"
    before = write_v1_store(store)
    argv = [arg.format(tmp=tmp_path) for arg in COMMANDS[command]] + ["--store", str(store)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: store at") and "schema version 1" in err, err
    assert "Traceback" not in err
    assert snapshot(store) == before


def test_a_corrupt_checkpoint_under_resume_is_refused_by_name(tmp_path, capsys):
    store = tmp_path / "store"
    assert main([*RUN, "--store", str(store), "--output-dir", str(tmp_path / "out")]) == 0
    # the crash lost the completion marker: --resume must load the latest checkpoint
    [run_dir] = (store / "runs").iterdir()
    entry = json.loads((run_dir / "run.json").read_text())
    (run_dir / "run.json").write_text(json.dumps({**entry, "status": "running"}))
    (run_dir / "history.json").unlink()
    latest = sorted((run_dir / "checkpoints").iterdir())[-1]
    data = bytearray(latest.read_bytes())
    data[len(data) // 2] ^= 0xFF
    latest.write_bytes(bytes(data))
    capsys.readouterr()

    assert main([*RUN, "--store", str(store), "--resume", "--output-dir", str(tmp_path / "resumed")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: checkpoint") and latest.name in err and "corrupt" in err, err
    assert "Traceback" not in err
