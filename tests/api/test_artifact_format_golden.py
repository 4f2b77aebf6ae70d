"""Format golden: the bytes ``repro compare`` writes, pinned by SHA-256.

A fixed 2-round ``ci`` comparison of HeteroFL and AdaptiveFL under the
``flaky_edge`` scenario writes two histories, ``summary.json`` and
``spec.json``.  Their hashes are pinned in ``golden/compare_artifacts.json``,
so a change to any payload's keys, values or key order — a config,
scenario, setting, spec or round record — shows here as a changed file.

Regenerate only for a deliberate format change:
``PYTHONPATH=src python tests/api/test_artifact_format_golden.py``.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from repro.api.cli import main

GOLDEN_PATH = Path(__file__).parent / "golden" / "compare_artifacts.json"
ARGV = [
    "compare", "--algorithms", "heterofl", "adaptivefl", "--scale", "ci", "--rounds", "2",
    "--scenario", "flaky_edge", "--quiet",
]


def artifact_hashes(out_dir: Path) -> dict[str, str]:
    """Run the pinned comparison into ``out_dir``; SHA-256 of every file it wrote."""
    assert main([*ARGV, "--output-dir", str(out_dir)]) == 0
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in sorted(out_dir.iterdir())}


def test_compare_artifacts_match_golden(tmp_path):
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert artifact_hashes(tmp_path) == golden


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        hashes = artifact_hashes(Path(scratch))
    GOLDEN_PATH.write_text(json.dumps(hashes, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(hashes)} hashes to {GOLDEN_PATH}", file=sys.stderr)
