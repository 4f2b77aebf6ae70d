"""Regenerate the store's format goldens after an intentional format change.

Usage::

    PYTHONPATH=src python tests/store/regen_golden.py

Rewrites ``tests/store/golden/report.md`` and
``tests/store/golden/checkpoint_manifests.json``.  Review their diff before
committing — the golden tests exist to catch *unintentional* format drift.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from store import test_checkpoint_format_golden as checkpoint_golden  # noqa: E402
from store.test_sweep_report import GOLDEN_PATH, make_fixture_store  # noqa: E402

from repro.store.report import generate_report  # noqa: E402


def main() -> None:
    """Rebuild the fixture store and the pinned runs in a temp dir and rewrite the golden files."""
    with tempfile.TemporaryDirectory() as tmp:
        store = make_fixture_store(Path(tmp) / "store")
        bundle = generate_report(store, title="Golden fixture report")
    golden = Path(__file__).resolve().parents[2] / GOLDEN_PATH
    golden.parent.mkdir(parents=True, exist_ok=True)
    golden.write_text(bundle.markdown, encoding="utf-8")
    print(f"wrote {golden} ({len(bundle.markdown.splitlines())} lines)")
    with tempfile.TemporaryDirectory() as tmp:
        hashes = checkpoint_golden.checkpoint_hashes(Path(tmp))
    checkpoint_golden.GOLDEN_PATH.write_text(json.dumps(hashes, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {checkpoint_golden.GOLDEN_PATH} ({len(hashes)} hashes)")


if __name__ == "__main__":
    main()
