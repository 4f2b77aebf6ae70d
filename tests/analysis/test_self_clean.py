"""The e2e gate: this repository lints clean against its own baseline.

These are the tests the CI ``lint-analysis`` job mirrors.  Drift fails
in both directions: a new finding anywhere under ``src/`` fails, and a
baseline entry that no longer matches a finding fails too — the
baseline can only shrink through honest cleanup.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.baseline import DEFAULT_BASELINE_NAME, Baseline
from repro.analysis.engine import lint_paths

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def repo_match():
    result = lint_paths([REPO_ROOT / "src"], relative_to=REPO_ROOT)
    baseline = Baseline.load(REPO_ROOT / DEFAULT_BASELINE_NAME)
    return result, baseline.match(result.findings)


class TestSelfClean:
    def test_src_has_no_new_findings(self, repo_match):
        _, match = repo_match
        assert not match.new, "\n".join(f.location() + " " + f.message for f in match.new)

    def test_baseline_has_no_stale_entries(self, repo_match):
        _, match = repo_match
        assert not match.stale, [entry["path"] for entry in match.stale]

    def test_baseline_is_rpl005_caches_only(self, repo_match):
        # the only grandfathered findings are the documented per-process
        # caches; anything else belongs fixed, not baselined
        _, match = repo_match
        assert {f.code for f in match.baselined} == {"RPL005"}


class TestDriftFailsBothWays:
    def test_seeded_violation_is_new(self, repo_match, tmp_path):
        result, _ = repo_match
        seeded_src = tmp_path / "repro" / "nn"
        seeded_src.mkdir(parents=True)
        (seeded_src / "seeded.py").write_text(
            "import numpy as np\n\n\ndef alloc(n):\n    return np.zeros(n)\n"
        )
        seeded = lint_paths([tmp_path], relative_to=tmp_path)
        combined = result.findings + seeded.findings
        match = Baseline.load(REPO_ROOT / DEFAULT_BASELINE_NAME).match(combined)
        assert [f.code for f in match.new] == ["RPL002"]

    def test_removed_finding_turns_its_entry_stale(self, repo_match):
        result, _ = repo_match
        baseline = Baseline.load(REPO_ROOT / DEFAULT_BASELINE_NAME)
        survivor = baseline.entries[0]
        trimmed = [
            finding
            for finding in result.findings
            if finding.fingerprint() != (survivor["code"], survivor["path"], survivor["message"])
        ]
        match = baseline.match(trimmed)
        assert not match.new
        assert len(match.stale) >= 1
