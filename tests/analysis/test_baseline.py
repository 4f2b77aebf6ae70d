"""Baseline semantics: grandfathering, multiset matching, drift both ways."""

from __future__ import annotations

import json

import pytest

from repro.analysis.baseline import Baseline
from repro.analysis.findings import Finding


def _finding(message="m", line=3, code="RPL005", path="a.py"):
    return Finding(path=path, line=line, column=0, code=code, message=message)


class TestRoundTrip:
    def test_save_load(self, tmp_path):
        baseline = Baseline.from_findings([_finding(), _finding(message="other")])
        target = tmp_path / "baseline.json"
        baseline.save(target)
        loaded = Baseline.load(target)
        assert loaded.entries == baseline.entries
        payload = json.loads(target.read_text())
        assert payload["schema_version"] == 1
        assert payload["tool"] == "reprolint"

    def test_unknown_schema_version_rejected(self, tmp_path):
        target = tmp_path / "baseline.json"
        target.write_text(json.dumps({"schema_version": 99, "entries": []}))
        with pytest.raises(ValueError, match="schema_version"):
            Baseline.load(target)

    def test_entry_missing_keys_rejected(self, tmp_path):
        target = tmp_path / "baseline.json"
        target.write_text(json.dumps({"schema_version": 1, "entries": [{"code": "RPL005"}]}))
        with pytest.raises(ValueError, match="missing keys"):
            Baseline.load(target)


class TestMatching:
    def test_baselined_findings_are_not_new(self):
        baseline = Baseline.from_findings([_finding()])
        match = baseline.match([_finding(line=99)])  # moved, same fingerprint
        assert not match.new and not match.stale
        assert len(match.baselined) == 1

    def test_new_finding_is_drift(self):
        match = Baseline.from_findings([_finding()]).match([_finding(), _finding(message="fresh")])
        assert [f.message for f in match.new] == ["fresh"]

    def test_stale_entry_is_drift(self):
        match = Baseline.from_findings([_finding(), _finding(message="fixed")]).match([_finding()])
        assert not match.new
        assert [entry["message"] for entry in match.stale] == ["fixed"]

    def test_multiset_semantics(self):
        # two identical findings need two entries; fixing one shows as stale
        pair = [_finding(line=1), _finding(line=2)]
        baseline = Baseline.from_findings(pair)
        match = baseline.match(pair[:1])
        assert not match.new
        assert len(match.baselined) == 1
        assert len(match.stale) == 1

    def test_empty_baseline_passes_everything_through(self):
        match = Baseline().match([_finding()])
        assert len(match.new) == 1 and not match.stale
