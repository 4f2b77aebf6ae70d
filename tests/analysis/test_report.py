"""The JSON report is a published interface: its shape is locked here.

If one of these tests fails, either restore the field or bump
``REPORT_SCHEMA_VERSION`` and document the change in
``docs/guides/lint.md`` — never silently reshape the document.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis.baseline import Baseline
from repro.analysis.engine import lint_paths
from repro.analysis.report import REPORT_SCHEMA_VERSION, render_json, render_text

FIXTURES = Path(__file__).parent / "fixtures"


def _report(baseline: Baseline | None = None):
    result = lint_paths([FIXTURES / "rpl001" / "bad.py"], rules=["RPL001"], relative_to=FIXTURES)
    match = (baseline or Baseline()).match(result.findings)
    return result, match


class TestJsonSchema:
    def test_top_level_shape(self):
        result, match = _report()
        document = json.loads(render_json(result, match))
        assert list(document) == ["schema_version", "tool", "summary", "rules", "findings", "stale_baseline"]
        assert document["schema_version"] == REPORT_SCHEMA_VERSION == 1
        assert document["tool"] == "reprolint"

    def test_summary_shape(self):
        result, match = _report()
        summary = json.loads(render_json(result, match))["summary"]
        assert list(summary) == ["files_scanned", "findings", "baselined", "suppressed", "stale_baseline", "clean"]
        assert summary["files_scanned"] == 1
        assert summary["findings"] == len(match.new) > 0
        assert summary["clean"] is False

    def test_finding_shape(self):
        result, match = _report()
        findings = json.loads(render_json(result, match))["findings"]
        for finding in findings:
            assert list(finding) == ["code", "symbol", "path", "line", "column", "message", "baselined"]
            assert finding["baselined"] is False

    def test_rules_catalogue_covers_every_rule(self):
        result, match = _report()
        rules = json.loads(render_json(result, match))["rules"]
        assert [rule["code"] for rule in rules] == [f"RPL00{i}" for i in range(1, 9)]
        for rule in rules:
            assert list(rule) == ["code", "name", "summary", "scopes", "findings"]

    def test_baselined_findings_marked(self):
        result, _ = _report()
        baseline = Baseline.from_findings(result.findings)
        _, match = _report(baseline)
        document = json.loads(render_json(result, match))
        assert all(finding["baselined"] for finding in document["findings"])
        assert document["summary"]["clean"] is True


class TestTextReport:
    def test_lists_findings_and_summary(self):
        result, match = _report()
        text = render_text(result, match)
        assert "RPL001" in text and "[global-rng]" in text
        assert "1 files scanned" in text

    def test_clean_run_says_so(self):
        result, _ = _report()
        _, match = _report(Baseline.from_findings(result.findings))
        assert "— clean" in render_text(result, match)

    def test_stale_entries_are_reported(self):
        result, _ = _report()
        baseline = Baseline.from_findings(result.findings)
        baseline.entries.append({"code": "RPL001", "path": "gone.py", "message": "fixed ages ago", "line": 1})
        _, match = _report(baseline)
        assert "stale baseline entry" in render_text(result, match)
