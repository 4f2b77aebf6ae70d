"""Every shipped rule against its violating / clean / suppressed fixtures."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.engine import lint_paths
from repro.analysis.registry import available_rules

FIXTURES = Path(__file__).parent / "fixtures"

#: rule -> (fixture dir, paths relative to it, expected minimum findings in bad)
CASES = {
    "RPL001": ("rpl001", [""], 5),
    "RPL002": ("rpl002", ["repro/nn"], 3),
    "RPL003": ("rpl003", [""], 3),
    "RPL004": ("rpl004", [""], 2),
    "RPL005": ("rpl005", [""], 3),
    "RPL006": ("rpl006", ["repro/store"], 3),
    "RPL007": ("rpl007", [""], 1),
    "RPL008": ("rpl008", [""], 1),
}


def _lint_fixture(code: str, name: str):
    fixture_dir, subdirs, _ = CASES[code]
    root = FIXTURES / fixture_dir
    paths = [root / sub / name if sub else root / name for sub in subdirs]
    return lint_paths(paths, rules=[code], relative_to=root)


@pytest.mark.parametrize("code", sorted(CASES))
class TestEveryRule:
    def test_bad_fixture_is_flagged(self, code):
        _, _, minimum = CASES[code]
        result = _lint_fixture(code, "bad.py")
        assert len(result.findings) >= minimum
        assert {f.code for f in result.findings} == {code}
        assert all(f.line > 0 and f.message for f in result.findings)

    def test_clean_fixture_passes(self, code):
        result = _lint_fixture(code, "clean.py")
        assert result.clean, [f.location() for f in result.findings]

    def test_suppressed_fixture_is_counted(self, code):
        result = _lint_fixture(code, "suppressed.py")
        assert result.clean, [f.location() for f in result.findings]
        assert result.suppressed >= 1


class TestScopesAndExemptions:
    def test_rpl002_ignores_files_outside_its_scopes(self):
        root = FIXTURES / "rpl002"
        result = lint_paths([root / "outside" / "bad.py"], rules=["RPL002"], relative_to=root)
        assert result.clean

    def test_rpl006_exempts_the_atomic_write_module(self):
        root = FIXTURES / "rpl006"
        result = lint_paths([root / "repro" / "store" / "objects.py"], rules=["RPL006"], relative_to=root)
        assert result.clean

    def test_rpl006_flags_raw_descriptor_writes(self):
        root = FIXTURES / "rpl006" / "repro" / "store"
        bad = lint_paths([root / "bad_descriptor.py"], rules=["RPL006"], relative_to=root.parents[1])
        # every os.open (write, dynamic and read-only flags alike), os.write, writev
        assert sorted(f.line for f in bad.findings) == [7, 8, 13, 14, 19]
        clean = lint_paths([root / "clean_descriptor.py"], rules=["RPL006"], relative_to=root.parents[1])
        assert clean.clean, [f.location() for f in clean.findings]

    def test_rpl001_exempts_the_telemetry_clock_shim(self):
        root = FIXTURES / "rpl001"
        result = lint_paths([root / "repro" / "obs" / "clock.py"], rules=["RPL001"], relative_to=root)
        assert result.clean


class TestProjectWidePasses:
    def test_rpl007_flags_duplicate_registration_names(self):
        root = FIXTURES / "rpl007"
        result = lint_paths([root / "dup_a.py", root / "dup_b.py"], rules=["RPL007"], relative_to=root)
        duplicates = [f for f in result.findings if "also registered" in f.message]
        assert len(duplicates) == 1
        assert duplicates[0].path == "dup_b.py"
        assert "dup_a.py" in duplicates[0].message

    def test_rpl007_unique_names_pass(self):
        root = FIXTURES / "rpl007"
        result = lint_paths([root / "dup_a.py"], rules=["RPL007"], relative_to=root)
        assert result.clean


class TestRuleCatalogue:
    def test_all_eight_rules_registered(self):
        codes = [spec.code for spec in available_rules()]
        assert codes == [f"RPL00{i}" for i in range(1, 9)]

    def test_specs_are_fully_described(self):
        for spec in available_rules():
            assert spec.name and spec.summary and spec.rationale
