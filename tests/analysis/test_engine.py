"""The lint driver: file collection, parse errors, suppressions, scoping."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.engine import lint_paths
from repro.analysis.findings import PARSE_ERROR_CODE, Finding
from repro.analysis.context import FileContext, path_matches

FIXTURES = Path(__file__).parent / "fixtures"


class TestPathMatches:
    def test_contiguous_segments(self):
        assert path_matches("src/repro/nn/functional.py", "repro/nn")
        assert not path_matches("src/repro/nnext/x.py", "repro/nn")

    def test_exact_file(self):
        assert path_matches("src/repro/engine/rng.py", "repro/engine/rng.py")
        assert not path_matches("src/repro/engine/rng_helpers.py", "repro/engine/rng.py")


class TestLintPaths:
    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            lint_paths([tmp_path / "nope"])

    def test_scans_only_python_files(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        (tmp_path / "b.txt").write_text("not python\n")
        (tmp_path / "__pycache__").mkdir()
        (tmp_path / "__pycache__" / "c.py").write_text("x = 1\n")
        result = lint_paths([tmp_path])
        assert result.files_scanned == 1

    def test_duplicate_paths_deduped(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        result = lint_paths([tmp_path, tmp_path / "a.py"])
        assert result.files_scanned == 1

    def test_parse_error_becomes_rpl000(self, tmp_path):
        (tmp_path / "broken.py").write_text("def broken(:\n")
        result = lint_paths([tmp_path])
        assert [f.code for f in result.findings] == [PARSE_ERROR_CODE]
        assert not result.clean

    def test_relative_to_controls_display_paths(self, tmp_path):
        (tmp_path / "mod.py").write_text("import time\ntime.time()\n")
        result = lint_paths([tmp_path], relative_to=tmp_path)
        assert result.findings and result.findings[0].path == "mod.py"

    def test_rule_selection(self, tmp_path):
        (tmp_path / "mod.py").write_text("import time\ntime.time()\n")
        assert lint_paths([tmp_path], rules=["RPL001"]).findings
        assert not lint_paths([tmp_path], rules=["RPL006"]).findings

    def test_unknown_rule_raises(self, tmp_path):
        (tmp_path / "mod.py").write_text("x = 1\n")
        with pytest.raises(KeyError, match="RPL999"):
            lint_paths([tmp_path], rules=["RPL999"])

    def test_suppressions_counted_not_dropped(self):
        result = lint_paths([FIXTURES / "rpl001" / "suppressed.py"])
        assert result.clean
        assert result.suppressed == 1

    def test_findings_sorted_deterministically(self):
        result = lint_paths([FIXTURES / "rpl001" / "bad.py"])
        assert result.findings == sorted(result.findings)


class TestFinding:
    def test_round_trips_strictly(self):
        finding = Finding(path="a.py", line=3, column=1, code="RPL001", message="m", symbol="s")
        assert Finding.from_dict(finding.to_dict()) == finding

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError):
            Finding.from_dict({"path": "a.py", "code": "RPL001", "message": "m", "bogus": 1})

    def test_fingerprint_excludes_position(self):
        a = Finding(path="a.py", line=3, column=1, code="RPL001", message="m")
        b = Finding(path="a.py", line=99, column=0, code="RPL001", message="m")
        assert a.fingerprint() == b.fingerprint()


class TestFileContext:
    def test_alias_resolution(self):
        source = "import numpy as np\nfrom time import perf_counter\n"
        import ast

        ctx = FileContext(Path("x.py"), "x.py", source, ast.parse(source))
        call = ast.parse("np.random.shuffle(x)").body[0].value
        assert ctx.resolve_call(call) == "numpy.random.shuffle"
        call = ast.parse("perf_counter()").body[0].value
        assert ctx.resolve_call(call) == "time.perf_counter"

    def test_unimported_chain_is_unknowable(self):
        import ast

        ctx = FileContext(Path("x.py"), "x.py", "", ast.parse(""))
        call = ast.parse("self.rng.shuffle(x)").body[0].value
        assert ctx.resolve_call(call) is None
