"""One metric name, one meaning: across layered registries and in the docs.

``repro serve --status-port`` renders the process registry layered with
the coordinator's fleet registry, and on a name collision the fleet's
metric hides the process one.  So a name registered under
``src/repro/serve`` must not also be registered elsewhere, and every name
an operator can scrape must be in the metrics table of
``docs/guides/observability.md``.

In scope: every ``.counter(…)`` / ``.gauge(…)`` / ``.histogram(…)`` call
in ``src/repro`` whose name is a string literal, plus the coordinator's
churn counters (``STAT_KEYS`` with a ``_total`` suffix).
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

from repro.serve.coordinator import STAT_KEYS

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src" / "repro"
GUIDE = REPO / "docs" / "guides" / "observability.md"
REGISTRATIONS = {"counter", "gauge", "histogram"}


def registered_names() -> dict[str, set[str]]:
    """``{metric name: {registering file, relative to src/repro}}``."""
    found: dict[str, set[str]] = {}
    for path in sorted(SRC.rglob("*.py")):
        where = path.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in REGISTRATIONS
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                found.setdefault(node.args[0].value, set()).add(where)
    for key in STAT_KEYS:
        found.setdefault(f"{key}_total", set()).add("serve/coordinator.py")
    return found


def documented_names() -> set[str]:
    """Every backticked name in the first column of the guide's metrics table."""
    section = GUIDE.read_text(encoding="utf-8").split("\n## Metrics\n", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    return {name for row in rows for name in re.findall(r"`([a-z_]+)`", row.split("|")[1])}


def test_the_scan_finds_both_registries():
    """Guard against a scan that silently matches nothing."""
    names = registered_names()
    assert "serve/coordinator.py" in names["tasks_inflight"]
    assert "core/fl_base.py" in names["rounds_total"]
    assert "codec_bytes_up_total" in names
    assert {f"{key}_total" for key in STAT_KEYS} <= set(names)


def test_no_name_is_registered_under_serve_and_elsewhere():
    shadowed = {
        name: sorted(files)
        for name, files in registered_names().items()
        if any(f.startswith("serve/") for f in files) and any(not f.startswith("serve/") for f in files)
    }
    assert not shadowed, f"the fleet registry would hide these process metrics: {shadowed}"


def test_every_registered_name_is_in_the_observability_table():
    missing = sorted(set(registered_names()) - documented_names())
    assert not missing, f"docs/guides/observability.md's metrics table lacks {missing}"
