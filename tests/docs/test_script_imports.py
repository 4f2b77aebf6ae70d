"""``from repro… import`` lines outside ``src`` and ``tests`` must resolve.

The examples, the benchmark scripts, ``scripts/`` and the python fences
of the docs are mostly not run by the test suite, so a moved or deleted
name would only show when someone next runs them.  Each imported name
must be an attribute of its module or one of its submodules.
"""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
SCRIPT_DIRS = ("examples", "benchmarks", "scripts")
PYTHON_FENCE = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)
IMPORT_LINE = re.compile(r"^\s*(from|import) repro\b.*$", re.MULTILINE)

SCRIPTS = sorted(path for folder in SCRIPT_DIRS for path in (REPO / folder).rglob("*.py"))
PAGES = sorted([REPO / "README.md", *(REPO / "docs").rglob("*.md")])


def repro_imports(tree: ast.AST) -> list[tuple[str, str | None]]:
    """``(module, name)`` for every absolute ``repro`` import; name None for ``import repro.x``."""
    found: list[tuple[str, str | None]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module == "repro" or node.module.startswith("repro."):
                found.extend((node.module, alias.name) for alias in node.names if alias.name != "*")
        elif isinstance(node, ast.Import):
            found.extend(
                (alias.name, None) for alias in node.names if alias.name.split(".")[0] == "repro"
            )
    return found


def fence_imports(page: Path) -> list[tuple[str, str | None]]:
    found = []
    for fence in PYTHON_FENCE.findall(page.read_text(encoding="utf-8")):
        try:
            found.extend(repro_imports(ast.parse(fence)))
        except SyntaxError:  # an illustrative fragment: check its single-line imports alone
            for line in IMPORT_LINE.finditer(fence):
                found.extend(repro_imports(ast.parse(line.group(0).strip())))
    return found


def unresolved(imports: list[tuple[str, str | None]]) -> list[str]:
    missing = []
    for module_name, name in imports:
        try:
            module = importlib.import_module(module_name)
            if name is not None and not hasattr(module, name):
                importlib.import_module(f"{module_name}.{name}")
        except ImportError as error:
            missing.append(f"{module_name}: {name or '(module)'} ({error})")
    return missing


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: str(path.relative_to(REPO)))
def test_script_imports_resolve(script):
    tree = ast.parse(script.read_text(encoding="utf-8"))
    assert not unresolved(repro_imports(tree))


@pytest.mark.parametrize("page", PAGES, ids=lambda path: str(path.relative_to(REPO)))
def test_doc_fence_imports_resolve(page):
    assert not unresolved(fence_imports(page))


def test_the_sweep_sees_scripts_and_fences():
    assert len(SCRIPTS) >= 20
    assert sum(len(fence_imports(page)) for page in PAGES) >= 10
