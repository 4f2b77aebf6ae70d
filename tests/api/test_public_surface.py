"""``repro`` is the one public façade; the subpackages export nothing.

Every name in ``repro.__all__`` resolves to the object its defining
submodule holds, and no subpackage grows a second export table back:
only the three packages whose imports register plugins may import
anything in their ``__init__.py``.
"""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import repro

#: importing these registers algorithms, architectures and lint rules
PLUGIN_PACKAGES = {"repro.baselines", "repro.nn.models", "repro.analysis.rules"}

SUBPACKAGES = sorted(
    module.name for module in pkgutil.walk_packages(repro.__path__, "repro.") if module.ispkg
)


@pytest.mark.parametrize("name", [name for name in repro.__all__ if name != "__version__"])
def test_every_export_is_its_defining_modules_object(name):
    module = importlib.import_module(repro._EXPORTS[name])
    assert getattr(repro, name) is getattr(module, name)
    assert getattr(getattr(module, name), "__module__", module.__name__) == module.__name__


@pytest.mark.parametrize("package", [name for name in SUBPACKAGES if name not in PLUGIN_PACKAGES])
def test_subpackage_exports_nothing(package):
    init = Path(importlib.import_module(package).__file__)
    tree = ast.parse(init.read_text(encoding="utf-8"))
    offences = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            offences.append(f"line {node.lineno}: import statement")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "__getattr__":
            offences.append(f"line {node.lineno}: __getattr__")
        elif isinstance(node, ast.Name) and node.id == "__all__":
            offences.append(f"line {node.lineno}: __all__")
    assert not offences, f"{init}: {offences}"
