"""RPL006 — store writes that bypass the atomic-write path.

Every artifact under ``repro/store`` is contractually crash-safe: a
reader either sees the previous complete file or the new complete file,
never a torn half-write.  That guarantee lives in one place —
:func:`repro.store.objects.write_atomic` (temp file + ``os.replace``)
— so any direct ``open(..., "w")``, ``Path.write_text``, ``json.dump`` or
``os.open``/``os.write`` inside the store layer is a durability hole: a
crash mid-write corrupts the checkpoint the next resume will try to load.

Only ``repro/store/objects.py`` itself may perform raw writes; it is
where the atomic primitive is implemented.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from repro.analysis.registry import Rule, register_rule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.context import FileContext
    from repro.analysis.findings import Finding

#: attribute calls that write a file directly, whatever the receiver
_WRITE_METHODS = {"write_text", "write_bytes"}

#: resolved callees that open a writable handle or serialise to one
_WRITE_CALLS = {
    "json.dump": "serialises straight into a file handle",
    "numpy.save": "writes the array file directly",
    "numpy.savez": "writes the archive directly",
    "numpy.savez_compressed": "writes the archive directly",
    "os.open": "opens a raw descriptor",
    "os.write": "writes a raw descriptor in place",
    "os.writev": "writes a raw descriptor in place",
}

_WRITE_MODES = set("wax")


def _open_mode(call: ast.Call) -> str | None:
    mode: ast.expr | None = None
    if len(call.args) >= 2:
        mode = call.args[1]
    for keyword in call.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    if mode is None:
        return "r"
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return mode.value
    return None  # dynamic mode: assume the worst


@register_rule(
    "RPL006",
    name="non-atomic-store-write",
    summary="direct file write inside repro.store not routed through write_atomic",
    rationale=(
        "store artifacts are crash-safe by contract; a raw write torn by a "
        "crash corrupts the checkpoint the next resume loads"
    ),
    scopes=("repro/store",),
    exempt=("repro/store/objects.py",),
)
class NonAtomicStoreWriteRule(Rule):
    """Flag raw file writes in the store layer."""

    def check_file(self, ctx: "FileContext") -> Iterator["Finding"]:
        """Scan calls for writable open()/os.open(), write_text/bytes and raw or dump-style writers."""
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Attribute) and node.func.attr in _WRITE_METHODS:
                yield self.finding(
                    ctx,
                    node,
                    f".{node.func.attr}() writes the file in place; a crash mid-write "
                    "tears it — route through repro.store.objects.write_atomic",
                )
                continue
            resolved = ctx.resolve_call(node)
            if resolved == "open":
                mode = _open_mode(node)
                if mode is None or any(flag in mode for flag in _WRITE_MODES):
                    yield self.finding(
                        ctx,
                        node,
                        "open() with a write mode bypasses the atomic-write path; build "
                        "the payload in memory and hand it to write_atomic",
                    )
            elif resolved in _WRITE_CALLS:
                yield self.finding(
                    ctx,
                    node,
                    f"{resolved}() {_WRITE_CALLS[resolved]}; serialise to bytes first "
                    "and persist via write_atomic",
                )
