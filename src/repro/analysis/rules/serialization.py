"""RPL004 — strict serialization pairing for payload dataclasses.

Round histories, checkpoints and sweep manifests all persist through
``to_dict``/``from_dict`` pairs, and resume parity depends on the read
side rejecting payloads it does not fully understand.  Spec, config and
record dataclasses inherit both from
:class:`repro.core.serialization.Serializable`, whose ``from_dict`` goes
through ``checked_payload``; the rule checks the classes that write their
own ``to_dict``.  A dataclass that
grows a ``to_dict`` without a ``from_dict`` becomes write-only on-disk
state the next session cannot reload; a ``from_dict`` that does not go
through :func:`repro.core.serialization.checked_payload` silently drops
unknown keys instead of failing the resume.

Output-only dataclasses (results rendered for humans, never reloaded)
carry an inline ``# reprolint: disable=RPL004`` on the ``def to_dict``
line, which documents the one-way contract at the definition site.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from repro.analysis.registry import Rule, register_rule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.context import FileContext
    from repro.analysis.findings import Finding


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
        if isinstance(target, ast.Attribute) and target.attr == "dataclass":
            return True
    return False


def _method(node: ast.ClassDef, name: str) -> ast.FunctionDef | None:
    for statement in node.body:
        if isinstance(statement, ast.FunctionDef) and statement.name == name:
            return statement
    return None


def _calls_checked_payload(func: ast.FunctionDef) -> bool:
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and node.id == "checked_payload":
            return True
        if isinstance(node, ast.Attribute) and node.attr == "checked_payload":
            return True
    return False


@register_rule(
    "RPL004",
    name="one-way-serialization",
    summary="dataclass with to_dict but no strict from_dict counterpart",
    rationale=(
        "resume parity requires the read side to reject unknown keys; a "
        "missing or lax from_dict turns persisted state write-only or lossy"
    ),
)
class OneWaySerializationRule(Rule):
    """Flag ``to_dict`` dataclasses whose ``from_dict`` is missing or lax."""

    def check_file(self, ctx: "FileContext") -> Iterator["Finding"]:
        """Pair up to_dict/from_dict on every dataclass in the file."""
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef) or not _is_dataclass(node):
                continue
            to_dict = _method(node, "to_dict")
            if to_dict is None:
                continue
            from_dict = _method(node, "from_dict")
            if from_dict is None:
                yield self.finding(
                    ctx,
                    to_dict,
                    f"dataclass {node.name} defines to_dict but no from_dict; persisted "
                    "payloads become write-only — inherit both from "
                    "repro.core.serialization.Serializable, add a strict from_dict via "
                    "checked_payload, or mark one-way output with an inline disable",
                )
            elif not _calls_checked_payload(from_dict):
                yield self.finding(
                    ctx,
                    from_dict,
                    f"{node.name}.from_dict does not validate through checked_payload; "
                    "unknown keys would be silently dropped instead of failing the resume",
                )
