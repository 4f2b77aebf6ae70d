"""Every ``repro`` flag the docs show exists, and every value list they give is legal.

In scope: command lines that start with ``repro`` (or ``python -m repro``),
in fenced blocks and in inline code spans, checked against that
subcommand's options; and every ``--flag`` in ``docs/guides/cli.md``,
checked against all of :func:`repro.api.cli.build_parser`.  The scripts
under ``benchmarks/`` and ``scripts/`` take options of their own
(``--seconds``, ``--quick``, ``--check``), so other lines stay out of scope.
A ``--flag a|b|c`` list anywhere in the docs must be a subset of that
flag's ``choices`` when ``--flag`` is a ``repro`` flag.

The guide's setting-flags table is generated from
:func:`repro.api.cli._setting_flags`; rewrite it after changing a setting
flag with ``PYTHONPATH=src python tests/docs/test_cli_flags.py``.
"""

from __future__ import annotations

import argparse
import re
from pathlib import Path

import pytest

from repro.api.cli import _setting_flags, build_parser
from repro.experiments.settings import ExperimentSetting

REPO = Path(__file__).resolve().parents[2]
PAGES = [*sorted((REPO / "docs").rglob("*.md")), REPO / "README.md"]
CLI_GUIDE = REPO / "docs" / "guides" / "cli.md"

FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")
VALUE_LIST = re.compile(r"(?<![\w-])(--[a-z][a-z0-9-]*)[ =]([\w.-]+(?:\|[\w.-]+)+)")
COMMAND = re.compile(r"^(?:\$ )?(?:python -m )?repro (\S+)(.*)$")
#: the lines around the generated setting-flags table in the CLI guide
TABLE_START = "<!-- setting flags: generated from repro.api.cli._setting_flags -->"
TABLE_END = "<!-- end of setting flags -->"


def setting_flags_table() -> str:
    """The setting-flags table of the CLI guide, from the parser's own flag definitions."""
    defaults = ExperimentSetting()
    rows = ["| flag | `setting` field | default | values | help |", "|---|---|---|---|---|"]
    for name, options in _setting_flags().items():
        default = options.get("default", getattr(defaults, name))
        shown = "none" if default is None else f"`{default}`"
        values = ", ".join(f"`{choice}`" for choice in options.get("choices", ()))
        if not values:
            values = "a number" if options.get("type") in (int, float) else "text"
        flag = f"--{name.replace('_', '-')}"
        rows.append(f"| `{flag}` | `{name}` | {shown} | {values} | {options.get('help', '')} |")
    return "\n".join(rows)


def guide_setting_flags_table(text: str) -> str:
    """The table between the markers of the CLI guide."""
    return text.split(TABLE_START + "\n", 1)[1].split("\n" + TABLE_END, 1)[0]


def subcommand_options() -> dict[str, dict[str, set | None]]:
    """``{subcommand: {option string: its choices, or None}}`` of the parser."""
    (commands,) = [action for action in build_parser()._actions if isinstance(action, argparse._SubParsersAction)]
    return {
        name: {
            option: None if action.choices is None else set(action.choices)
            for action in subparser._actions
            for option in action.option_strings
        }
        for name, subparser in commands.choices.items()
    }


def command_lines(text: str) -> list[str]:
    """The ``repro`` command lines of a page: fenced lines (continuations joined,
    trailing comments cut) and inline code spans."""
    lines = []
    for block in re.findall(r"```[^\n]*\n(.*?)```", text, re.DOTALL):
        for line in block.replace("\\\n", " ").splitlines():
            line = re.split(r"\s#", line, maxsplit=1)[0].strip()
            if COMMAND.match(line):
                lines.append(line)
    prose = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
    lines.extend(span for span in re.findall(r"`([^`\n]+)`", prose) if COMMAND.match(span))
    return lines


@pytest.fixture(scope="module")
def options():
    return subcommand_options()


def test_the_scan_finds_commands_and_flags():
    """Guard against a scan that silently matches nothing."""
    lines = [line for page in PAGES for line in command_lines(page.read_text(encoding="utf-8"))]
    assert len(lines) > 20
    assert any("--algorithm" in line for line in lines)
    assert "--transport-codec" in FLAG.findall(CLI_GUIDE.read_text(encoding="utf-8"))


def test_every_flag_of_a_repro_command_exists(options):
    unknown = []
    for page in PAGES:
        for line in command_lines(page.read_text(encoding="utf-8")):
            command, rest = COMMAND.match(line).groups()
            for name in command.split("|"):
                known = options.get(name)
                if known is None:
                    unknown.append(f"{page.relative_to(REPO)}: `{line}` names no subcommand {name!r}")
                    continue
                unknown.extend(
                    f"{page.relative_to(REPO)}: `{line}` uses {flag}"
                    for flag in FLAG.findall(rest)
                    if flag not in known
                )
    assert not unknown, "\n".join(unknown)


def test_every_flag_in_the_cli_guide_exists(options):
    known = set().union(*options.values())
    unknown = sorted(set(FLAG.findall(CLI_GUIDE.read_text(encoding="utf-8"))) - known)
    assert not unknown, f"docs/guides/cli.md names flags the parser lacks: {unknown}"


def test_every_listed_value_is_a_choice_of_its_flag(options):
    choices: dict[str, set] = {}
    for command_options in options.values():
        for option, values in command_options.items():
            choices.setdefault(option, set()).update(values or ())
    illegal = []
    for page in PAGES:
        for flag, listed in VALUE_LIST.findall(page.read_text(encoding="utf-8")):
            if flag in choices and not set(listed.split("|")) <= choices[flag]:
                illegal.append(f"{page.relative_to(REPO)}: {flag} {listed} (choices {sorted(choices[flag])})")
    assert not illegal, "\n".join(illegal)


def test_the_subcommand_table_lists_exactly_the_parsers_subcommands(options):
    text = CLI_GUIDE.read_text(encoding="utf-8")
    table = text.split("## Subcommands at a glance", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `repro ([a-z-]+)` \|", table, re.MULTILINE)
    assert len(listed) == len(set(listed)), f"the table lists a subcommand twice: {listed}"
    assert set(listed) == set(options), (
        f"missing from the table: {sorted(set(options) - set(listed))}; "
        f"not a subcommand: {sorted(set(listed) - set(options))}"
    )


def test_the_setting_flags_table_is_generated_from_the_parser():
    assert guide_setting_flags_table(CLI_GUIDE.read_text(encoding="utf-8")) == setting_flags_table(), (
        "docs/guides/cli.md's setting-flags table is stale: PYTHONPATH=src python tests/docs/test_cli_flags.py"
    )


if __name__ == "__main__":
    text = CLI_GUIDE.read_text(encoding="utf-8")
    stale = f"{TABLE_START}\n{guide_setting_flags_table(text)}\n"
    CLI_GUIDE.write_text(text.replace(stale, f"{TABLE_START}\n{setting_flags_table()}\n"), encoding="utf-8")
    print(f"wrote the setting-flags table of {CLI_GUIDE}")
