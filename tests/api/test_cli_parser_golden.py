"""The ``repro`` argument parser, pinned action by action.

``golden/cli_parser.json`` records, for every subcommand of
:func:`repro.api.cli.build_parser` and every action it holds (in
declaration order), the option strings, ``dest``, ``default``, the sorted
``choices``, the name of ``type``, ``nargs`` and ``help``.  Changing *how*
the flags are declared must leave that file untouched; a deliberate change
to a flag regenerates it:
``PYTHONPATH=src python tests/api/test_cli_parser_golden.py``.
"""

import argparse
import json
import sys
from pathlib import Path

from repro.api.cli import build_parser

GOLDEN_PATH = Path(__file__).parent / "golden" / "cli_parser.json"


def describe(action: argparse.Action) -> dict:
    """The pinned view of one action (JSON-friendly)."""
    default = action.default
    return {
        "option_strings": list(action.option_strings),
        "dest": action.dest,
        "default": str(default) if isinstance(default, Path) else default,
        "choices": None if action.choices is None else sorted(action.choices),
        "type": getattr(action.type, "__name__", None),
        "nargs": action.nargs,
        "help": action.help,
    }


def snapshot(parser: argparse.ArgumentParser) -> dict:
    """``{subcommand: [action, ...]}`` for every subcommand of ``parser``."""
    (commands,) = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    return {
        name: [describe(action) for action in subparser._actions]
        for name, subparser in commands.choices.items()
    }


def test_every_subcommand_and_flag_matches_the_golden():
    current = json.loads(json.dumps(snapshot(build_parser())))
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert sorted(current) == sorted(golden)
    for command in golden:
        assert current[command] == golden[command], command


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    fixture = snapshot(build_parser())
    GOLDEN_PATH.write_text(json.dumps(fixture, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH} ({sum(map(len, fixture.values()))} actions)", file=sys.stderr)
