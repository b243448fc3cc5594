"""The parser's structure, pinned: every command, subcommand and option
as the parser declares it, compared with a committed snapshot.

The snapshot holds declarations, not formatted help, so it reads the
same on every Python version argparse formats differently. Argument
order within a command matters; the order of the commands does not.
Regenerate it (after a deliberate change) with::

    PYTHONPATH=src python -m tests.cli.test_parser_snapshot
"""

import argparse
import json
from pathlib import Path

from repro.cli import build_parser

SNAPSHOT = Path(__file__).with_name("parser_snapshot.json")


def describe(parser: argparse.ArgumentParser) -> dict:
    """Every action of ``parser``, in order, and its subcommands by name."""
    actions, subcommands = [], {}
    for action in parser._actions:
        kind = action.type
        actions.append({
            "option_strings": action.option_strings,
            "dest": action.dest,
            "nargs": action.nargs,
            "type": getattr(kind, "__name__", None if kind is None else repr(kind)),
            "default": action.default,
            "choices": (
                sorted(action.choices) if isinstance(action.choices, dict)
                else None if action.choices is None else list(action.choices)
            ),
            "required": action.required,
            "help": action.help,
            "metavar": action.metavar,
        })
        if isinstance(action, argparse._SubParsersAction):
            helps = {choice.dest: choice.help for choice in action._choices_actions}
            for name, subparser in action.choices.items():
                subcommands[name] = {"help": helps.get(name), **describe(subparser)}
    return {"actions": actions, "subcommands": subcommands}


def test_parser_matches_the_snapshot():
    expected = json.loads(SNAPSHOT.read_text(encoding="utf-8"))
    assert describe(build_parser()) == expected


if __name__ == "__main__":
    SNAPSHOT.write_text(
        json.dumps(describe(build_parser()), indent=1) + "\n", encoding="utf-8"
    )
