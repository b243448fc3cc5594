"""Command-line interface: ``graphalytics <command>``.

Every command is one function in its family module — :mod:`.run`,
:mod:`.data`, :mod:`.db`, :mod:`.service` and :mod:`.tools` — registered
with :func:`command`. Its arguments are declared in the decorator, beside
its body, and its one-line help is the first line of its docstring.
:func:`build_parser` and :func:`main` are built from that table. A family
module imports what a command runs inside the command's body, so building
the parser loads no numpy.

Every ``--workers`` flag accepts an integer or ``auto``; ``auto`` (and
any request above the host's CPU count) resolves to the number of CPUs
(:func:`repro.runtime.executor.resolve_workers`).
"""

from __future__ import annotations

import argparse
import importlib
import sys
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple, Union

from repro.exceptions import GraphalyticsError

__all__ = [
    "main", "build_parser", "command", "group", "arg", "workers",
    "SEED", "THREADS", "SELECT_DATASETS", "SELECT_ALGORITHMS",
]

FAMILIES = ("run", "data", "db", "service", "tools")

#: One ``add_argument`` call: option strings (or a name) and keywords.
Argument = Tuple[Tuple[str, ...], dict]


def arg(*flags: str, **options) -> Argument:
    """Declare one argument, as ``parser.add_argument(*flags, **options)``."""
    return flags, options


class _Command(NamedTuple):
    function: Callable[[argparse.Namespace], int]
    arguments: Tuple[Union[str, Argument], ...]

    @property
    def help(self) -> str:
        return (self.function.__doc__ or "").strip().split("\n")[0]


class _Group:
    """A command that takes a subcommand: the root, ``db`` and ``cache``."""

    def __init__(self, name: str, help: Optional[str], arguments) -> None:
        self.dest = f"{name}_command" if name else "command"
        self.help = help
        self.arguments = arguments
        self.commands: Dict[str, Union[_Command, _Group]] = {}

    def command(self, name: str, *arguments: Union[str, Argument]):
        """Register the decorated function as subcommand ``name``; a bare
        string argument is a positional taken as given."""
        def register(function):
            self.commands[name] = _Command(function, arguments)
            return function

        return register

    def group(self, name: str, help: str, *arguments: Union[str, Argument]):
        self.commands[name] = group = _Group(name, help, arguments)
        return group


_ROOT = _Group("", None, ())
command = _ROOT.command
group = _ROOT.group


def _workers_type(value: str):
    """``--workers`` argument: a positive integer or the word ``auto``."""
    if value == "auto":
        return "auto"
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or 'auto', got {value!r}"
        )


def workers(default, help: str) -> Argument:
    """Declare ``--workers``: an integer or ``auto``."""
    return arg("--workers", type=_workers_type, default=default, help=help)


# Declarations more than one command takes.
SEED = arg("--seed", type=int, default=0)
THREADS = arg("--threads", type=int, default=None)
SELECT_DATASETS = arg("--datasets", nargs="*", default=None)
SELECT_ALGORITHMS = arg("--algorithms", nargs="*", default=None)


def fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.3g}"
    return str(value)


def _add(parser: argparse.ArgumentParser, node: Union[_Command, _Group]) -> None:
    for spec in node.arguments:
        flags, options = ((spec,), {}) if isinstance(spec, str) else spec
        parser.add_argument(*flags, **options)
    if isinstance(node, _Command):
        parser.set_defaults(handler=node.function)
        return
    sub = parser.add_subparsers(dest=node.dest, required=True)
    for name, child in node.commands.items():
        _add(sub.add_parser(name, help=child.help), child)


def build_parser() -> argparse.ArgumentParser:
    for family in FAMILIES:
        importlib.import_module(f"{__name__}.{family}")
    parser = argparse.ArgumentParser(
        prog="graphalytics",
        description="LDBC Graphalytics reproduction benchmark",
    )
    _add(parser, _ROOT)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Run one command. Bad input — a :class:`GraphalyticsError`, or an
    ``OSError`` such as a missing file or a refused connection — prints
    one ``error:`` line and returns 1."""
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (GraphalyticsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
