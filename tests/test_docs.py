"""Documentation health checks."""

import inspect
import re
from pathlib import Path

import pytest

import repro

ROOT = Path(repro.__file__).resolve().parent.parent.parent


class TestDocumentsExist:
    @pytest.mark.parametrize(
        "name",
        ["README.md", "DESIGN.md", "EXPERIMENTS.md",
         "docs/architecture.md", "docs/calibration.md", "docs/extending.md",
         "docs/lint.md", "docs/runtime.md", "docs/robustness.md",
         "docs/observability.md"],
    )
    def test_present_and_substantial(self, name):
        path = ROOT / name
        assert path.exists(), name
        assert len(path.read_text()) > 1000, f"{name} looks stubby"

    def test_design_confirms_paper_identity(self):
        text = (ROOT / "DESIGN.md").read_text()
        assert "LDBC Graphalytics" in text
        assert "VLDB 2016" in text

    def test_readme_quickstart_imports_work(self):
        # The README quickstart references these names; they must exist.
        assert hasattr(repro, "datagen")
        assert hasattr(repro, "BenchmarkRunner")
        assert hasattr(repro, "breadth_first_search")


class TestContinuousIntegration:
    def test_every_bench_runs_in_ci(self):
        # A bench no CI step names is a bench nothing runs: it rots
        # unseen (tier-1 collects only tests/).
        workflow = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
        benches = sorted((ROOT / "benchmarks").glob("bench_*.py"))
        assert benches
        unrun = [
            path.name for path in benches
            if f"benchmarks/{path.name}" not in workflow
        ]
        assert not unrun, unrun


def _public_members(module):
    for name in getattr(module, "__all__", []):
        yield name, getattr(module, name)


class TestDocstrings:
    @pytest.mark.parametrize(
        "module_name",
        [
            "repro",
            "repro.graph",
            "repro.graph.graph",
            "repro.graph.io",
            "repro.graph.stats",
            "repro.algorithms",
            "repro.algorithms.validation",
            "repro.algorithms.registry",
            "repro.datagen",
            "repro.datagen.generator",
            "repro.datagen.flow",
            "repro.engines",
            "repro.engines.pregel",
            "repro.engines.gas",
            "repro.engines.spmv",
            "repro.platforms",
            "repro.platforms.base",
            "repro.platforms.model",
            "repro.platforms.partitioning",
            "repro.harness",
            "repro.harness.experiments",
            "repro.harness.runner",
            "repro.harness.renewal",
            "repro.granula",
            "repro.trace",
            "repro.trace.clock",
            "repro.trace.tracer",
            "repro.trace.merge",
            "repro.cli",
        ],
    )
    def test_module_documented(self, module_name):
        import importlib

        module = importlib.import_module(module_name)
        assert module.__doc__ and len(module.__doc__.strip()) > 40, module_name

    def test_public_classes_and_functions_documented(self):
        import importlib

        undocumented = []
        for module_name in (
            "repro.graph.graph",
            "repro.algorithms.registry",
            "repro.platforms.base",
            "repro.platforms.model",
            "repro.harness.runner",
            "repro.granula.archiver",
        ):
            module = importlib.import_module(module_name)
            for name, member in _public_members(module):
                if inspect.isclass(member) or inspect.isfunction(member):
                    if not (member.__doc__ or "").strip():
                        undocumented.append(f"{module_name}.{name}")
        assert not undocumented, undocumented

    def test_paper_section_references_resolve(self):
        # Doc comments cite paper sections like §4.6 or "Table 10"; spot
        # check that the major calibration modules carry citations.
        for module_name in (
            "repro/platforms/giraph.py",
            "repro/platforms/pgxd.py",
            "repro/datagen/flow.py",
        ):
            text = (ROOT / "src" / module_name).read_text()
            assert re.search(r"Table \d+|§\d\.\d", text), module_name


def _documented_cli_lines():
    """(document, line number, argv after the program name) for every
    ``graphalytics ...`` / ``python -m repro.cli ...`` command line
    inside a fenced block of README.md and docs/*.md."""
    for path in [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]:
        fenced = False
        for number, line in enumerate(path.read_text().splitlines(), 1):
            if line.lstrip().startswith("```"):
                fenced = not fenced
                continue
            match = re.match(
                r"\s*(?:\$\s+)?(?:\w+=\S+\s+)*"
                r"(?:graphalytics|python3?\s+-m\s+repro\.cli)\s+(.*)",
                line,
            )
            if fenced and match:
                argv = match.group(1).split("#")[0].split()
                yield path.relative_to(ROOT).as_posix(), number, argv


def _subcommands(parser):
    import argparse

    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def _first_positional(parser, argv):
    """The first token of ``argv`` that is neither an option of
    ``parser`` nor an option's value."""
    tokens = iter(argv)
    for token in tokens:
        if not token.startswith("-"):
            return token
        action = parser._option_string_actions.get(token.split("=")[0])
        if action is not None and action.nargs != 0 and "=" not in token:
            next(tokens, None)
    return ""


class TestDocumentedCommands:
    def test_every_documented_command_parses(self):
        # A doc that advertises a command (or a `db`/`cache` subcommand)
        # the parser no longer accepts is drift nothing else catches.
        from repro.cli import build_parser

        commands = _subcommands(build_parser())
        lines = list(_documented_cli_lines())
        assert len(lines) > 40, "the scan lost the fenced CLI examples"
        unknown = []
        for document, number, argv in lines:
            where = f"{document}:{number}: graphalytics {' '.join(argv)}"
            parser = commands.get(argv[0] if argv else "")
            if parser is None:
                unknown.append(where)
                continue
            nested = _subcommands(parser)
            if nested and _first_positional(parser, argv[1:]) not in nested:
                unknown.append(where)
        assert not unknown, "\n".join(unknown)
