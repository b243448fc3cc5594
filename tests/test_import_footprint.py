"""What a cold process imports — counted in fresh interpreters, not timed.

Package ``__init__`` files are lazy façades (:mod:`repro.facade`): a
process loads the modules it uses and what they really import. So the
client side of the CLI never loads numpy, and the engine set never
loads the harness or the results store. The public surface stays as it
was: every ``__all__`` name resolves and ``dir()`` lists it before it is
first touched.
"""

import textwrap

import repro

LOADED = """
import json, sys
print(json.dumps(sorted(sys.modules)))
"""


def _hits(modules, packages):
    return sorted(
        name for name in modules
        if any(name == p or name.startswith(p + ".") for p in packages)
    )


def test_cli_parser_loads_no_numpy(fresh_python):
    modules = fresh_python("import repro.cli\nrepro.cli.build_parser()" + LOADED)
    assert "repro.cli" in modules
    assert _hits(modules, ["numpy"]) == []


def test_service_client_loads_no_numpy_sqlite_or_asyncio(fresh_python):
    modules = fresh_python("from repro.service import ServiceClient" + LOADED)
    assert "repro.service.client" in modules
    assert _hits(modules, ["numpy", "sqlite3", "asyncio"]) == []


def test_client_command_loads_no_numpy_sqlite_or_asyncio(fresh_python):
    # Against a closed port the command runs its whole client path; how
    # it reports the refusal is tests/cli/test_errors.py's concern.
    modules = fresh_python("""
import contextlib, socket
from repro.cli import main

with socket.socket() as probe:
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
with contextlib.suppress(OSError):
    main(["health", "--port", str(port)])
""" + LOADED)
    assert "repro.service.client" in modules
    assert _hits(modules, ["numpy", "sqlite3", "asyncio"]) == []


def test_engine_set_loads_no_harness(fresh_python):
    modules = fresh_python(
        "import repro.datagen.graph500, repro.engines.partitioned, "
        "repro.algorithms" + LOADED
    )
    assert "repro.engines.partitioned.coordinator" in modules
    assert _hits(modules, [
        "repro.harness", "repro.platforms", "repro.resultsdb",
        "repro.service", "repro.lint", "sqlite3",
    ]) == []


def test_every_public_name_resolves_and_is_listed(fresh_python):
    missing = fresh_python("""
        import importlib, json, pkgutil
        import repro

        missing = []
        packages = ["repro"] + sorted(
            info.name for info in pkgutil.walk_packages(
                repro.__path__, "repro."
            ) if info.ispkg
        )
        for name in packages:
            package = importlib.import_module(name)
            listed = dir(package)  # before any name is first touched
            for public in package.__all__:
                if public not in listed:
                    missing.append(f"{name}.{public}: not in dir()")
                try:
                    getattr(package, public)
                except AttributeError as error:
                    missing.append(f"{name}.{public}: {error}")
        print(json.dumps([len(packages), missing]))
    """)
    assert missing[0] >= 11
    assert missing[1] == []


def test_a_name_that_is_also_its_module_stays_the_name(fresh_python):
    kinds = fresh_python("""
        import json, types
        import repro.datagen.graph500, repro.algorithms.pagerank
        from repro.datagen import graph500
        from repro.algorithms import pagerank
        print(json.dumps([
            isinstance(value, types.ModuleType) for value in (graph500, pagerank)
        ]))
    """)
    assert kinds == [False, False]


def test_unknown_names_still_fail(fresh_python):
    errors = fresh_python("""
        import json
        import repro.harness
        errors = []
        try:
            repro.harness.no_such_name
        except AttributeError as error:
            errors.append(str(error))
        try:
            from repro.harness import no_such_name  # noqa: F401
        except ImportError as error:
            errors.append(type(error).__name__)
        print(json.dumps(errors))
    """)
    assert errors == [
        "module 'repro.harness' has no attribute 'no_such_name'",
        "ImportError",
    ]


def test_package_docstring_quickstart_runs(fresh_python):
    text = repro.__doc__.split("Quickstart::", 1)[1]
    block = textwrap.dedent(text.strip("\n").split("\n\n\n")[0])
    assert "repro.harness.BenchmarkRunner()" in block
    assert fresh_python(block + "\nprint('true')") is True
