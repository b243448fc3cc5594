"""Every module of the package is reached by something that runs.

A module under ``src/repro`` must be named outside itself by the
package, ``perf/``, ``benchmarks/`` or ``examples/``: as an ``import``,
as ``from <package> import <leaf>``, or as a quoted module name. A
package ``__init__`` may quote just the leaf: the lazy façades and the
CLI's command families load submodules that way. A module only its own
tests import belongs in ``tests/``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
USERS = (PACKAGE, ROOT / "perf", ROOT / "benchmarks", ROOT / "examples")


def _module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _names(path: Path):
    """Every module name ``path`` imports or quotes."""
    package = ""
    if path.is_relative_to(PACKAGE):
        package = _module_name(path)
        if path.name != "__init__.py":
            package = package.rpartition(".")[0]
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.rsplit(".", node.level - 1)[0]
                base = f"{anchor}.{base}" if base else anchor
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value
            if path.name == "__init__.py" and node.value.isidentifier():
                yield f"{package}.{node.value}"  # a leaf the package loads


def test_every_module_is_named_by_code_that_runs():
    modules = {
        _module_name(path): path
        for path in PACKAGE.rglob("*.py")
        if path.stem not in ("__init__", "__main__")
    }
    named_by = {name: set() for name in modules}
    for root in USERS:
        for path in root.rglob("*.py"):
            for name in set(_names(path)):
                if name in named_by and modules[name] != path:
                    named_by[name].add(path)
    unreached = sorted(name for name, users in named_by.items() if not users)
    assert not unreached, (
        f"modules nothing outside tests names: {unreached}; "
        f"delete them or move them to tests/"
    )
