"""Lint configuration, read from ``[tool.graphalytics.lint]``.

``pyproject.toml`` keys (all optional)::

    [tool.graphalytics.lint]
    select   = ["DET001", "DET003"]   # empty/absent = every rule
    exclude  = ["tests/*"]            # glob patterns on relative paths

The reader uses :mod:`tomllib` on Python >= 3.11 and falls back to a
minimal parser (string/list-of-string keys only, which is all this
section uses) on older interpreters, keeping the linter dependency-free.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

__all__ = ["LintConfig", "load_config", "find_project_root"]


@dataclass
class LintConfig:
    """Resolved lint settings for one run."""

    root: Optional[Path] = None          # project root (finding paths)
    select: List[str] = field(default_factory=list)   # empty = all rules
    exclude: List[str] = field(default_factory=list)


def find_project_root(start: Optional[Path] = None) -> Optional[Path]:
    """Nearest ancestor (of start or cwd) containing ``pyproject.toml``."""
    current = Path(start or Path.cwd()).resolve()
    if current.is_file():
        current = current.parent
    for candidate in [current, *current.parents]:
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return None


def _parse_toml(text: str) -> Dict[str, Dict[str, object]]:
    try:
        import tomllib

        return tomllib.loads(text)
    except ModuleNotFoundError:  # pragma: no cover - Python < 3.11
        return _parse_toml_minimal(text)


_SECTION_RE = re.compile(r"^\s*\[(?P<name>[^\]]+)\]\s*$")
_KEY_RE = re.compile(r"^\s*(?P<key>[A-Za-z0-9_\-\"']+)\s*=\s*(?P<value>.+?)\s*$")


def _strings(text: str) -> List[str]:
    """The quoted strings in ``text``, in order."""
    return [a or b for a, b in re.findall(r"\"([^\"]*)\"|'([^']*)'", text)]


def _parse_toml_minimal(text: str) -> Dict[str, object]:
    """Tiny TOML subset: [sections], string and [list-of-string] values.

    Only used on interpreters without :mod:`tomllib`; sufficient for the
    ``[tool.graphalytics.lint]`` table this module consumes.
    """
    result: Dict[str, object] = {}
    table: Dict[str, object] = result
    open_array: Optional[List[str]] = None   # a multi-line array being read
    for raw in text.splitlines():
        line = raw.split("#", 1)[0] if not raw.lstrip().startswith("#") else ""
        if not line.strip():
            continue
        if open_array is not None:
            open_array += _strings(line)
            if "]" in line:
                open_array = None
            continue
        section = _SECTION_RE.match(line)
        if section:
            table = result
            for part in section.group("name").split("."):
                table = table.setdefault(part.strip().strip('"'), {})  # type: ignore[assignment]
            continue
        pair = _KEY_RE.match(line)
        if not pair:
            continue
        key = pair.group("key").strip('"').strip("'")
        value = pair.group("value")
        if value.startswith("["):
            table[key] = _strings(value)
            if "]" not in value:
                open_array = table[key]
        elif value.startswith(("\"", "'")):
            table[key] = value[1:-1]
        elif value in ("true", "false"):
            table[key] = value == "true"
        else:
            try:
                table[key] = int(value)
            except ValueError:
                table[key] = value
    return result


def load_config(start: Optional[Path] = None) -> LintConfig:
    """Read lint settings from the nearest ``pyproject.toml``.

    Returns defaults when no project root exists — the engine still
    runs, reporting paths relative to the working directory.
    """
    root = find_project_root(start)
    if root is None:
        return LintConfig()
    data = _parse_toml((root / "pyproject.toml").read_text(encoding="utf-8"))
    section = (
        data.get("tool", {}).get("graphalytics", {}).get("lint", {})
        if isinstance(data.get("tool", {}), dict)
        else {}
    )
    return LintConfig(
        root=root,
        select=[str(r) for r in section.get("select", [])],
        exclude=[str(p) for p in section.get("exclude", [])],
    )
