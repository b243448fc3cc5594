"""The settings of one lint run: where the project is, which rules run.

Nothing else is settable. Rule scopes are fixed by the rules; the one
tree every repository-wide run skips, the linter's own fixtures, is the
engine's :data:`~repro.lint.core.FIXTURES`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

__all__ = ["LintConfig", "find_project_root"]


@dataclass
class LintConfig:
    """Resolved lint settings for one run."""

    root: Optional[Path] = None          # project root (finding paths)
    select: List[str] = field(default_factory=list)   # empty = all rules


def find_project_root(start: Optional[Path] = None) -> Optional[Path]:
    """Nearest ancestor (of start or cwd) containing ``pyproject.toml``."""
    current = Path(start or Path.cwd()).resolve()
    if current.is_file():
        current = current.parent
    for candidate in [current, *current.parents]:
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return None
