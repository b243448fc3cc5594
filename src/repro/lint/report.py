"""Finding reporters: human text and machine JSON.

Text output is one line per finding in the familiar
``path:line:col: RULE message`` shape, followed by a per-rule summary.
JSON output is a stable document (version, findings, per-rule counts)
for CI consumers.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Dict, List, Sequence

from repro.lint.core import Finding

__all__ = ["render_text", "render_json"]


def render_text(findings: Sequence[Finding]) -> str:
    """One line per finding + a per-rule summary line."""
    if not findings:
        return "lint: clean (0 findings)"
    lines: List[str] = []
    for finding in findings:
        suffix = f" [{finding.symbol}]" if finding.symbol else ""
        lines.append(
            f"{finding.path}:{finding.line}:{finding.col}: "
            f"{finding.rule_id} {finding.message}{suffix}"
        )
    counts = Counter(f.rule_id for f in findings)
    summary = ", ".join(f"{rule}: {n}" for rule, n in sorted(counts.items()))
    lines.append(
        f"lint: {len(findings)} new finding{'s' if len(findings) != 1 else ''}"
        f" ({summary})"
    )
    return "\n".join(lines)


def render_json(findings: Sequence[Finding]) -> str:
    """Stable JSON document of the findings.

    Version 2: version 1 also carried the retired baseline's split
    (``baselined``/``stale`` keys, a per-row ``baselined`` flag and an
    ``occurrence`` index); ``new`` is simply the finding count now.
    """
    counts: Dict[str, int] = dict(Counter(f.rule_id for f in findings))
    payload = {
        "version": 2,
        "new": len(findings),
        "counts": {k: counts[k] for k in sorted(counts)},
        "findings": [f.as_dict() for f in findings],
    }
    return json.dumps(payload, indent=2)
