"""Granula visualizer: human-readable archive rendering (paper §2.5.2).

The real Granula visualizer is an interactive web interface; this
reproduction renders a performance archive as an indented text tree and
as a static HTML page with proportional phase bars.
"""

from __future__ import annotations

import html
from pathlib import Path
from typing import List, Union

from repro.granula.archiver import (
    PerformanceArchive,
    PhaseRecord,
    phases_from_spans,
)
from repro.ioutil import atomic_write

__all__ = [
    "render_text",
    "render_html",
    "save_html",
    "render_comparison",
    "render_store_run",
    "render_store_regressions",
]


def _format_seconds(seconds: float) -> str:
    if seconds >= 100:
        return f"{seconds:.0f} s"
    if seconds >= 1:
        return f"{seconds:.1f} s"
    if seconds >= 1e-3:
        return f"{seconds * 1000:.0f} ms"
    return f"{seconds * 1e6:.0f} µs"


def _text_lines(record: PhaseRecord, depth: int, lines: List[str]) -> None:
    pad = "  " * depth
    marker = "*" if record.source == "derived" else "-"
    desc = f"  ({record.description})" if record.description else ""
    lines.append(
        f"{pad}{marker} {record.name}: {_format_seconds(record.duration)}{desc}"
    )
    for child in record.children:
        _text_lines(child, depth + 1, lines)


def render_text(archive: PerformanceArchive) -> str:
    """Indented text tree; derived phases are marked with ``*``."""
    lines = [
        f"{archive.platform} / {archive.algorithm} on {archive.dataset}",
        f"makespan: {_format_seconds(archive.makespan)}, "
        f"Tproc: {_format_seconds(archive.processing_time)} "
        f"({archive.overhead_ratio() * 100:.1f}% of makespan)",
    ]
    for phase in archive.phases:
        _text_lines(phase, 1, lines)
    return "\n".join(lines)


def _html_bars(archive: PerformanceArchive) -> str:
    makespan = archive.makespan or 1.0
    rows: List[str] = []

    def emit(record: PhaseRecord, depth: int) -> None:
        left = 100.0 * record.start / makespan
        width = max(0.2, 100.0 * record.duration / makespan)
        css = "bar derived" if record.source == "derived" else "bar"
        rows.append(
            '<div class="row" style="padding-left:{pad}em">'
            '<span class="label">{name}</span>'
            '<span class="track"><span class="{css}" '
            'style="margin-left:{left:.2f}%;width:{width:.2f}%"></span></span>'
            '<span class="time">{time}</span></div>'.format(
                pad=depth,
                name=html.escape(record.name),
                css=css,
                left=left,
                width=width,
                time=_format_seconds(record.duration),
            )
        )
        for child in record.children:
            emit(child, depth + 1)

    for phase in archive.phases:
        emit(phase, 0)
    return "\n".join(rows)


def render_html(archive: PerformanceArchive) -> str:
    """A self-contained HTML page with a phase timeline."""
    return f"""<!DOCTYPE html>
<html><head><meta charset="utf-8">
<title>Granula: {html.escape(archive.platform)} / {html.escape(archive.algorithm)}</title>
<style>
body {{ font-family: sans-serif; margin: 2em; }}
.row {{ display: flex; align-items: center; margin: 4px 0; }}
.label {{ width: 8em; }}
.track {{ flex: 1; background: #eee; height: 14px; position: relative; }}
.bar {{ display: block; background: #4477aa; height: 14px; }}
.bar.derived {{ background: #88bbdd; }}
.time {{ width: 6em; text-align: right; font-variant-numeric: tabular-nums; }}
</style></head><body>
<h1>{html.escape(archive.platform)} — {html.escape(archive.algorithm)} on
{html.escape(archive.dataset)}</h1>
<p>makespan {_format_seconds(archive.makespan)};
Tproc {_format_seconds(archive.processing_time)}
({archive.overhead_ratio() * 100:.1f}% of makespan)</p>
{_html_bars(archive)}
</body></html>
"""


def save_html(archive: PerformanceArchive, path: Union[str, Path]) -> Path:
    return atomic_write(path, render_html(archive))


def render_store_run(store, run_id: str) -> str:
    """A stored run's span timeline, read straight from SQL.

    The store's ``spans`` table holds the run's exported trace; this
    renders it as the same indented tree :func:`render_text` gives a
    performance archive — no archive re-parsing, no run directory
    needed. ``store`` is a :class:`repro.resultsdb.store.ResultsStore`
    (typed loosely so the Granula layer stays importable without it).
    """
    metadata = store.run_metadata(run_id)
    breaches = store.run_breaches(run_id)
    lines = [
        f"run {run_id} — {metadata['system_under_test']} "
        f"({metadata['job_count']} jobs, {len(breaches)} SLA breaches)"
    ]
    spans = store.run_spans(run_id)
    if not spans:
        lines.append("  (no trace spans stored for this run)")
    for root in phases_from_spans(spans):
        _text_lines(root, 1, lines)
    return "\n".join(lines)


def render_store_regressions(query) -> str:
    """Regression table between two stored runs.

    ``query`` is the :class:`repro.resultsdb.queries.RegressionQuery` a
    caller already ran (typed loosely so the Granula layer stays
    importable without the store): the table and whatever else the
    caller derives from it — the CLI's exit status — share one answer.
    """
    old_run, new_run, threshold = query.old_run, query.new_run, query.threshold
    found = query.regressions
    if not found:
        return (
            f"no regressions: {new_run} vs {old_run} "
            f"(threshold {threshold:.2f}x)"
        )
    lines = [
        f"{len(found)} regression(s): {new_run} vs {old_run} "
        f"(threshold {threshold:.2f}x)"
    ]
    for regression in found:
        lines.append(
            f"  {regression.platform} {regression.algorithm} on "
            f"{regression.dataset}: "
            f"{_format_seconds(regression.old_seconds)} -> "
            f"{_format_seconds(regression.new_seconds)} "
            f"({regression.slowdown:.2f}x)"
        )
    return "\n".join(lines)


def render_comparison(archives: List[PerformanceArchive], *, width: int = 50) -> str:
    """Side-by-side makespan breakdowns (the Table 8 view).

    One bar per archive, split into its top-level phases; the processing
    share is highlighted so the paper's overhead-ratio finding (0.2% for
    PGX.D vs 34% for GraphX) is visible at a glance.
    """
    if not archives:
        return "(no archives)"
    longest = max(a.makespan for a in archives) or 1.0
    name_width = max(len(a.platform) for a in archives)
    glyphs = {"startup": ".", "load": "-", "processing": "#", "cleanup": "."}
    lines = [
        "makespan breakdown (#=processing, -=load, .=overhead); bars scaled "
        "to the longest makespan"
    ]
    for archive in archives:
        bar = []
        for phase in archive.phases:
            cells = int(round(width * phase.duration / longest))
            bar.append(glyphs.get(phase.name, "?") * cells)
        ratio = archive.overhead_ratio() * 100
        lines.append(
            f"{archive.platform:>{name_width}s} |{''.join(bar):<{width}s}| "
            f"{_format_seconds(archive.makespan):>8s}  Tproc "
            f"{ratio:5.1f}% of makespan"
        )
    return "\n".join(lines)
