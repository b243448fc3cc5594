"""Granula archiver: recorded spans -> performance archives (paper §2.5.2).

"The Granula archiver uses the performance model of a graph analysis
platform to collect and archive detailed performance information for a
job running on the platform. ... The archive is complete (all observed
and derived results are included), descriptive (all results are
described to non-experts) and examinable (all results are derived from a
traceable source)."

A job's timeline is one record: the spans its driver hands back
(``JobResult.spans``, in :meth:`repro.trace.Span.as_dict` shape). A
measured driver hands back its ``execute`` span's subtree as the tracer
recorded it; a modeled driver hands back the same shape on its model's
timeline (``process == "model"``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.exceptions import ConfigurationError
from repro.granula.model import PlatformPerformanceModel, model_for_platform
from repro.ioutil import atomic_write

__all__ = [
    "PhaseRecord",
    "PerformanceArchive",
    "archive_phases",
    "build_archive",
    "phases_from_spans",
]


@dataclass
class PhaseRecord:
    """One archived phase: reported by a driver or derived by the model."""

    name: str
    start: float
    end: float
    description: str = ""
    #: Provenance: "observed" (a span on a platform model's timeline, as
    #: a modeled driver reports it), "measured" (a span recorded by
    #: :mod:`repro.trace`), or "derived" (a
    #: :class:`~repro.granula.model.ChildRule` model fraction).
    source: str = "observed"
    metadata: Dict[str, object] = field(default_factory=dict)
    children: List["PhaseRecord"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "description": self.description,
            "source": self.source,
            "metadata": dict(self.metadata),
            "children": [c.as_dict() for c in self.children],
        }


@dataclass
class PerformanceArchive:
    """The complete performance record of one job."""

    platform: str
    algorithm: str
    dataset: str
    phases: List[PhaseRecord]

    @property
    def makespan(self) -> float:
        if not self.phases:
            return 0.0
        return max(p.end for p in self.phases) - min(p.start for p in self.phases)

    def phase(self, name: str) -> PhaseRecord:
        """Find a phase anywhere in the hierarchy by name."""
        stack = list(self.phases)
        while stack:
            record = stack.pop(0)
            if record.name == name:
                return record
            stack.extend(record.children)
        raise ConfigurationError(f"archive has no phase {name!r}")

    def phase_duration(self, name: str) -> float:
        return self.phase(name).duration

    @property
    def processing_time(self) -> float:
        """Tproc as defined in paper §2.3: the processing phase only."""
        return self.phase_duration("processing")

    def overhead_ratio(self) -> float:
        """Tproc / makespan, the Table 8 "Ratio" row."""
        makespan = self.makespan
        if makespan <= 0:
            return 0.0
        return self.processing_time / makespan

    def as_dict(self) -> Dict[str, object]:
        return {
            "platform": self.platform,
            "algorithm": self.algorithm,
            "dataset": self.dataset,
            "makespan": self.makespan,
            "phases": [p.as_dict() for p in self.phases],
        }

    def save(self, path: Union[str, Path]) -> Path:
        return atomic_write(path, json.dumps(self.as_dict(), indent=1))


def phases_from_spans(spans: List[Dict[str, object]]) -> List[PhaseRecord]:
    """Flat parent-linked span dicts -> a ``PhaseRecord`` forest.

    The one place Granula builds phases, from a job's spans, a run's, or
    the results store's ``spans`` table (any span-dict list in
    :meth:`repro.trace.Span.as_dict` shape): each span becomes a phase
    with its attributes as metadata, re-parented by span id. A span on a
    model's timeline (``process == "model"``) is ``source="observed"``,
    any other ``source="measured"``. Spans whose parent is absent from
    the list (cross-process roots, truncated traces) become roots rather
    than being dropped — the archive contract says *complete*. Input
    order is preserved among siblings.
    """
    records: Dict[str, PhaseRecord] = {}
    links: List[tuple] = []
    for span in spans:
        start = float(span.get("start") or 0.0)
        end = span.get("end")
        status = span.get("status", "ok")
        record = PhaseRecord(
            str(span.get("name", "")),
            start,
            start if end is None else float(end),
            "" if status == "ok" else f"status: {status}",
            "observed" if span.get("process") == "model" else "measured",
            dict(span.get("attrs") or {}),
        )
        records[str(span.get("id"))] = record
        links.append((record, span.get("parent")))
    roots: List[PhaseRecord] = []
    for record, parent in links:
        owner = None if parent is None else records.get(str(parent))
        (roots if owner is None else owner.children).append(record)
    return roots


def _derive_children(record: PhaseRecord, rules) -> None:
    cursor = record.start
    for rule in rules:
        length = record.duration * rule.fraction
        record.children.append(
            PhaseRecord(
                name=rule.name,
                start=cursor,
                end=cursor + length,
                description=rule.description,
                source="derived",
            )
        )
        cursor += length


def _rebase(record: PhaseRecord, origin: float) -> None:
    """Shift a subtree onto the archive's clock; describe what the model
    does not (a measured sub-phase is described by its parent)."""
    record.start -= origin
    record.end -= origin
    for child in record.children:
        child.description = (
            child.description or f"Measured sub-phase of {record.name}"
        )
        _rebase(child, origin)


def archive_phases(
    spans: List[Dict[str, object]],
    model: PlatformPerformanceModel,
) -> List[PhaseRecord]:
    """A job's (or run's) recorded spans -> the archive's phases.

    The spans form one tree; its root is the whole job. The phases are
    the root's children on a clock that starts with the root, each
    described from the expert model. A phase the spans break down keeps
    its recorded children at every depth; only a phase without children
    is split by the model's :class:`ChildRule` fractions
    (``source="derived"``). A tracer-ordered list ends with its
    outermost span, so of several roots (a truncated buffer) the last
    is the job.
    """
    roots = phases_from_spans(spans)
    if not roots:
        return []
    root = roots[-1]
    for phase in root.children:
        spec = model.spec_for(phase.name)
        phase.description = phase.description or spec.description
        _rebase(phase, root.start)
        if spec.children and not phase.children:
            _derive_children(phase, spec.children)
    return root.children


def build_archive(
    job,
    model: Optional[PlatformPerformanceModel] = None,
) -> PerformanceArchive:
    """Build an archive from a driver job result (or any object with
    ``platform``/``algorithm``/``dataset``/``spans`` attributes)."""
    return PerformanceArchive(
        platform=job.platform,
        algorithm=job.algorithm,
        dataset=job.dataset,
        phases=archive_phases(
            job.spans, model or model_for_platform(job.platform)
        ),
    )
