"""Canned cross-run queries over the results store.

The questions the paper's public repository exists to answer, each
surfaced as a ``graphalytics db`` subcommand:

* :func:`runs` — which runs are stored (id, system under test, jobs);
* :func:`top` / :func:`best_platform` — across all stored runs, which
  platform ran a workload fastest (§5's cross-platform comparison);
* :func:`trend` — how one platform x algorithm x dataset cell moved
  across runs and commits (the longitudinal tracking BENCH snapshots
  cannot give);
* :func:`regressions` — workloads at least ``threshold`` times slower
  in one run than another (the CI gate between two commits).

Answer-identity contract: SQL narrows and orders the candidate rows
(indexes on platform/algorithm/dataset make that cheap on a 500-run
store), but the final selection replays the retired JSON backend's
exact Python loops — same run_id iteration order, same strictly-lower
tie-breaking in ``best_platform``, same truthy-``tproc`` filter and
last-write-wins key index in ``regressions`` — so the store answers
every query identically to the directory of JSON blobs it replaced.
``tests/resultsdb/test_queries.py`` holds that line against the old
loops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.exceptions import ConfigurationError
from repro.resultsdb.store import ResultsStore

__all__ = [
    "Regression",
    "RegressionQuery",
    "TopEntry",
    "TrendPoint",
    "best_platform",
    "regression_query",
    "regressions",
    "runs",
    "top",
    "trend",
]


@dataclass(frozen=True)
class Regression:
    """One workload where a newer run is slower than an older one."""

    platform: str
    algorithm: str
    dataset: str
    old_seconds: float
    new_seconds: float

    @property
    def slowdown(self) -> float:
        return self.new_seconds / self.old_seconds


@dataclass(frozen=True)
class RegressionQuery:
    """A regression comparison, with the inputs that produced it."""

    old_run: str
    new_run: str
    threshold: float
    regressions: List[Regression]


@dataclass(frozen=True)
class TopEntry:
    """One platform's best compliant time for a workload."""

    rank: int
    platform: str
    run_id: str
    tproc: float


@dataclass(frozen=True)
class TrendPoint:
    """One run's best compliant time for a fixed workload cell."""

    run_id: str
    commit_sha: str
    submitted_at: Optional[float]
    tproc: Optional[float]
    status: str


def runs(store: ResultsStore) -> List[tuple]:
    """Every stored run as ``(run_id, system_under_test, job_count)``,
    ordered by run id — the repository's listing."""
    return store.query(
        "SELECT run_id, system_under_test, job_count FROM runs"
        " ORDER BY run_id"
    )


def _candidate_rows(
    store: ResultsStore, algorithm: str, dataset: str
) -> List[tuple]:
    """Compliant candidate jobs for a workload, in JSON-backend order.

    ``ORDER BY j.run_id, j.position`` is exactly the old backend's
    iteration order: sorted run ids (directory glob, sorted), then the
    archive's result list in sequence.
    """
    return store.query(
        "SELECT j.run_id, j.platform, j.modeled_processing_time"
        " FROM jobs j WHERE j.algorithm = ? AND j.dataset = ?"
        " AND j.status = 'succeeded' AND j.sla_compliant = 1"
        " AND j.modeled_processing_time IS NOT NULL"
        " ORDER BY j.run_id, j.position",
        (algorithm.lower(), dataset),
    )


def best_platform(
    store: ResultsStore, algorithm: str, dataset: str
) -> Optional[Dict[str, object]]:
    """Across all stored runs: the fastest compliant job for a workload.

    Same payload shape and tie-breaking as the JSON backend: the first
    strictly-lower time wins, so among equal times the earliest
    (run_id, position) keeps the crown.
    """
    best: Optional[Dict[str, object]] = None
    for run_id, platform, tproc in _candidate_rows(store, algorithm, dataset):
        if best is None or tproc < best["tproc"]:
            best = {"run_id": run_id, "platform": platform, "tproc": tproc}
    return best


def top(
    store: ResultsStore,
    algorithm: str,
    dataset: str,
    *,
    limit: Optional[int] = None,
) -> List[TopEntry]:
    """Platform leaderboard for one workload: each platform's best time.

    Generalizes :func:`best_platform` (its answer is always rank 1).
    Per platform the winning job follows the same first-strictly-lower
    rule; platforms rank by that best time, ties broken by platform
    name for a stable table. ``limit`` is ``None`` (every platform) or
    at least 1.
    """
    if limit is not None and limit < 1:
        raise ConfigurationError(f"limit must be at least 1, not {limit!r}")
    best_per_platform: Dict[str, TopEntry] = {}
    for run_id, platform, tproc in _candidate_rows(store, algorithm, dataset):
        held = best_per_platform.get(platform)
        if held is None or tproc < held.tproc:
            best_per_platform[platform] = TopEntry(
                rank=0, platform=platform, run_id=run_id, tproc=tproc
            )
    ordered = sorted(
        best_per_platform.values(), key=lambda e: (e.tproc, e.platform)
    )
    if limit is not None:
        ordered = ordered[:limit]
    return [
        TopEntry(
            rank=index + 1,
            platform=entry.platform,
            run_id=entry.run_id,
            tproc=entry.tproc,
        )
        for index, entry in enumerate(ordered)
    ]


def trend(
    store: ResultsStore,
    platform: str,
    algorithm: str,
    dataset: str,
    *,
    machines: Optional[int] = None,
    threads: Optional[int] = None,
) -> List[TrendPoint]:
    """One cell's history across runs, in submission order.

    Submission order is the store's insertion order (``runs`` rowid) —
    the longitudinal axis the JSON backend never had. Within a run the
    cell's best compliant time is reported; a run where the cell only
    failed (or never met the SLA) contributes a point with ``tproc``
    ``None`` and the worst observed status, so gaps in the trend line
    are visible rather than silently dropped.
    """
    conditions = [
        "j.platform = ?", "j.algorithm = ?", "j.dataset = ?",
    ]
    parameters: List[object] = [platform, algorithm.lower(), dataset]
    if machines is not None:
        conditions.append("j.machines = ?")
        parameters.append(machines)
    if threads is not None:
        conditions.append("j.threads = ?")
        parameters.append(threads)
    rows = store.query(
        "SELECT r.rowid, r.run_id, r.commit_sha, r.submitted_at,"
        " j.modeled_processing_time, j.status, j.sla_compliant"
        " FROM jobs j JOIN runs r ON r.run_id = j.run_id"
        f" WHERE {' AND '.join(conditions)}"
        " ORDER BY r.rowid, j.position",
        parameters,
    )
    points: List[TrendPoint] = []
    by_rowid: Dict[int, int] = {}
    for rowid, run_id, commit_sha, submitted_at, tproc, status, ok in rows:
        usable = status == "succeeded" and ok and tproc is not None
        if rowid not in by_rowid:
            by_rowid[rowid] = len(points)
            points.append(
                TrendPoint(
                    run_id=run_id,
                    commit_sha=commit_sha,
                    submitted_at=submitted_at,
                    tproc=tproc if usable else None,
                    status=status,
                )
            )
            continue
        index = by_rowid[rowid]
        held = points[index]
        if usable and (held.tproc is None or tproc < held.tproc):
            points[index] = TrendPoint(
                run_id=held.run_id,
                commit_sha=held.commit_sha,
                submitted_at=held.submitted_at,
                tproc=tproc,
                status=status,
            )
    return points


def regressions(
    store: ResultsStore,
    old_run: str,
    new_run: str,
    *,
    threshold: float = 1.10,
) -> List[Regression]:
    """Workloads at least ``threshold`` times slower in the new run.

    The JSON backend's loops verbatim, fed from the ``record`` column:
    the old run builds a last-write-wins index keyed by
    (platform, algorithm, dataset, machines, threads) over jobs with a
    *truthy* modeled time, the new run's jobs look themselves up, and
    hits sort by descending slowdown. ``threshold`` is a finite ratio
    of at least 1.0: below it a speed-up would count as a regression.
    """
    if not (math.isfinite(threshold) and threshold >= 1.0):
        raise ConfigurationError(
            f"threshold must be a finite ratio >= 1.0, not {threshold!r}"
        )
    old_index: Dict[tuple, float] = {}
    for record in store.run_records(old_run):
        if record.get("status") == "succeeded" and record.get(
            "modeled_processing_time"
        ):
            key = _workload_key(record)
            old_index[key] = record["modeled_processing_time"]
    found: List[Regression] = []
    for record in store.run_records(new_run):
        if not (
            record.get("status") == "succeeded"
            and record.get("modeled_processing_time")
        ):
            continue
        key = _workload_key(record)
        if key in old_index:
            old_time = old_index[key]
            new_time = record["modeled_processing_time"]
            if new_time > threshold * old_time:
                found.append(
                    Regression(
                        platform=record["platform"],
                        algorithm=record["algorithm"],
                        dataset=record["dataset"],
                        old_seconds=old_time,
                        new_seconds=new_time,
                    )
                )
    return sorted(found, key=lambda reg: -reg.slowdown)


def regression_query(
    store: ResultsStore,
    old_run: str,
    new_run: str,
    *,
    threshold: float = 1.10,
) -> RegressionQuery:
    """:func:`regressions` bundled with the inputs that produced it."""
    return RegressionQuery(
        old_run=old_run,
        new_run=new_run,
        threshold=threshold,
        regressions=regressions(
            store, old_run, new_run, threshold=threshold
        ),
    )


def _workload_key(record: Dict[str, object]) -> tuple:
    return (
        record.get("platform"),
        record.get("algorithm"),
        record.get("dataset"),
        record.get("machines"),
        record.get("threads"),
    )
