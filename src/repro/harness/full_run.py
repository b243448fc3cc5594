"""Full benchmark orchestration: all eight experiments in one run.

"Graphalytics conducts automatically the complex set of experiments
summarized in Table 6" (paper §4). This module runs the entire suite,
collects every job in one results database, renders the composite
report, and (optionally) submits the validated run to a results
store — the complete Figure 1 pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.harness.config import BenchmarkConfig
from repro.harness.experiments import (
    EXPERIMENTS,
    ExperimentReport,
    run_experiments,
)
from repro.harness.report import render_report, save_report
from repro.harness.results import ResultsDatabase
from repro.harness.runner import BenchmarkRunner
from repro.resultsdb.store import ResultsStore, RunMetadata, submit_validated_run

__all__ = ["FullRunResult", "fold_full_run", "run_full_benchmark"]

_REPORT_TITLE = "Graphalytics full benchmark run"


@dataclass
class FullRunResult:
    """Everything one full benchmark run produced."""

    database: ResultsDatabase
    reports: Dict[str, ExperimentReport] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    @property
    def job_count(self) -> int:
        return len(self.database)

    def render(self) -> str:
        return render_report(self.database, title=_REPORT_TITLE)


def fold_full_run(
    experiment_ids: List[str],
    database: ResultsDatabase,
    report_path: Optional[Union[str, Path]] = None,
) -> FullRunResult:
    """What a suite run's rows say: every experiment's report and notes,
    and (at ``report_path``) the composite report."""
    rows = iter(database)  # in job order: one slice per experiment
    result = FullRunResult(
        database, {eid: EXPERIMENTS[eid].fold(rows) for eid in experiment_ids}
    )
    for experiment_id, report in result.reports.items():
        result.notes.extend(
            f"[{experiment_id}] {note}" for note in report.notes
        )
    if report_path is not None:
        save_report(database, report_path, title=_REPORT_TITLE)
    return result


def run_full_benchmark(
    *,
    seed: int = 0,
    experiment_ids: Optional[List[str]] = None,
    report_path: Optional[Union[str, Path]] = None,
    store: Optional[ResultsStore] = None,
    workers: int = 1,
    run_dir: Optional[Union[str, Path]] = None,
) -> FullRunResult:
    """Run the (selected) experiment suite end to end.

    The suite is one job list — the selected experiments' lists, each
    job tagged with its experiment — executed as one DAG on ``workers``
    processes; every report is folded from its slice of the rows.
    Inline, one runner keeps materializations and uploads cached across
    experiments, like the real harness's single session.

    With ``run_dir`` the suite is journaled like any matrix run, and
    re-invoking with the same directory (or ``graphalytics resume
    <run_dir>``) executes only what is left (docs/robustness.md).
    """
    from repro.runtime.executor import RuntimeConfig

    experiment_ids = list(experiment_ids or EXPERIMENTS)
    outcome = run_experiments(
        experiment_ids,
        BenchmarkRunner(BenchmarkConfig(seed=seed)),
        runtime=RuntimeConfig(workers=workers),
        run_dir=run_dir,
        # Where `graphalytics resume` rewrites the composite report.
        header={"report": str(report_path) if report_path else None},
    )
    result = fold_full_run(experiment_ids, outcome.database, report_path)
    if outcome.restored_jobs:
        result.notes.insert(
            0,
            f"[journal] resumed from {run_dir}: {outcome.restored_jobs} of "
            f"{outcome.dag_size} job(s) restored instead of re-executed",
        )
    if store is not None:
        metadata = RunMetadata(
            run_id=f"full-run-seed{seed}",
            system_under_test="simulated Table 5 platforms on DAS-5 model",
        )
        submit_validated_run(store, metadata, outcome.database)
    return result
