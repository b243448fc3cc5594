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
from repro.harness.experiments import EXPERIMENTS, ExperimentReport
from repro.harness.report import render_report, save_report
from repro.harness.results import ResultsDatabase
from repro.harness.runner import BenchmarkRunner
from repro.resultsdb.store import ResultsStore, RunMetadata, submit_validated_run
from repro.trace import current_tracer

__all__ = ["FullRunResult", "run_full_benchmark"]


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
        return render_report(
            self.database, title="Graphalytics full benchmark run"
        )


def run_full_benchmark(
    *,
    seed: int = 0,
    experiment_ids: Optional[List[str]] = None,
    report_path: Optional[Union[str, Path]] = None,
    store: Optional[ResultsStore] = None,
    workers: int = 1,
    run_dir: Optional[Union[str, Path]] = None,
    partitions: Optional[int] = None,
    partition_strategy: str = "hash",
) -> FullRunResult:
    """Run the (selected) experiment suite end to end.

    One shared runner keeps dataset materializations and uploads cached
    across experiments, exactly like the real harness's single session.

    Experiment bodies are sequential by design (baselines feed later
    jobs), so ``workers > 1`` parallelizes their *inputs* instead: the
    runtime materializes every dataset and validation reference the
    selected experiments need on a worker pool, into the directory the
    shared runner's cache reads, so the serial suite builds nothing.

    With ``run_dir`` the suite is journaled: every completed job is
    recorded durably before the next starts, and re-invoking with the
    same directory (or ``graphalytics resume <run_dir>``) replays the
    recorded jobs and executes only the remainder (docs/robustness.md).
    """
    from repro.runtime.cache import GraphCache
    from repro.runtime.executor import (
        RuntimeConfig,
        prefetch_directory,
        prefetch_into_runner,
    )
    from repro.runtime.journal import journaled_run

    config = BenchmarkConfig(
        seed=seed,
        partitions=partitions,
        partition_strategy=partition_strategy,
    )
    selected = [EXPERIMENTS[eid] for eid in experiment_ids or list(EXPERIMENTS)]
    header = {
        "kind": "full-run",
        "seed": seed,
        "experiments": [e.experiment_id for e in selected],
        "report": str(report_path) if report_path else None,
        "partitions": config.partitions,
        "partition_strategy": config.partition_strategy,
    }
    with journaled_run(
        run_dir, header, identity=("kind", "seed")
    ) as journaled, prefetch_directory(workers) as cache_dir:
        runner = BenchmarkRunner(config, GraphCache(cache_dir))
        result = FullRunResult(database=runner.database)
        if journaled.replay is not None:
            result.notes.append(
                f"[journal] resumed from {run_dir}: "
                f"{sum(len(q) for q in journaled.replay.serial_results.values())} "
                f"recorded job(s) will replay instead of re-executing"
            )
        if workers > 1:
            datasets: List[str] = []
            algorithms: List[str] = []
            for experiment in selected:
                datasets.extend(d for d in experiment.datasets if d not in datasets)
                algorithms.extend(
                    a for a in experiment.algorithms if a not in algorithms
                )
            prefetch = prefetch_into_runner(
                runner,
                datasets=datasets,
                algorithms=algorithms,
                runtime=RuntimeConfig(workers=workers),
            )
            if prefetch is not None:
                result.notes.append(
                    f"[runtime] prefetched {prefetch.dag_size} artifacts on "
                    f"{workers} workers in {prefetch.elapsed_seconds:.2f} s "
                    f"({prefetch.cache_stats.describe()})"
                )
        with runner.journaling(
            journaled.journal, journaled.replay
        ), current_tracer().span("full-run", seed=seed):
            # Experiment.run opens one "experiment" span per suite entry, so
            # the exported tree reads full-run > experiment > job > ...
            for experiment in selected:
                experiment_id = experiment.experiment_id
                report = experiment.run(runner)
                result.reports[experiment_id] = report
                result.notes.extend(
                    f"[{experiment_id}] {note}" for note in report.notes
                )
    if run_dir is not None:
        runner.database.save(Path(run_dir) / "results.json")
    if report_path is not None:
        save_report(
            runner.database,
            report_path,
            title="Graphalytics full benchmark run",
        )
    if store is not None:
        metadata = RunMetadata(
            run_id=f"full-run-seed{seed}",
            system_under_test="simulated Table 5 platforms on DAS-5 model",
        )
        submit_validated_run(store, metadata, runner.database)
    return result
