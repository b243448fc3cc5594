"""The Graphalytics experiment suite (paper §2.3, Table 6, §4.1–4.8).

Each experiment is a self-contained object with Table 6 metadata and a
``run`` method producing an :class:`ExperimentReport` (structured rows
ready to print as the paper's tables/figures). The paper's artifacts
(:mod:`repro.harness.reproduce`) fold these reports.

| Category    | Experiment          | Algorithms | Datasets       | #nodes | #threads |
|-------------|---------------------|-----------|----------------|--------|----------|
| Baseline    | 4.1 Dataset variety | BFS, PR   | all up to L    | 1      | —        |
| Baseline    | 4.2 Algorithm var.  | all       | R4(S), D300(L) | 1      | —        |
| Scalability | 4.3 Vertical        | BFS, PR   | D300(L)        | 1      | 1–32     |
| Scalability | 4.4 Strong/Horiz.   | BFS, PR   | D1000(XL)      | 1–16   | —        |
| Scalability | 4.5 Weak/Horiz.     | BFS, PR   | G22–G26        | 1–16   | —        |
| Robustness  | 4.6 Stress test     | BFS       | all            | 1      | —        |
| Robustness  | 4.7 Variability     | BFS       | D300, D1000    | 1, 16  | —        |
| Self-test   | 4.8 Data generation | —         | SF 30–10000    | 4–16   | —        |
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import groupby
from typing import (
    TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

from repro.exceptions import ConfigurationError
from repro.harness.config import BenchmarkConfig
from repro.harness.datasets import DATASETS, datasets_up_to_class, get_dataset
from repro.harness.metrics import coefficient_of_variation, speedup
from repro.harness.results import BenchmarkResult
from repro.harness.runner import BenchmarkRunner
from repro.platforms.registry import PLATFORMS

if TYPE_CHECKING:  # at run time repro.runtime is imported where it is
    # used, as in the runner: its package init reaches back into harness
    from repro.runtime.jobs import JobSpec

__all__ = [
    "Experiment",
    "ExperimentReport",
    "EXPERIMENTS",
    "get_experiment",
    "run_experiments",
    "suite_jobs",
]

_ALL_PLATFORMS: Tuple[str, ...] = tuple(PLATFORMS)
_DISTRIBUTED_PLATFORMS: Tuple[str, ...] = tuple(
    name for name, (info, _) in PLATFORMS.items() if info.distributed
)

#: One cell of an experiment paired with its result row — ``None`` for a
#: combination no platform can run (reported ``NA``, never a job).
Pairs = Iterator[Tuple["JobSpec", Optional[BenchmarkResult]]]


@dataclass
class ExperimentReport:
    """Structured output of one experiment."""

    experiment_id: str
    title: str
    rows: List[Dict[str, object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def rows_for(self, **filters) -> List[Dict[str, object]]:
        out = []
        for row in self.rows:
            if all(row.get(k) == v for k, v in filters.items()):
                out.append(row)
        return out


@dataclass
class Experiment:
    """Table 6 metadata, a job selection and a fold of its rows.

    ``_cells`` lists every combination the experiment reports on, in
    report order; the runnable ones are its **job list**. ``_fold`` is a
    pure function of the cells paired with their rows: a baseline, a
    speed-up, a CV or a limit is a report column, never a job's input.
    """

    experiment_id: str
    section: str
    category: str
    title: str
    algorithms: Tuple[str, ...]
    datasets: Tuple[str, ...]
    nodes: Tuple[int, ...]
    threads: Tuple[int, ...]
    metrics: Tuple[str, ...]
    _cells: callable = field(repr=False, default=None)  # type: ignore[assignment]
    _fold: callable = field(repr=False, default=None)  # type: ignore[assignment]

    def jobs(self, seed: int = 0) -> List[JobSpec]:
        """The experiment's execute jobs, tagged with its id."""
        return [
            replace(cell, seed=seed, experiment=self.experiment_id)
            for cell in self._cells(self)
            if _runnable(cell)
        ]

    def fold(self, results: Iterable[BenchmarkResult]) -> ExperimentReport:
        """The report of ``results``: this experiment's rows, in job
        order (an iterator is advanced by exactly that many)."""
        rows = iter(results)
        report = ExperimentReport(self.experiment_id, self.title)
        pairs = (
            (cell, next(rows) if _runnable(cell) else None)
            for cell in self._cells(self)
        )
        self._fold(pairs, report)
        return report

    def run(
        self,
        runner: Optional[BenchmarkRunner] = None,
        *,
        seed: int = 0,
        run_dir=None,
        runtime=None,
    ) -> ExperimentReport:
        """Execute the job list and fold the report; the rows also land
        in ``runner.database``.

        ``runtime`` (a :class:`~repro.runtime.executor.RuntimeConfig`)
        picks the worker count; with ``run_dir`` the run is journaled,
        and running again with the same directory — or ``graphalytics
        resume`` — finishes a crashed one (docs/robustness.md).
        """
        runner = runner or BenchmarkRunner(BenchmarkConfig(seed=seed))
        outcome = run_experiments(
            [self.experiment_id], runner, runtime=runtime, run_dir=run_dir
        )
        return self.fold(outcome.database)


def suite_jobs(experiment_ids: Sequence[str], seed: int = 0) -> List[JobSpec]:
    """The job lists of the named experiments, concatenated."""
    return [
        job for eid in experiment_ids for job in get_experiment(eid).jobs(seed)
    ]


def run_experiments(
    experiment_ids: Sequence[str],
    runner: BenchmarkRunner,
    *,
    runtime=None,
    run_dir=None,
    header: Optional[Dict[str, object]] = None,
):
    """Run experiments as one job list: one DAG, one journal, one
    ``results.json``. The outcome's database (and ``runner.database``)
    holds the rows in job order; each experiment's
    :meth:`~Experiment.fold` takes its slice of them."""
    from repro.runtime.executor import execute_matrix

    return execute_matrix(
        runner.config,
        runtime,
        jobs=suite_jobs(experiment_ids, runner.config.seed),
        runner=runner,
        run_dir=run_dir,
        resume=None,
        header={**(header or {}), "experiments": list(experiment_ids)},
    )


def _job(**fields) -> JobSpec:
    """One cell: an execute job, not yet numbered, seeded or tagged."""
    from repro.runtime.jobs import JobKind, JobSpec

    return JobSpec(seq=0, kind=JobKind.EXECUTE, **fields)


def _runnable(cell: JobSpec) -> bool:
    from repro.runtime.scheduler import can_run_combo

    return can_run_combo(
        cell.platform, cell.dataset, cell.algorithm, machines=cell.machines
    )


def _status_code(result) -> str:
    """Paper figure annotations: ok, F (failed), NA (not implemented)."""
    if result.status == "not-supported":
        return "NA"
    if result.succeeded and result.sla_compliant:
        return "ok"
    return "F"


def _series(pairs: Pairs):
    """The pairs grouped into (platform, algorithm) series."""
    return groupby(pairs, key=lambda pair: (pair[0].platform, pair[0].algorithm))


# -- 4.1 Dataset variety ----------------------------------------------------

def _dataset_variety_cells(exp: Experiment):
    for platform in _ALL_PLATFORMS:
        for dataset_id in exp.datasets:
            for algorithm in exp.algorithms:
                yield _job(platform=platform, dataset=dataset_id, algorithm=algorithm)


def _fold_dataset_variety(pairs: Pairs, report: ExperimentReport) -> None:
    for cell, result in pairs:
        report.rows.append(
            {
                "platform": result.platform,
                "dataset": cell.dataset,
                "dataset_label": get_dataset(cell.dataset).label,
                "algorithm": cell.algorithm,
                "tproc": result.modeled_processing_time,
                "eps": result.eps,
                "evps": result.evps,
                "makespan": result.modeled_makespan,
                "upload": result.modeled_upload_time,
                "sla_compliant": result.sla_compliant,
                "status": _status_code(result),
            }
        )


# -- 4.2 Algorithm variety ----------------------------------------------------

def _algorithm_variety_cells(exp: Experiment):
    for dataset_id in exp.datasets:
        for algorithm in exp.algorithms:
            for platform in _ALL_PLATFORMS:
                yield _job(platform=platform, dataset=dataset_id, algorithm=algorithm)


def _fold_algorithm_variety(pairs: Pairs, report: ExperimentReport) -> None:
    for cell, result in pairs:
        if result is None:
            report.rows.append(
                {
                    "platform": PLATFORMS[cell.platform][0].name,
                    "dataset": cell.dataset,
                    "algorithm": cell.algorithm,
                    "tproc": None,
                    "sla_compliant": None,
                    "status": "NA",
                }
            )
            continue
        report.rows.append(
            {
                "platform": result.platform,
                "dataset": cell.dataset,
                "algorithm": cell.algorithm,
                "tproc": (
                    result.modeled_processing_time
                    if result.succeeded and result.sla_compliant
                    else None
                ),
                "backend": result.backend,
                "sla_compliant": result.sla_compliant,
                "status": _status_code(result),
            }
        )


# -- 4.3 Vertical scalability ---------------------------------------------------

def _vertical_cells(exp: Experiment):
    for platform in _ALL_PLATFORMS:
        for algorithm in exp.algorithms:
            for threads in exp.threads:
                yield _job(platform=platform, dataset=exp.datasets[0],
                           algorithm=algorithm, threads=threads)


def _fold_vertical(pairs: Pairs, report: ExperimentReport) -> None:
    for (platform, algorithm), series in _series(pairs):
        baseline: Optional[float] = None
        best = 0.0
        for cell, result in series:
            tproc = result.modeled_processing_time
            if tproc is not None and baseline is None:
                baseline = tproc
            s = speedup(baseline, tproc) if (baseline and tproc) else None
            if s:
                best = max(best, s)
            report.rows.append(
                {
                    "platform": result.platform,
                    "algorithm": algorithm,
                    "threads": cell.threads,
                    "tproc": tproc,
                    "speedup": s,
                    "sla_compliant": result.sla_compliant,
                    "status": _status_code(result),
                }
            )
        report.notes.append(
            f"{platform}/{algorithm}: max vertical speedup {best:.1f}"
        )


# -- 4.4 / 4.5 Horizontal scalability -----------------------------------------------

def _strong_cells(exp: Experiment):
    for platform in _DISTRIBUTED_PLATFORMS:
        for algorithm in exp.algorithms:
            for machines in exp.nodes:
                yield _job(platform=platform, dataset=exp.datasets[0],
                           algorithm=algorithm, machines=machines)


def _weak_cells(exp: Experiment):
    for platform in _DISTRIBUTED_PLATFORMS:
        for algorithm in exp.algorithms:
            for dataset_id, machines in zip(exp.datasets, exp.nodes):
                yield _job(platform=platform, dataset=dataset_id,
                           algorithm=algorithm, machines=machines)


def _scaling_series(pairs: Pairs):
    """Each run of a (platform, algorithm) series with its Tproc (SLA-
    compliant runs only) and the series' baseline: the first such Tproc."""
    for _, series in _series(pairs):
        baseline: Optional[float] = None
        for cell, result in series:
            ok = result.succeeded and result.sla_compliant
            tproc = result.modeled_processing_time if ok else None
            if tproc is not None and baseline is None:
                baseline = tproc
            yield cell, result, tproc, baseline


def _fold_strong(pairs: Pairs, report: ExperimentReport) -> None:
    for cell, result, tproc, baseline in _scaling_series(pairs):
        report.rows.append(
            {
                "platform": result.platform,
                "algorithm": cell.algorithm,
                "machines": cell.machines,
                "tproc": tproc,
                "speedup": (
                    speedup(baseline, tproc) if (baseline and tproc) else None
                ),
                "sla_compliant": result.sla_compliant,
                "status": _status_code(result),
            }
        )


def _fold_weak(pairs: Pairs, report: ExperimentReport) -> None:
    for cell, result, tproc, baseline in _scaling_series(pairs):
        report.rows.append(
            {
                "platform": result.platform,
                "algorithm": cell.algorithm,
                "dataset": cell.dataset,
                "machines": cell.machines,
                "tproc": tproc,
                # ideal weak scaling keeps Tproc constant; the
                # paper reports the inverse of speedup:
                "slowdown": (
                    tproc / baseline if (baseline and tproc) else None
                ),
                "sla_compliant": result.sla_compliant,
                "status": _status_code(result),
            }
        )


# -- 4.6 Stress test -----------------------------------------------------------

def _stress_cells(exp: Experiment):
    datasets = sorted(
        (get_dataset(d) for d in exp.datasets),
        key=lambda ds: (ds.profile.scale, ds.dataset_id),
    )
    for platform in _ALL_PLATFORMS:
        for dataset in datasets:
            yield _job(platform=platform, dataset=dataset.dataset_id, algorithm="bfs")


def _fold_stress(pairs: Pairs, report: ExperimentReport) -> None:
    for platform, series in groupby(pairs, key=lambda pair: pair[0].platform):
        smallest_failure = None
        for cell, result in series:
            dataset = get_dataset(cell.dataset)
            failed = not (result.succeeded and result.sla_compliant)
            report.rows.append(
                {
                    "platform": result.platform,
                    "dataset": dataset.dataset_id,
                    "scale": dataset.profile.scale,
                    "sla_compliant": result.sla_compliant,
                    "status": _status_code(result),
                    "failure_reason": result.failure_reason,
                }
            )
            if failed and smallest_failure is None:
                smallest_failure = dataset
        report.notes.append(
            f"{platform}: smallest failing dataset "
            + (
                f"{smallest_failure.label} (scale {smallest_failure.profile.scale})"
                if smallest_failure
                else "none (all datasets processed)"
            )
        )
        report.rows.append(
            {
                "platform": result.platform,
                "summary": "stress-limit",
                "dataset": smallest_failure.dataset_id if smallest_failure else None,
                "scale": smallest_failure.profile.scale if smallest_failure else None,
            }
        )


# -- 4.7 Variability ------------------------------------------------------------

_VARIABILITY_REPETITIONS = 10


def _variability_cells(exp: Experiment):
    for dataset_id, machines, platforms in (
        (exp.datasets[0], 1, _ALL_PLATFORMS),            # config "S"
        (exp.datasets[1], 16, _DISTRIBUTED_PLATFORMS),   # config "D"
    ):
        for platform in platforms:
            for run_index in range(_VARIABILITY_REPETITIONS):
                yield _job(platform=platform, dataset=dataset_id, algorithm="bfs",
                           machines=machines, run_index=run_index)


def _fold_variability(pairs: Pairs, report: ExperimentReport) -> None:
    for (dataset_id, machines, _), series in groupby(
        pairs,
        key=lambda pair: (pair[0].dataset, pair[0].machines, pair[0].platform),
    ):
        times: List[float] = []
        compliant = True
        for _, result in series:
            compliant = compliant and result.sla_compliant
            if result.succeeded and result.modeled_processing_time:
                times.append(result.modeled_processing_time)
        if len(times) >= 2:
            mean = sum(times) / len(times)
            cv = coefficient_of_variation(times)
        else:
            mean = cv = None
        report.rows.append(
            {
                "config": "S" if machines == 1 else "D",
                "platform": result.platform,
                "dataset": dataset_id,
                "machines": machines,
                "runs": len(times),
                "mean": mean,
                "cv": cv,
                # Every repetition must meet the SLA for the config
                # to count as compliant (paper §4.7 robustness view).
                "sla_compliant": compliant,
            }
        )


# -- 4.8 Data generation ----------------------------------------------------------

def _fold_datagen(pairs: Pairs, report: ExperimentReport) -> None:
    """No platform job: the generator's own modeled scaling."""
    from repro.datagen.flow import FlowVersion, estimate_generation_time

    for sf in (30, 100, 300, 1000, 3000):
        t_old = estimate_generation_time(sf, machines=16, version=FlowVersion.V0_2_1)
        t_new = estimate_generation_time(sf, machines=16, version=FlowVersion.V0_2_6)
        report.rows.append(
            {
                "panel": "old-vs-new",
                "scale_factor": sf,
                "machines": 16,
                "t_v0_2_1": t_old,
                "t_v0_2_6": t_new,
                "speedup": t_old / t_new,
            }
        )
    for machines in (4, 8, 16):
        for sf in (30, 100, 300, 1000, 3000, 10000):
            t = estimate_generation_time(
                sf, machines=machines, version=FlowVersion.V0_2_6
            )
            report.rows.append(
                {
                    "panel": "cluster-size",
                    "scale_factor": sf,
                    "machines": machines,
                    "t_v0_2_6": t,
                }
            )


def _baseline_dataset_ids() -> Tuple[str, ...]:
    """All catalog datasets up to class L, paper order."""
    return tuple(ds.dataset_id for ds in datasets_up_to_class("L"))


EXPERIMENTS: Dict[str, Experiment] = {
    exp.experiment_id: exp
    for exp in (
        Experiment(
            "dataset-variety", "4.1", "Baseline", "Dataset variety",
            ("bfs", "pr"), _baseline_dataset_ids(), (1,), (),
            ("tproc", "eps", "evps"),
            _dataset_variety_cells, _fold_dataset_variety,
        ),
        Experiment(
            "algorithm-variety", "4.2", "Baseline", "Algorithm variety",
            ("bfs", "pr", "wcc", "cdlp", "lcc", "sssp"), ("R4", "D300"),
            (1,), (), ("tproc",),
            _algorithm_variety_cells, _fold_algorithm_variety,
        ),
        Experiment(
            "vertical-scalability", "4.3", "Scalability", "Vertical scalability",
            ("bfs", "pr"), ("D300",), (1,), (1, 2, 4, 8, 16, 32),
            ("tproc", "speedup"), _vertical_cells, _fold_vertical,
        ),
        Experiment(
            "strong-scalability", "4.4", "Scalability",
            "Strong horizontal scalability",
            ("bfs", "pr"), ("D1000",), (1, 2, 4, 8, 16), (),
            ("tproc", "speedup"), _strong_cells, _fold_strong,
        ),
        Experiment(
            "weak-scalability", "4.5", "Scalability",
            "Weak horizontal scalability",
            ("bfs", "pr"), ("G22", "G23", "G24", "G25", "G26"),
            (1, 2, 4, 8, 16), (), ("tproc", "speedup"),
            _weak_cells, _fold_weak,
        ),
        Experiment(
            "stress-test", "4.6", "Robustness", "Stress test",
            ("bfs",), tuple(DATASETS), (1,), (), ("sla",),
            _stress_cells, _fold_stress,
        ),
        Experiment(
            "variability", "4.7", "Robustness", "Performance variability",
            ("bfs",), ("D300", "D1000"), (1, 16), (), ("cv",),
            _variability_cells, _fold_variability,
        ),
        Experiment(
            "data-generation", "4.8", "Self-test", "Data generation",
            (), (), (4, 8, 16), (), ("tgen",),
            lambda exp: (), _fold_datagen,
        ),
    )
}


def get_experiment(experiment_id: str) -> Experiment:
    try:
        return EXPERIMENTS[experiment_id]
    except KeyError:
        raise ConfigurationError(
            f"unknown experiment {experiment_id!r}; known: {', '.join(EXPERIMENTS)}"
        ) from None
