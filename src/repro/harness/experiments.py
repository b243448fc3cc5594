"""The Graphalytics experiment suite (paper §2.3, Table 6, §4.1–4.8).

Each experiment is a self-contained object with Table 6 metadata and a
``run`` method producing an :class:`ExperimentReport` (structured rows
ready to print as the paper's tables/figures). The benchmark scripts in
``benchmarks/`` are thin wrappers over these.

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

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError
from repro.harness.config import BenchmarkConfig
from repro.harness.datasets import DATASETS, datasets_up_to_class, get_dataset
from repro.harness.metrics import coefficient_of_variation, speedup
from repro.harness.runner import BenchmarkRunner
from repro.harness.scale import class_order
from repro.platforms.cluster import ClusterResources
from repro.platforms.registry import PLATFORMS

__all__ = ["Experiment", "ExperimentReport", "EXPERIMENTS", "get_experiment"]

_ALL_PLATFORMS: Tuple[str, ...] = tuple(PLATFORMS)
_DISTRIBUTED_PLATFORMS: Tuple[str, ...] = tuple(
    name for name, (info, _) in PLATFORMS.items() if info.distributed
)


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
    """Table 6 metadata plus an executable body."""

    experiment_id: str
    section: str
    category: str
    title: str
    algorithms: Tuple[str, ...]
    datasets: Tuple[str, ...]
    nodes: Tuple[int, ...]
    threads: Tuple[int, ...]
    metrics: Tuple[str, ...]
    _body: callable = field(repr=False, default=None)  # type: ignore[assignment]

    def run(
        self,
        runner: Optional[BenchmarkRunner] = None,
        *,
        seed: int = 0,
        run_dir=None,
    ) -> ExperimentReport:
        """Execute the body; with ``run_dir``, journaled and resumable.

        A journaled experiment records every completed job durably under
        *run_dir*; re-running with the same directory replays the
        recorded jobs and executes only the remainder, so a crashed
        experiment finishes where it stopped (docs/robustness.md).
        With *run_dir* the experiment also exports its span tree to
        ``run_dir/trace.jsonl`` (docs/observability.md).
        """
        from repro.runtime.journal import journaled_run
        from repro.trace import current_tracer

        runner = runner or BenchmarkRunner(BenchmarkConfig(seed=seed))
        report = ExperimentReport(self.experiment_id, self.title)
        header = {
            "kind": "experiment",
            "experiment": self.experiment_id,
            "seed": runner.config.seed,
        }
        with journaled_run(
            run_dir, header, identity=tuple(header)
        ) as journaled, runner.journaling(journaled.journal, journaled.replay):
            with current_tracer().span(
                "experiment",
                experiment=self.experiment_id,
                section=self.section,
            ):
                self._body(self, runner, report)
        return report


def _resources(machines: int = 1, threads: Optional[int] = None) -> ClusterResources:
    return ClusterResources(machines=machines, threads=threads)


def _status_code(result) -> str:
    """Paper figure annotations: ok, F (failed), NA (not implemented)."""
    if result.status == "not-supported":
        return "NA"
    if result.succeeded and result.sla_compliant:
        return "ok"
    return "F"


# -- 4.1 Dataset variety ----------------------------------------------------

def _run_dataset_variety(exp: Experiment, runner: BenchmarkRunner,
                         report: ExperimentReport) -> None:
    for platform in _ALL_PLATFORMS:
        for dataset_id in exp.datasets:
            for algorithm in exp.algorithms:
                result = runner.run_job(platform, dataset_id, algorithm)
                report.rows.append(
                    {
                        "platform": result.platform,
                        "dataset": dataset_id,
                        "dataset_label": get_dataset(dataset_id).label,
                        "algorithm": algorithm,
                        "tproc": result.modeled_processing_time,
                        "eps": result.eps,
                        "evps": result.evps,
                        "makespan": result.modeled_makespan,
                        "sla_compliant": result.sla_compliant,
                        "status": _status_code(result),
                    }
                )


# -- 4.2 Algorithm variety ----------------------------------------------------

def _run_algorithm_variety(exp: Experiment, runner: BenchmarkRunner,
                           report: ExperimentReport) -> None:
    for dataset_id in exp.datasets:
        dataset = get_dataset(dataset_id)
        for algorithm in exp.algorithms:
            for platform in _ALL_PLATFORMS:
                if not runner.can_run(platform, dataset, algorithm):
                    report.rows.append(
                        {
                            "platform": platform,
                            "dataset": dataset_id,
                            "algorithm": algorithm,
                            "tproc": None,
                            "sla_compliant": None,
                            "status": "NA",
                        }
                    )
                    continue
                result = runner.run_job(platform, dataset_id, algorithm)
                report.rows.append(
                    {
                        "platform": result.platform,
                        "dataset": dataset_id,
                        "algorithm": algorithm,
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

def _run_vertical(exp: Experiment, runner: BenchmarkRunner,
                  report: ExperimentReport) -> None:
    dataset_id = exp.datasets[0]
    for platform in _ALL_PLATFORMS:
        for algorithm in exp.algorithms:
            baseline: Optional[float] = None
            best = 0.0
            for threads in exp.threads:
                result = runner.run_job(
                    platform, dataset_id, algorithm,
                    resources=_resources(threads=threads),
                )
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
                        "threads": threads,
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

def _run_strong(exp: Experiment, runner: BenchmarkRunner,
                report: ExperimentReport) -> None:
    dataset_id = exp.datasets[0]
    for platform in _DISTRIBUTED_PLATFORMS:
        for algorithm in exp.algorithms:
            baseline: Optional[float] = None
            for machines in exp.nodes:
                result = runner.run_job(
                    platform, dataset_id, algorithm,
                    resources=_resources(machines=machines),
                )
                ok = result.succeeded and result.sla_compliant
                tproc = result.modeled_processing_time if ok else None
                if tproc is not None and baseline is None:
                    baseline = tproc
                report.rows.append(
                    {
                        "platform": result.platform,
                        "algorithm": algorithm,
                        "machines": machines,
                        "tproc": tproc,
                        "speedup": (
                            speedup(baseline, tproc) if (baseline and tproc) else None
                        ),
                        "sla_compliant": result.sla_compliant,
                        "status": _status_code(result),
                    }
                )


def _run_weak(exp: Experiment, runner: BenchmarkRunner,
              report: ExperimentReport) -> None:
    series = list(zip(exp.datasets, exp.nodes))
    for platform in _DISTRIBUTED_PLATFORMS:
        for algorithm in exp.algorithms:
            baseline: Optional[float] = None
            for dataset_id, machines in series:
                result = runner.run_job(
                    platform, dataset_id, algorithm,
                    resources=_resources(machines=machines),
                )
                ok = result.succeeded and result.sla_compliant
                tproc = result.modeled_processing_time if ok else None
                if tproc is not None and baseline is None:
                    baseline = tproc
                report.rows.append(
                    {
                        "platform": result.platform,
                        "algorithm": algorithm,
                        "dataset": dataset_id,
                        "machines": machines,
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

def _run_stress(exp: Experiment, runner: BenchmarkRunner,
                report: ExperimentReport) -> None:
    datasets = sorted(
        (get_dataset(d) for d in exp.datasets),
        key=lambda ds: (ds.profile.scale, ds.dataset_id),
    )
    for platform in _ALL_PLATFORMS:
        smallest_failure = None
        for dataset in datasets:
            result = runner.run_job(platform, dataset.dataset_id, "bfs")
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
                "platform": platform,
                "summary": "stress-limit",
                "dataset": smallest_failure.dataset_id if smallest_failure else None,
                "scale": smallest_failure.profile.scale if smallest_failure else None,
            }
        )


# -- 4.7 Variability ------------------------------------------------------------

def _run_variability(exp: Experiment, runner: BenchmarkRunner,
                     report: ExperimentReport) -> None:
    repetitions = 10
    configs = [
        ("S", exp.datasets[0], 1, _ALL_PLATFORMS),
        ("D", exp.datasets[1], 16, _DISTRIBUTED_PLATFORMS),
    ]
    for label, dataset_id, machines, platforms in configs:
        for platform in platforms:
            times: List[float] = []
            compliant = True
            for run_index in range(repetitions):
                result = runner.run_job(
                    platform, dataset_id, "bfs",
                    resources=_resources(machines=machines),
                    run_index=run_index,
                )
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
                    "config": label,
                    "platform": platform,
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

def _run_datagen(exp: Experiment, runner: BenchmarkRunner,
                 report: ExperimentReport) -> None:
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
            ("tproc", "eps", "evps"), _run_dataset_variety,
        ),
        Experiment(
            "algorithm-variety", "4.2", "Baseline", "Algorithm variety",
            ("bfs", "pr", "wcc", "cdlp", "lcc", "sssp"), ("R4", "D300"),
            (1,), (), ("tproc",), _run_algorithm_variety,
        ),
        Experiment(
            "vertical-scalability", "4.3", "Scalability", "Vertical scalability",
            ("bfs", "pr"), ("D300",), (1,), (1, 2, 4, 8, 16, 32),
            ("tproc", "speedup"), _run_vertical,
        ),
        Experiment(
            "strong-scalability", "4.4", "Scalability",
            "Strong horizontal scalability",
            ("bfs", "pr"), ("D1000",), (1, 2, 4, 8, 16), (),
            ("tproc", "speedup"), _run_strong,
        ),
        Experiment(
            "weak-scalability", "4.5", "Scalability",
            "Weak horizontal scalability",
            ("bfs", "pr"), ("G22", "G23", "G24", "G25", "G26"),
            (1, 2, 4, 8, 16), (), ("tproc", "speedup"), _run_weak,
        ),
        Experiment(
            "stress-test", "4.6", "Robustness", "Stress test",
            ("bfs",), tuple(DATASETS), (1,), (), ("sla",), _run_stress,
        ),
        Experiment(
            "variability", "4.7", "Robustness", "Performance variability",
            ("bfs",), ("D300", "D1000"), (1, 16), (), ("cv",), _run_variability,
        ),
        Experiment(
            "data-generation", "4.8", "Self-test", "Data generation",
            (), (), (4, 8, 16), (), ("tgen",), _run_datagen,
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
