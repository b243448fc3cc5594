"""Benchmark runs: ``run``, ``job``, ``report``, ``reproduce``,
``full-run``, ``resume``, ``estimate``, ``analyze`` and ``granula``."""

from __future__ import annotations

from repro.cli import (
    SEED, SELECT_ALGORITHMS, SELECT_DATASETS, THREADS, arg, command, fmt, workers,
)
from repro.exceptions import ConfigurationError

MACHINES = arg("--machines", type=int, default=1)
JOB_TIMEOUT = arg(
    "--job-timeout", type=float, default=None,
    help="per-job wall-clock budget in seconds; an overrunning job is "
         "killed, so a timed run uses worker processes at any --workers",
)


@command(
    "run",
    arg("experiment", help="experiment id (e.g. dataset-variety)"),
    SEED,
    arg("--figure", action="store_true",
        help="render an ASCII log-scale figure instead of raw rows"),
    workers(1, "execute the experiment's jobs on this many worker "
               "processes ('auto' = the host CPU count; same report at "
               "any count, see docs/runtime.md)"),
    arg("--run-dir", default=None,
        help="journal the experiment under this directory; re-running "
             "with the same directory resumes a crashed run"),
)
def run_experiment(args) -> int:
    """run one experiment"""
    from repro.harness.experiments import get_experiment
    from repro.runtime.executor import RuntimeConfig, resolve_workers

    experiment = get_experiment(args.experiment)
    print(f"running experiment {experiment.experiment_id} "
          f"({experiment.title}, paper §{experiment.section}) ...")
    report = experiment.run(
        seed=args.seed,
        run_dir=args.run_dir,
        runtime=RuntimeConfig(workers=resolve_workers(args.workers)),
    )
    if args.figure:
        _print_figure(experiment, report)
    else:
        for row in report.rows:
            print("  " + "  ".join(f"{k}={fmt(v)}" for k, v in row.items()))
    for note in report.notes:
        print(f"# {note}")
    return 0


def _print_figure(experiment, report) -> None:
    from repro.harness.figures import render_dataset_variety, render_scaling

    algorithms = experiment.algorithms or ("bfs",)
    for algorithm in algorithms:
        if any("machines" in row for row in report.rows):
            print(render_scaling(
                report, algorithm, x_values=experiment.nodes or (1,)
            ))
        elif any("threads" in row for row in report.rows):
            print(render_scaling(
                report, algorithm, x_field="threads",
                x_values=experiment.threads or (1,),
            ))
        elif any("dataset" in row for row in report.rows):
            print(render_dataset_variety(report, algorithm))
        else:
            print("(this experiment has no figure rendering)")
            return
        print()


@command("job", "platform", "dataset", "algorithm", MACHINES, THREADS, SEED)
def single_job(args) -> int:
    """run a single benchmark job"""
    from repro.harness.config import BenchmarkConfig
    from repro.harness.runner import BenchmarkRunner
    from repro.platforms.cluster import ClusterResources

    runner = BenchmarkRunner(BenchmarkConfig(seed=args.seed))
    result = runner.run_job(
        args.platform,
        args.dataset,
        args.algorithm,
        resources=ClusterResources(machines=args.machines, threads=args.threads),
    )
    for key, value in result.as_dict().items():
        print(f"{key:28s} {fmt(value) if value is not None else '-'}")
    return 0


@command(
    "report",
    arg("--platforms", nargs="*", default=None),
    SELECT_DATASETS,
    SELECT_ALGORITHMS,
    SEED,
    arg("--output", help="write the report to this path"),
    workers(1, "execute the matrix on this many worker processes "
               "('auto' = the host CPU count; deterministic merge, "
               "see docs/runtime.md)"),
    arg("--cache-dir", default=None,
        help="persistent materialized-graph cache directory "
             "(default: a private per-run directory)"),
    JOB_TIMEOUT,
    arg("--run-dir", default=None,
        help="journal the run under this directory (crash-safe; an "
             "existing journal of the same matrix is resumed)"),
    arg("--machines", type=int, default=1,
        help="machines per job; pythonref runs on that many shards "
             "(bit-identical outputs, see docs/scaling.md) and "
             "non-distributed platforms are skipped"),
)
def report(args) -> int:
    """run a benchmark selection and render a Markdown report"""
    from repro.harness.config import BenchmarkConfig
    from repro.harness.report import render_report, save_report
    from repro.harness.runner import BenchmarkRunner
    from repro.platforms.cluster import ClusterResources
    from repro.runtime.executor import RuntimeConfig, resolve_workers

    overrides = {}
    if args.platforms:
        overrides["platforms"] = args.platforms
    if args.datasets:
        overrides["datasets"] = args.datasets
    if args.algorithms:
        overrides["algorithms"] = args.algorithms
    config = BenchmarkConfig(
        seed=args.seed,
        resources=ClusterResources(machines=args.machines),
        **overrides,
    )
    runner = BenchmarkRunner(config)
    database = runner.run(
        runtime=RuntimeConfig(
            workers=resolve_workers(args.workers),
            cache_dir=args.cache_dir,
            job_timeout=args.job_timeout,
        ),
        run_dir=args.run_dir,
    )
    if runner.last_run.restored_jobs:
        print(f"# journal: restored {runner.last_run.restored_jobs} "
              f"job(s) from {args.run_dir}")
    print(f"# runtime: {runner.last_run.describe()}")
    if args.output:
        path = save_report(database, args.output)
        print(f"report written to {path}")
    else:
        print(render_report(database))
    return 0


@command(
    "reproduce",
    arg("artifacts", nargs="*", metavar="ARTIFACT",
        help="artifact ids, e.g. table05 figure02 (default: all of them)"),
)
def reproduce(args) -> int:
    """print paper artifacts beside their reproduction, as Markdown"""
    from repro.harness.reproduce import report

    print(report(args.artifacts), end="")
    return 0


@command(
    "full-run",
    SEED,
    arg("--report", help="write the composite report here"),
    arg("--repository",
        help="submit the validated run to this repository dir"),
    arg("--experiments", nargs="*", default=None,
        help="subset of experiment ids (default: all eight)"),
    workers(1, "execute the suite's jobs on this many worker processes "
               "('auto' = the host CPU count; same reports at any count)"),
    arg("--run-dir", default=None,
        help="journal the suite under this directory; re-running with "
             "the same directory resumes a crashed run"),
)
def full_run(args) -> int:
    """run the complete experiment suite (Table 6)"""
    from contextlib import nullcontext
    from pathlib import Path

    from repro.harness.full_run import run_full_benchmark
    from repro.resultsdb.store import STORE_NAME, ResultsStore
    from repro.runtime.executor import resolve_workers

    with (
        ResultsStore(Path(args.repository) / STORE_NAME)
        if args.repository else nullcontext()
    ) as store:
        result = run_full_benchmark(
            seed=args.seed,
            experiment_ids=args.experiments,
            report_path=args.report,
            store=store,
            workers=resolve_workers(args.workers),
            run_dir=args.run_dir,
        )
    print(
        f"ran {len(result.reports)} experiments, {result.job_count} jobs"
    )
    for note in result.notes:
        print(f"# {note}")
    if args.report:
        print(f"report written to {args.report}")
    if store is not None:
        print(f"run stored in {args.repository}")
    return 0


@command(
    "resume",
    arg("run_dir", help="directory holding journal.jsonl"),
    workers(1, "worker processes for the remaining jobs ('auto' = the host "
               "CPU count; may differ from the crashed run)"),
    JOB_TIMEOUT,
)
def resume(args) -> int:
    """continue a crashed journaled run from its run directory"""
    from repro.runtime.executor import RuntimeConfig, resolve_workers, resume_run

    runtime = RuntimeConfig(
        workers=resolve_workers(args.workers), job_timeout=args.job_timeout
    )
    outcome = resume_run(args.run_dir, runtime)
    replay = outcome.replay
    if replay.truncated_bytes:
        print(f"# journal: dropped a torn tail of "
              f"{replay.truncated_bytes} byte(s)")
    print(f"# journal: restored {outcome.restored_jobs} of "
          f"{outcome.dag_size} job(s); "
          f"{outcome.dag_size - outcome.restored_jobs} executed now")
    print(f"# runtime: {outcome.describe()}")
    header = replay.header
    if header.get("experiments") is not None:
        # A suite run: say what its rows say (and rewrite the report).
        from repro.harness.full_run import fold_full_run

        for note in fold_full_run(
            header["experiments"], outcome.database, header.get("report")
        ).notes:
            print(f"# {note}")
    print(f"results written to {outcome.run_dir / 'results.json'}")
    return 0


@command(
    "estimate",
    "platform",
    "algorithm",
    arg("--vertices", type=float, required=True,
        help="full-scale vertex count (e.g. 4.35e6)"),
    arg("--edges", type=float, required=True,
        help="full-scale edge count (e.g. 304e6)"),
    arg("--skew", type=float, default=1.0,
        help="memory-skew factor (Datagen ~1.0, Graph500 ~1.5)"),
    arg("--degree-cv2", type=float, default=2.0),
    MACHINES,
    THREADS,
)
def estimate(args) -> int:
    """model Tproc/makespan/memory for a hypothetical workload"""
    from repro.harness.scale import scale_class
    from repro.harness.sla import SLA_MAKESPAN_SECONDS
    from repro.platforms.cluster import ClusterResources
    from repro.platforms.model import WorkloadProfile
    from repro.platforms.registry import create_driver

    for flag, count in (("--vertices", args.vertices), ("--edges", args.edges)):
        if not 1 <= count < float("inf"):
            raise ConfigurationError(
                f"{flag} must be a count of at least 1, got {count:g}"
            )
    driver = create_driver(args.platform)
    v, e = int(args.vertices), int(args.edges)
    profile = WorkloadProfile(
        name="hypothetical",
        num_vertices=v,
        num_edges=e,
        directed=False,
        weighted=True,
        mean_degree=2.0 * e / v,
        degree_cv2=args.degree_cv2,
        memory_skew=args.skew,
    )
    resources = ClusterResources(machines=args.machines, threads=args.threads)
    model = driver.model
    print(f"workload: |V|={v:,} |E|={e:,} scale={profile.scale} "
          f"({scale_class(profile.scale)})")
    print(f"resources: {resources.describe()}")
    demand = model.memory_demand_per_machine(args.algorithm, profile, resources)
    capacity = model.memory_capacity_per_machine(resources)
    print(f"memory/machine: {demand / 2**30:.1f} GiB of "
          f"{capacity / 2**30:.1f} GiB usable "
          f"({'fits' if demand <= capacity else 'OUT OF MEMORY'})")
    if demand > capacity:
        return 1
    tproc = model.processing_time(args.algorithm, profile, resources)
    makespan = model.makespan(args.algorithm, profile, resources,
                              processing_time=tproc)
    print(f"modeled Tproc: {tproc:.2f} s")
    print(f"modeled makespan: {makespan:.1f} s "
          f"({'within' if makespan <= SLA_MAKESPAN_SECONDS else 'BREAKS'} "
          f"the 1-hour SLA)")
    print(f"modeled EVPS: {profile.elements / tproc:.3g}")
    return 0


@command(
    "analyze",
    "platform_a",
    "platform_b",
    "dataset",
    "algorithm",
    arg("--repetitions", type=int, default=6),
    SEED,
)
def analyze(args) -> int:
    """repeated-run head-to-head of two platforms (t-test)"""
    from repro.harness.analysis import (
        check_distinct_platforms,
        compare_platforms,
        summarize_measurements,
    )
    from repro.harness.config import BenchmarkConfig
    from repro.harness.runner import BenchmarkRunner

    check_distinct_platforms(args.platform_a, args.platform_b)
    config = BenchmarkConfig(
        platforms=[args.platform_a, args.platform_b],
        datasets=[args.dataset],
        algorithms=[args.algorithm],
        repetitions=args.repetitions,
        seed=args.seed,
    )
    database = BenchmarkRunner(config).run()
    for platform in (args.platform_a, args.platform_b):
        times = database.processing_times(
            platform=platform, algorithm=args.algorithm, dataset=args.dataset
        )
        if len(times) >= 2:
            summary = summarize_measurements(times)
            print(
                f"{platform}: mean {summary.mean:.3g} s "
                f"(95% CI {summary.ci_low:.3g}..{summary.ci_high:.3g}, "
                f"CV {summary.cv * 100:.1f}%, n={summary.count})"
            )
        else:
            print(f"{platform}: insufficient successful runs ({len(times)})")
    comparison = compare_platforms(
        database, args.platform_a, args.platform_b,
        algorithm=args.algorithm, dataset=args.dataset,
    )
    verdict = "significant" if comparison.significant else "not significant"
    p_text = f", p={comparison.p_value:.2e}" if comparison.p_value else ""
    print(
        f"{comparison.faster} is {comparison.speedup:.2f}x faster than "
        f"{comparison.slower} ({verdict}{p_text})"
    )
    return 0


@command(
    "granula",
    "platform",
    "dataset",
    "algorithm",
    arg("--html", help="write an HTML report to this path"),
)
def granula(args) -> int:
    """run a job and render its archive"""
    from repro.granula.archiver import build_archive
    from repro.granula.visualizer import render_text, save_html
    from repro.harness.datasets import get_dataset
    from repro.platforms.registry import create_driver

    dataset = get_dataset(args.dataset)
    driver = create_driver(args.platform)
    handle = driver.upload(dataset.materialize(), profile=dataset.profile)
    job = driver.execute(
        handle, args.algorithm, dataset.algorithm_parameters(args.algorithm)
    )
    if not job.succeeded:
        print(f"job failed: {job.status.value} ({job.failure_reason})")
        return 1
    archive = build_archive(job)
    print(render_text(archive))
    if args.html:
        path = save_html(archive, args.html)
        print(f"HTML report written to {path}")
    return 0
