"""Command-line interface: ``graphalytics <command>``.

Commands:

* ``datasets`` — print the dataset catalog (Tables 3 and 4);
* ``platforms`` — print the platform roster (Table 5);
* ``experiments`` — list the experiment suite (Table 6);
* ``run`` — run one experiment and print its report;
* ``job`` — run a single (platform, dataset, algorithm) job;
* ``generate`` — generate a Datagen graph and write it in EVL format;
* ``granula`` — run one job and render its Granula archive;
* ``lint`` — static determinism/conformance analysis of the codebase;
* ``cache`` — inspect or clear the materialized-graph cache;
* ``run``/``report``/``full-run`` — accept ``--workers N`` to execute
  their jobs on the concurrent runtime (docs/runtime.md);
* ``resume`` — continue a crashed journaled run from its run directory
  (``--run-dir`` on run/report/full-run; docs/robustness.md);
* ``trace`` — render the span tree (or per-job summary) of a run
  directory's ``trace.jsonl`` (docs/observability.md);
* ``serve``/``submit``/``watch``/``fetch`` — the benchmark service:
  run the multi-tenant HTTP server, submit a matrix to it, stream a
  run's journal + trace as SSE, and download finished artifacts
  (docs/service.md).

Every ``--workers`` flag accepts an integer or ``auto``; ``auto`` (and
any request above the host's CPU count) resolves to the number of CPUs
(:func:`repro.runtime.executor.resolve_workers`).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.exceptions import ConfigurationError, GraphalyticsError

__all__ = ["main", "build_parser"]


def _workers_type(value: str):
    """``--workers`` argument: a positive integer or the word ``auto``."""
    if value == "auto":
        return "auto"
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or 'auto', got {value!r}"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphalytics",
        description="LDBC Graphalytics reproduction benchmark",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="print the dataset catalog")
    sub.add_parser("selfcheck", help="verify this installation is healthy")
    sub.add_parser("platforms", help="print the platform roster")
    sub.add_parser("experiments", help="list the experiment suite")

    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("experiment", help="experiment id (e.g. dataset-variety)")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--figure", action="store_true",
        help="render an ASCII log-scale figure instead of raw rows",
    )
    run.add_argument(
        "--workers", type=_workers_type, default=1,
        help="execute the experiment's jobs on this many worker "
             "processes ('auto' = the host CPU count; same report at "
             "any count, see docs/runtime.md)",
    )
    run.add_argument(
        "--run-dir", default=None,
        help="journal the experiment under this directory; re-running "
             "with the same directory resumes a crashed run",
    )

    job = sub.add_parser("job", help="run a single benchmark job")
    job.add_argument("platform")
    job.add_argument("dataset")
    job.add_argument("algorithm")
    job.add_argument("--machines", type=int, default=1)
    job.add_argument("--threads", type=int, default=None)
    job.add_argument("--seed", type=int, default=0)

    gen = sub.add_parser("generate", help="generate a synthetic graph (EVL files)")
    gen.add_argument("prefix", help="output path prefix (writes .v and .e)")
    gen.add_argument(
        "--generator", choices=("datagen", "graph500"), default="datagen"
    )
    gen.add_argument("--persons", type=int, default=1000,
                     help="datagen: number of persons")
    gen.add_argument("--mean-degree", type=float, default=18.0,
                     help="datagen: target mean degree")
    gen.add_argument("--target-cc", type=float, default=None,
                     help="datagen: target average clustering coefficient")
    gen.add_argument("--scale", type=int, default=12,
                     help="graph500: 2^scale vertex slots")
    gen.add_argument("--edgefactor", type=int, default=16,
                     help="graph500: edges per vertex slot")
    gen.add_argument("--weighted", action="store_true")
    gen.add_argument("--seed", type=int, default=0)

    gran = sub.add_parser("granula", help="run a job and render its archive")
    gran.add_argument("platform")
    gran.add_argument("dataset")
    gran.add_argument("algorithm")
    gran.add_argument("--html", help="write an HTML report to this path")

    report = sub.add_parser(
        "report", help="run a benchmark selection and render a Markdown report"
    )
    report.add_argument("--platforms", nargs="*", default=None)
    report.add_argument("--datasets", nargs="*", default=None)
    report.add_argument("--algorithms", nargs="*", default=None)
    report.add_argument("--seed", type=int, default=0)
    report.add_argument("--output", help="write the report to this path")
    report.add_argument(
        "--workers", type=_workers_type, default=1,
        help="execute the matrix on this many worker processes "
             "('auto' = the host CPU count; deterministic merge, "
             "see docs/runtime.md)",
    )
    report.add_argument(
        "--cache-dir", default=None,
        help="persistent materialized-graph cache directory "
             "(default: a private per-run directory)",
    )
    report.add_argument(
        "--job-timeout", type=float, default=None,
        help="per-job wall-clock budget in seconds (workers > 1 only)",
    )
    report.add_argument(
        "--run-dir", default=None,
        help="journal the run under this directory (crash-safe; an "
             "existing journal of the same matrix is resumed)",
    )
    report.add_argument(
        "--machines", type=int, default=1,
        help="machines per job; pythonref runs on that many shards "
             "(bit-identical outputs, see docs/scaling.md) and "
             "non-distributed platforms are skipped",
    )

    val = sub.add_parser(
        "validate",
        help="validate a platform output file against the reference",
    )
    val.add_argument("dataset")
    val.add_argument("algorithm")
    val.add_argument("output_file")
    val.add_argument("--seed", type=int, default=0)

    mat = sub.add_parser(
        "materialize",
        help="write the dataset archive (EVL files + reference outputs)",
    )
    mat.add_argument("directory")
    mat.add_argument("--datasets", nargs="*", default=None)
    mat.add_argument("--algorithms", nargs="*", default=None)
    mat.add_argument("--seed", type=int, default=0)

    est = sub.add_parser(
        "estimate",
        help="model Tproc/makespan/memory for a hypothetical workload",
    )
    est.add_argument("platform")
    est.add_argument("algorithm")
    est.add_argument("--vertices", type=float, required=True,
                     help="full-scale vertex count (e.g. 4.35e6)")
    est.add_argument("--edges", type=float, required=True,
                     help="full-scale edge count (e.g. 304e6)")
    est.add_argument("--skew", type=float, default=1.0,
                     help="memory-skew factor (Datagen ~1.0, Graph500 ~1.5)")
    est.add_argument("--degree-cv2", type=float, default=2.0)
    est.add_argument("--machines", type=int, default=1)
    est.add_argument("--threads", type=int, default=None)

    ana = sub.add_parser(
        "analyze",
        help="repeated-run head-to-head of two platforms (t-test)",
    )
    ana.add_argument("platform_a")
    ana.add_argument("platform_b")
    ana.add_argument("dataset")
    ana.add_argument("algorithm")
    ana.add_argument("--repetitions", type=int, default=6)
    ana.add_argument("--seed", type=int, default=0)

    db = sub.add_parser(
        "db", help="canned queries over the SQLite results store"
    )
    db.add_argument(
        "--store", default=None,
        help="results.db path, or a repository/spool directory holding "
             "one (required for every subcommand except import, which "
             "defaults to <directory>/results.db)",
    )
    db_sub = db.add_subparsers(dest="db_command", required=True)
    db_sub.add_parser(
        "runs", help="stored runs: id, system under test, job count"
    )
    db_top = db_sub.add_parser(
        "top", help="platform leaderboard for one workload"
    )
    db_top.add_argument("algorithm")
    db_top.add_argument("dataset")
    db_top.add_argument(
        "--limit", type=int, default=None, help="show only the first N rows"
    )
    db_trend = db_sub.add_parser(
        "trend",
        help="one platform x algorithm x dataset cell across stored runs",
    )
    db_trend.add_argument("platform")
    db_trend.add_argument("algorithm")
    db_trend.add_argument("dataset")
    db_trend.add_argument("--machines", type=int, default=None)
    db_trend.add_argument("--threads", type=int, default=None)
    db_regress = db_sub.add_parser(
        "regressions", help="workloads slower in a newer stored run"
    )
    db_regress.add_argument("old_run")
    db_regress.add_argument("new_run")
    db_regress.add_argument("--threshold", type=float, default=1.10)
    db_import = db_sub.add_parser(
        "import",
        help="migrate a legacy JSON repository directory into the store",
    )
    db_import.add_argument("directory")
    db_import.add_argument(
        "--replace", action="store_true",
        help="overwrite runs the store already holds",
    )
    db_import.add_argument(
        "--no-verify", action="store_true",
        help="skip the byte-identical round-trip check",
    )
    db_timeline = db_sub.add_parser(
        "timeline", help="render a stored run's trace spans as a phase tree"
    )
    db_timeline.add_argument("run_id")
    db_sub.add_parser("stats", help="store row counts and database size")

    lint = sub.add_parser(
        "lint",
        help="static determinism & benchmark-conformance analysis",
    )
    lint.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (default: the repro package)",
    )
    lint.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format",
    )
    lint.add_argument(
        "--select", nargs="*", default=None,
        help="run only these rule ids (e.g. DET001 CON002)",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="print the rule table and exit",
    )
    lint.add_argument(
        "--no-project", action="store_true",
        help="skip the whole-program phase (project model, call graph, "
             "interprocedural rules); per-file rules only",
    )

    full = sub.add_parser(
        "full-run", help="run the complete experiment suite (Table 6)"
    )
    full.add_argument("--seed", type=int, default=0)
    full.add_argument("--report", help="write the composite report here")
    full.add_argument(
        "--repository", help="submit the validated run to this repository dir"
    )
    full.add_argument(
        "--experiments", nargs="*", default=None,
        help="subset of experiment ids (default: all eight)",
    )
    full.add_argument(
        "--workers", type=_workers_type, default=1,
        help="execute the suite's jobs on this many worker processes "
             "('auto' = the host CPU count; same reports at any count)",
    )
    full.add_argument(
        "--run-dir", default=None,
        help="journal the suite under this directory; re-running with "
             "the same directory resumes a crashed run",
    )

    resume = sub.add_parser(
        "resume",
        help="continue a crashed journaled run from its run directory",
    )
    resume.add_argument("run_dir", help="directory holding journal.jsonl")
    resume.add_argument(
        "--workers", type=_workers_type, default=1,
        help="worker processes for the remaining jobs ('auto' = the host "
             "CPU count; may differ from the crashed run)",
    )
    resume.add_argument(
        "--job-timeout", type=float, default=None,
        help="per-job wall-clock budget in seconds (workers > 1 only)",
    )

    cache = sub.add_parser(
        "cache", help="inspect or clear the materialized-graph cache"
    )
    cache.add_argument(
        "--dir", dest="cache_dir", default=None,
        help="cache directory (default: $GRAPHALYTICS_CACHE_DIR or the "
             "XDG cache home)",
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_sub.add_parser("stats", help="entry inventory")
    cache_sub.add_parser("clear", help="remove every cached entry")

    trace = sub.add_parser(
        "trace", help="inspect the span trace of a journaled run"
    )
    trace.add_argument(
        "run_dir",
        help="run directory holding trace.jsonl (or the file itself)",
    )
    trace.add_argument(
        "--summary", action="store_true",
        help="per-job metric table instead of the full span tree",
    )
    trace.add_argument(
        "--max-depth", type=int, default=None,
        help="truncate the span tree below this depth",
    )
    trace.add_argument(
        "--min-ms", type=float, default=0.0,
        help="hide spans shorter than this many milliseconds",
    )

    serve = sub.add_parser(
        "serve", help="run the benchmark service (HTTP submissions + SSE)"
    )
    serve.add_argument(
        "--spool", default="service-spool",
        help="directory holding every submitted run (survives restarts)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8735,
        help="listen port (0 picks a free port; the bound address is "
             "printed on boot)",
    )
    serve.add_argument(
        "--workers", type=_workers_type, default="auto",
        help="default worker count per run ('auto' = the host CPU count)",
    )
    serve.add_argument(
        "--job-timeout", type=float, default=None,
        help="default per-job wall-clock budget forwarded to runs",
    )
    serve.add_argument(
        "--max-running", type=int, default=2,
        help="global cap on concurrently executing runs",
    )
    serve.add_argument(
        "--tenant-depth", type=int, default=4,
        help="per-tenant queued-run quota (429 over it)",
    )
    serve.add_argument(
        "--tenant-running", type=int, default=1,
        help="per-tenant concurrently-running quota",
    )
    serve.add_argument(
        "--run-attempts", type=int, default=3,
        help="launches per run before quarantine (counted across "
             "restarts via the durable attempt ledger)",
    )
    serve.add_argument(
        "--run-backoff", type=float, default=0.5,
        help="base of the exponential relaunch backoff after a run "
             "child dies (base * 2^(attempt-1) seconds)",
    )
    serve.add_argument(
        "--breaker-threshold", type=int, default=3,
        help="consecutive run-child deaths that open a tenant's "
             "circuit breaker (503 on new submissions)",
    )
    serve.add_argument(
        "--breaker-cooldown", type=float, default=30.0,
        help="seconds an open circuit sheds a tenant's submissions",
    )

    submit = sub.add_parser(
        "submit", help="submit a benchmark matrix to the service"
    )
    submit.add_argument(
        "matrix",
        help="path to a JSON matrix file, or the word 'example' for the "
             "standard example matrix",
    )
    submit.add_argument("--tenant", default="cli",
                        help="tenant name for fair-share scheduling")
    submit.add_argument("--host", default="127.0.0.1")
    submit.add_argument("--port", type=int, default=8735)
    submit.add_argument(
        "--workers", type=_workers_type, default=None,
        help="per-run worker override (integer or 'auto')",
    )
    submit.add_argument("--job-timeout", type=float, default=None)
    submit.add_argument(
        "--retries", type=int, default=0,
        help="retry 429/503/connection failures this many times with "
             "capped exponential backoff (honors Retry-After)",
    )
    submit.add_argument(
        "--chaos", default=None,
        help="path to a JSON I/O fault plan the run child installs "
             "(seeded, deterministic; see docs/robustness.md)",
    )
    submit.add_argument(
        "--watch", action="store_true",
        help="stay attached and stream the run's events after submitting",
    )

    watch = sub.add_parser(
        "watch", help="stream a service run's journal + trace as it executes"
    )
    watch.add_argument("run_id")
    watch.add_argument("--host", default="127.0.0.1")
    watch.add_argument("--port", type=int, default=8735)
    watch.add_argument(
        "--reconnects", type=int, default=5,
        help="consecutive dropped-stream reconnects before giving up "
             "(resumes from the last-seen offset, no duplicates)",
    )

    fetch = sub.add_parser(
        "fetch", help="download a finished service run's artifacts"
    )
    fetch.add_argument("run_id")
    fetch.add_argument(
        "--artifact",
        choices=("results", "archive", "trace", "outcome", "quarantine"),
        default="results",
    )
    fetch.add_argument(
        "--output", default=None,
        help="write to this path (default: print to stdout)",
    )
    fetch.add_argument("--host", default="127.0.0.1")
    fetch.add_argument("--port", type=int, default=8735)

    health = sub.add_parser(
        "health", help="print the service's /v1/healthz report"
    )
    health.add_argument("--host", default="127.0.0.1")
    health.add_argument("--port", type=int, default=8735)

    return parser


def _cmd_datasets() -> int:
    from repro.harness.datasets import DATASETS

    print(f"{'id':7s} {'name':22s} {'|V|':>10s} {'|E|':>12s} "
          f"{'scale':>5s} {'class':>5s} {'domain'}")
    for ds in DATASETS.values():
        p = ds.profile
        print(f"{ds.dataset_id:7s} {p.name:22s} {p.num_vertices:>10,d} "
              f"{p.num_edges:>12,d} {p.scale:>5.1f} {ds.tshirt:>5s} {ds.domain}")
    return 0


def _cmd_selfcheck() -> int:
    from repro.harness.selfcheck import run_selfcheck

    results = run_selfcheck()
    failed = 0
    for result in results:
        status = "ok" if result.passed else "FAIL"
        print(f"[{status:>4s}] {result.name}: {result.detail}")
        if not result.passed:
            failed += 1
    if failed:
        print(f"{failed} of {len(results)} checks failed")
        return 1
    print(f"all {len(results)} checks passed")
    return 0


def _cmd_platforms() -> int:
    from repro.platforms.registry import PLATFORMS

    print(f"{'type':6s} {'name':12s} {'vendor':14s} {'lang':6s} "
          f"{'model':12s} {'version'}")
    for info, _ in PLATFORMS.values():
        print(f"{info.type_code:6s} {info.name:12s} {info.vendor:14s} "
              f"{info.language:6s} {info.programming_model:12s} {info.version}")
    return 0


def _cmd_experiments() -> int:
    from repro.harness.experiments import EXPERIMENTS

    print(f"{'id':22s} {'sec':4s} {'category':12s} {'title'}")
    for exp in EXPERIMENTS.values():
        print(f"{exp.experiment_id:22s} {exp.section:4s} "
              f"{exp.category:12s} {exp.title}")
    return 0


def _cmd_run(args) -> int:
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
            print("  " + "  ".join(f"{k}={_fmt(v)}" for k, v in row.items()))
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


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.3g}"
    return str(value)


def _cmd_job(args) -> int:
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
        print(f"{key:28s} {_fmt(value) if value is not None else '-'}")
    return 0


def _cmd_generate(args) -> int:
    from repro.graph.io import write_graph

    if args.generator == "graph500":
        from repro.datagen.graph500 import graph500

        graph = graph500(
            args.scale,
            edgefactor=args.edgefactor,
            weighted=args.weighted,
            seed=args.seed,
        )
    else:
        from repro.datagen.generator import generate

        graph = generate(
            args.persons,
            mean_degree=args.mean_degree,
            target_clustering_coefficient=args.target_cc,
            weighted=args.weighted,
            seed=args.seed,
        )
    vertex_path, edge_path = write_graph(graph, args.prefix)
    print(f"wrote {graph.num_vertices} vertices to {vertex_path}")
    print(f"wrote {graph.num_edges} edges to {edge_path}")
    return 0


def _cmd_granula(args) -> int:
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


def _cmd_report(args) -> int:
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


def _cmd_validate(args) -> int:
    from repro.exceptions import ValidationError
    from repro.algorithms.output_io import validate_output_file
    from repro.algorithms.registry import run_reference
    from repro.harness.datasets import get_dataset

    dataset = get_dataset(args.dataset)
    graph = dataset.materialize(args.seed)
    params = dataset.algorithm_parameters(args.algorithm, args.seed)
    reference = run_reference(args.algorithm, graph, params)
    try:
        validate_output_file(
            graph, args.output_file, reference, algorithm=args.algorithm
        )
    except ValidationError as exc:
        print(f"VALIDATION FAILED: {exc}")
        return 1
    print(
        f"output matches the {args.algorithm.upper()} reference for "
        f"{dataset.label}"
    )
    return 0


def _cmd_materialize(args) -> int:
    from repro.harness.archive import materialize_archive

    written = materialize_archive(
        args.directory,
        dataset_ids=args.datasets,
        algorithms=args.algorithms,
        seed=args.seed,
    )
    for directory in written:
        print(f"archived {directory}")
    return 0


def _cmd_estimate(args) -> int:
    from repro.harness.scale import scale_class
    from repro.harness.sla import SLA_MAKESPAN_SECONDS
    from repro.platforms.cluster import ClusterResources
    from repro.platforms.model import WorkloadProfile
    from repro.platforms.registry import create_driver

    driver = create_driver(args.platform)
    v, e = int(args.vertices), int(args.edges)
    profile = WorkloadProfile(
        name="hypothetical",
        num_vertices=v,
        num_edges=e,
        directed=False,
        weighted=True,
        mean_degree=2.0 * e / max(1, v),
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


def _cmd_analyze(args) -> int:
    from repro.harness.analysis import compare_platforms, summarize_measurements
    from repro.harness.config import BenchmarkConfig
    from repro.harness.runner import BenchmarkRunner

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


def _resolve_store_path(value, *, must_exist: bool = True):
    """``--store`` -> a ``results.db`` path; accepts a directory too."""
    from pathlib import Path

    from repro.resultsdb.store import STORE_NAME

    if value is None:
        raise ConfigurationError(
            "this db subcommand needs --store (a results.db path or a "
            "directory containing one)"
        )
    path = Path(value)
    if path.is_dir():
        path = path / STORE_NAME
    if must_exist and not path.exists():
        raise ConfigurationError(f"no results store at {path}")
    return path


def _cmd_db(args) -> int:
    from repro.resultsdb import queries
    from repro.resultsdb.migrate import import_json_repository
    from repro.resultsdb.store import ResultsStore

    if args.db_command == "import":
        store_path = (
            _resolve_store_path(args.store, must_exist=False)
            if args.store else None
        )
        summary = import_json_repository(
            args.directory,
            store_path,
            replace=args.replace,
            verify=not args.no_verify,
        )
        verified = " (byte-identical)" if summary["verified"] else ""
        print(
            f"imported {len(summary['imported'])} run(s) into "
            f"{summary['store']}{verified}"
        )
        for run_id in summary["imported"]:
            print(f"  {run_id}")
        for name in summary["skipped"]:
            print(f"  retired legacy sidecar left behind: {name}")
        return 0

    with ResultsStore(_resolve_store_path(args.store)) as store:
        if args.db_command == "runs":
            stored = queries.runs(store)
            if not stored:
                print("(no runs stored)")
            for run_id, system_under_test, jobs in stored:
                print(f"{run_id:24s} {system_under_test:32s} {jobs} jobs")
            return 0
        if args.db_command == "top":
            entries = queries.top(
                store, args.algorithm, args.dataset, limit=args.limit
            )
            if not entries:
                print("no compliant result for that workload")
                return 1
            for entry in entries:
                print(
                    f"{entry.rank:2d}. {entry.platform:16s} "
                    f"{entry.tproc:.3g} s  (run {entry.run_id})"
                )
            return 0
        if args.db_command == "trend":
            points = queries.trend(
                store, args.platform, args.algorithm, args.dataset,
                machines=args.machines, threads=args.threads,
            )
            if not points:
                print("no stored runs hold that workload cell")
                return 1
            for point in points:
                commit = f" @{point.commit_sha[:12]}" if point.commit_sha else ""
                tproc = (
                    f"{point.tproc:.3g} s" if point.tproc is not None
                    else f"({point.status})"
                )
                print(f"{point.run_id:24s}{commit} {tproc}")
            return 0
        if args.db_command == "regressions":
            from repro.granula.visualizer import render_store_regressions

            # One query feeds the table and the exit status: on a live
            # spool two reads of the store could disagree.
            query = queries.regression_query(
                store, args.old_run, args.new_run, threshold=args.threshold
            )
            print(render_store_regressions(query))
            return 1 if query.regressions else 0
        if args.db_command == "timeline":
            from repro.granula.visualizer import render_store_run

            print(render_store_run(store, args.run_id))
            return 0
        # stats
        stats = store.stats()
        print(f"store:        {stats['path']}")
        print(f"runs:         {stats['runs']}")
        print(f"jobs:         {stats['jobs']}")
        print(f"spans:        {stats['spans']}")
        print(f"sla_breaches: {stats['sla_breaches']}")
        print(f"db_bytes:     {stats['db_bytes']}")
        return 0


def _cmd_lint(args) -> int:
    from pathlib import Path

    from repro.lint import (
        LintEngine,
        all_rules,
        load_config,
        render_json,
        render_text,
    )

    if args.list_rules:
        for rule_id, rule in sorted(all_rules().items()):
            scope = ", ".join(rule.scope) if rule.scope else "everywhere"
            print(f"{rule_id}  {rule.severity:7s} [{scope}]")
            print(f"    {rule.description}")
        return 0

    config = load_config()
    if args.select:
        config.select = list(args.select)
    if args.no_project:
        config.project = False

    if args.paths:
        paths = [Path(p) for p in args.paths]
    else:
        import repro

        paths = [Path(repro.__file__).parent]

    findings = LintEngine(config).run(paths)
    render = render_json if args.format == "json" else render_text
    print(render(findings))
    return 1 if findings else 0


def _cmd_full_run(args) -> int:
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


def _cmd_resume(args) -> int:
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


def _cmd_cache(args) -> int:
    from repro.runtime.cache import GraphCache, default_cache_directory

    directory = args.cache_dir or default_cache_directory()
    cache = GraphCache(directory)
    if args.cache_command == "clear":
        removed = cache.clear()
        print(f"removed {removed} entries from {directory}")
        return 0
    # stats
    entries = cache.disk_entries()
    print(f"cache directory: {directory}")
    if not entries:
        print("(no cached entries)")
    total = 0
    for entry in entries:
        total += entry.bytes
        print(f"  {entry.kind:10s} {entry.label:32s} {entry.bytes:>12,d} B")
    if entries:
        print(f"{len(entries)} entries, {total:,d} bytes")
    return 0


def _cmd_trace(args) -> int:
    from pathlib import Path

    from repro.trace import read_trace, render_tree, validate_tree

    path = Path(args.run_dir)
    if path.is_dir():
        path = path / "trace.jsonl"
    if not path.exists():
        print(f"error: {path} does not exist (was the run started with "
              f"--run-dir?)", file=sys.stderr)
        return 1
    spans, counters = read_trace(path)
    print(f"{path}: {len(spans)} span(s), {len(counters)} counter(s)")
    violations = validate_tree(spans)
    for violation in violations:
        print(f"  [invalid] {violation}")
    if args.summary:
        jobs = sorted(
            (s for s in spans if s.name == "job"),
            key=lambda s: (s.start, s.span_id),
        )
        if jobs:
            def fmt(value):
                if isinstance(value, (int, float)):
                    return f"{float(value) * 1000.0:.3f} ms"
                return "-"

            # A job's minor faults are those of its processing span.
            by_id = {s.span_id: s for s in spans}
            minflt = {}
            for span in spans:
                if span.name != "processing" or "minflt" not in span.attributes:
                    continue
                owner = by_id.get(span.parent_id)
                while owner is not None and owner.name != "job":
                    owner = by_id.get(owner.parent_id)
                if owner is not None:
                    minflt[owner.span_id] = span.attributes["minflt"]

            print(f"{'platform':12s} {'dataset':8s} {'algorithm':9s} "
                  f"{'status':10s} {'tproc':>12s} {'makespan':>12s} "
                  f"{'minflt':>8s}")
            for job in jobs:
                attrs = job.attributes
                print(
                    f"{str(attrs.get('platform', '?')):12s} "
                    f"{str(attrs.get('dataset', '?')):8s} "
                    f"{str(attrs.get('algorithm', '?')):9s} "
                    f"{str(attrs.get('status', job.status)):10s} "
                    f"{fmt(attrs.get('tproc')):>12s} "
                    f"{fmt(attrs.get('makespan')):>12s} "
                    f"{str(minflt.get(job.span_id, '-')):>8s}"
                )
        else:
            print("(no job spans)")
    else:
        tree = render_tree(
            spans,
            max_depth=args.max_depth,
            min_duration=args.min_ms / 1000.0,
        )
        print(tree if tree else "(no spans)")
    if counters:
        print("counters:")
        for name in sorted(counters):
            print(f"  {name:24s} {counters[name]:g}")
    return 1 if violations else 0


def _cmd_serve(args) -> int:
    import asyncio

    from repro.service.server import BenchmarkService, ServiceConfig

    config = ServiceConfig(
        spool=args.spool,
        host=args.host,
        port=args.port,
        workers=args.workers,
        job_timeout=args.job_timeout,
        max_running=args.max_running,
        per_tenant_depth=args.tenant_depth,
        per_tenant_running=args.tenant_running,
        run_attempts=args.run_attempts,
        run_backoff_base=args.run_backoff,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown,
    )

    async def serve() -> None:
        service = BenchmarkService(config)
        host, port = await service.start()
        # The bound address line is machine-readable on purpose: tests
        # and the bench harness parse it when --port 0 picks a port.
        print(f"graphalytics service listening on http://{host}:{port}",
              flush=True)
        print(f"# spool: {service.registry.spool}", flush=True)
        try:
            await service.serve_forever()
        finally:
            await service.stop()

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        print("service stopped")
    return 0


def _load_matrix_argument(text: str):
    import json

    if text == "example":
        from repro.runtime.executor import example_matrix
        from repro.runtime.journal import config_payload

        return config_payload(example_matrix())
    with open(text, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _cmd_submit(args) -> int:
    import json

    from repro.service.client import ServiceClient, ServiceError

    client = ServiceClient(args.host, args.port)
    matrix = _load_matrix_argument(args.matrix)
    chaos = None
    if args.chaos:
        with open(args.chaos, "r", encoding="utf-8") as handle:
            chaos = json.load(handle)
    try:
        accepted = client.submit(
            args.tenant,
            matrix,
            workers=args.workers,
            job_timeout=args.job_timeout,
            chaos=chaos,
            retries=args.retries,
        )
    except ServiceError as exc:
        if exc.status in (429, 503) and exc.retry_after is not None:
            print(f"error: {exc} (retry after {exc.retry_after:g} s)",
                  file=sys.stderr)
            return 1
        raise
    run_id = accepted["run_id"]
    print(f"accepted run {run_id} ({accepted['state']}); "
          f"watch with: graphalytics watch {run_id} "
          f"--host {args.host} --port {args.port}")
    if args.watch:
        return _watch_run(client, str(run_id))
    return 0


def _watch_run(client, run_id: str, *, reconnects: int = 5) -> int:
    """Render a run's SSE stream: journal lines, then the span tree."""
    from repro.trace import Span, render_tree

    spans: List = []
    final_state: dict = {}
    for event, payload in client.watch_events(run_id, reconnects=reconnects):
        if event == "run":
            print(f"# run {payload.get('run_id')} [{payload.get('state')}] "
                  f"tenant={payload.get('tenant')}")
        elif event == "journal":
            kind = payload.get("type", "?")
            detail = {
                k: v for k, v in payload.items()
                if k in ("job", "key", "attempt", "worker", "kind", "seq")
            }
            text = " ".join(f"{k}={v}" for k, v in detail.items())
            print(f"  [{kind}] {text}")
        elif event == "span":
            spans.append(Span.from_dict(payload))
        elif event == "end":
            final_state = payload
    if spans:
        print(render_tree(spans))
    state = final_state.get("state", "unknown")
    print(f"# run {run_id} finished: {state}")
    for key in ("jobs", "failures", "sla_breaches", "elapsed_seconds",
                "attempts", "degraded"):
        if key in final_state:
            print(f"#   {key}: {_fmt(final_state[key])}")
    quarantine = final_state.get("quarantine")
    if isinstance(quarantine, dict):
        print(f"#   quarantined: {quarantine.get('reason', '?')}")
    return 0 if state == "done" else 1


def _cmd_watch(args) -> int:
    from repro.service.client import ServiceClient

    return _watch_run(
        ServiceClient(args.host, args.port),
        args.run_id,
        reconnects=args.reconnects,
    )


def _cmd_fetch(args) -> int:
    from repro.service.client import ServiceClient

    client = ServiceClient(args.host, args.port)
    data = client.fetch(args.run_id, args.artifact)
    if args.output:
        with open(args.output, "wb") as handle:
            handle.write(data)
        print(f"{args.artifact} of {args.run_id} written to {args.output} "
              f"({len(data)} bytes)")
    else:
        sys.stdout.write(data.decode("utf-8"))
    return 0


def _cmd_health(args) -> int:
    import json

    from repro.service.client import ServiceClient

    report = ServiceClient(args.host, args.port).healthz()
    print(json.dumps(report, indent=1, sort_keys=True))
    return 0 if report.get("status") == "ok" else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "datasets":
            return _cmd_datasets()
        if args.command == "selfcheck":
            return _cmd_selfcheck()
        if args.command == "platforms":
            return _cmd_platforms()
        if args.command == "experiments":
            return _cmd_experiments()
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "job":
            return _cmd_job(args)
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "granula":
            return _cmd_granula(args)
        if args.command == "report":
            return _cmd_report(args)
        if args.command == "validate":
            return _cmd_validate(args)
        if args.command == "materialize":
            return _cmd_materialize(args)
        if args.command == "estimate":
            return _cmd_estimate(args)
        if args.command == "db":
            return _cmd_db(args)
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "lint":
            return _cmd_lint(args)
        if args.command == "full-run":
            return _cmd_full_run(args)
        if args.command == "resume":
            return _cmd_resume(args)
        if args.command == "cache":
            return _cmd_cache(args)
        if args.command == "trace":
            return _cmd_trace(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "submit":
            return _cmd_submit(args)
        if args.command == "watch":
            return _cmd_watch(args)
        if args.command == "fetch":
            return _cmd_fetch(args)
        if args.command == "health":
            return _cmd_health(args)
    except GraphalyticsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
