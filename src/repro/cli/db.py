"""``db``: canned queries over the SQLite results store."""

from __future__ import annotations

from repro.cli import THREADS, arg, group
from repro.exceptions import ConfigurationError

db = group(
    "db",
    "canned queries over the SQLite results store",
    arg("--store", default=None,
        help="results.db path, or a repository/spool directory holding "
             "one (required for every subcommand)"),
)


def _open_store(args):
    """``--store`` -> an open store; accepts a directory holding one."""
    from pathlib import Path

    from repro.resultsdb.store import STORE_NAME, ResultsStore

    if args.store is None:
        raise ConfigurationError(
            "this db subcommand needs --store (a results.db path or a "
            "directory containing one)"
        )
    path = Path(args.store)
    if path.is_dir():
        path = path / STORE_NAME
    if not path.exists():
        raise ConfigurationError(f"no results store at {path}")
    return ResultsStore(path)


@db.command("runs")
def runs(args) -> int:
    """stored runs: id, system under test, job count"""
    from repro.resultsdb import queries

    with _open_store(args) as store:
        stored = queries.runs(store)
    if not stored:
        print("(no runs stored)")
    for run_id, system_under_test, jobs in stored:
        print(f"{run_id:24s} {system_under_test:32s} {jobs} jobs")
    return 0


@db.command(
    "top",
    "algorithm",
    "dataset",
    arg("--limit", type=int, default=None, help="show only the first N rows"),
)
def top(args) -> int:
    """platform leaderboard for one workload"""
    from repro.resultsdb import queries

    with _open_store(args) as store:
        entries = queries.top(store, args.algorithm, args.dataset, limit=args.limit)
    if not entries:
        print("no compliant result for that workload")
        return 1
    for entry in entries:
        print(
            f"{entry.rank:2d}. {entry.platform:16s} "
            f"{entry.tproc:.3g} s  (run {entry.run_id})"
        )
    return 0


@db.command(
    "trend",
    "platform",
    "algorithm",
    "dataset",
    arg("--machines", type=int, default=None),
    THREADS,
)
def trend(args) -> int:
    """one platform x algorithm x dataset cell across stored runs"""
    from repro.resultsdb import queries

    with _open_store(args) as store:
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


@db.command(
    "regressions",
    "old_run",
    "new_run",
    arg("--threshold", type=float, default=1.10),
)
def regressions(args) -> int:
    """workloads slower in a newer stored run"""
    from repro.granula.visualizer import render_store_regressions
    from repro.resultsdb import queries

    # One query feeds the table and the exit status: on a live spool two
    # reads of the store could disagree.
    with _open_store(args) as store:
        query = queries.regression_query(
            store, args.old_run, args.new_run, threshold=args.threshold
        )
    print(render_store_regressions(query))
    return 1 if query.regressions else 0


@db.command("timeline", "run_id")
def timeline(args) -> int:
    """render a stored run's trace spans as a phase tree"""
    from repro.granula.visualizer import render_store_run

    with _open_store(args) as store:
        print(render_store_run(store, args.run_id))
    return 0


@db.command("stats")
def stats(args) -> int:
    """store row counts and database size"""
    with _open_store(args) as store:
        counts = store.stats()
    print(f"store:        {counts['path']}")
    print(f"runs:         {counts['runs']}")
    print(f"jobs:         {counts['jobs']}")
    print(f"spans:        {counts['spans']}")
    print(f"sla_breaches: {counts['sla_breaches']}")
    print(f"db_bytes:     {counts['db_bytes']}")
    return 0
