"""SQLite-backed results store: schema, transactions, durability.

One database file holds every submitted run:

* ``runs`` — one row per run: metadata (system under test, submitter,
  description), provenance (``commit_sha``, ``tenant``,
  ``submitted_at``), and the insertion order that defines the trend
  timeline;
* ``jobs`` — one row per benchmark job, flattened to typed columns for
  SQL (indexed by platform/algorithm/dataset and by the run's commit)
  **plus** the job's exact JSON record, so a stored run reproduces its
  legacy archive byte for byte regardless of how SQLite would coerce
  the scalars;
* ``spans`` — the run's exported trace spans (``trace.jsonl``), queryable
  without re-parsing archives;
* ``sla_breaches`` — one row per job that broke the paper's §2.3 SLA,
  with the budget it was held to.

Durability model: the database runs in WAL mode with ``synchronous=FULL``
— a submission is one transaction, opened with ``BEGIN IMMEDIATE`` so
concurrent writers (service run children, parallel harness processes)
serialize on SQLite's own write lock instead of the retired ``flock``
sidecar. The transaction's COMMIT is threaded through the registered
``resultsdb.commit`` fault point: a seeded chaos plan can fail or
SIGKILL the process at the commit boundary, and WAL guarantees the
reader-visible state is the old run set or the new one, never a torn
mixture. Readers never block writers (and vice versa) — WAL snapshot
isolation replaces the old "readers are safe because atomic_write"
argument.
"""

from __future__ import annotations

import json
import re
import sqlite3
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Union

from repro.exceptions import ConfigurationError, ValidationError
from repro.faults import points as fault_points
from repro.trace import current_tracer, read_trace

__all__ = [
    "STORE_NAME", "SCHEMA_VERSION", "ResultsStore", "RunMetadata",
    "commit_service_run", "load_span_dicts", "submit_validated_run",
]

#: Database file name inside a repository directory or a service spool.
STORE_NAME = "results.db"

SCHEMA_VERSION = 1

#: Seconds a writer waits on SQLite's write lock before giving up; far
#: beyond any real contention window (one submission is milliseconds).
_BUSY_TIMEOUT = 30.0

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    run_id            TEXT PRIMARY KEY,
    system_under_test TEXT NOT NULL,
    submitter         TEXT NOT NULL DEFAULT '',
    description       TEXT NOT NULL DEFAULT '',
    commit_sha        TEXT NOT NULL DEFAULT '',
    tenant            TEXT NOT NULL DEFAULT '',
    submitted_at      REAL,
    job_count         INTEGER NOT NULL,
    record            TEXT NOT NULL DEFAULT '{}'
);
CREATE INDEX IF NOT EXISTS runs_commit ON runs (commit_sha);
CREATE TABLE IF NOT EXISTS jobs (
    run_id                      TEXT NOT NULL REFERENCES runs(run_id)
                                ON DELETE CASCADE,
    position                    INTEGER NOT NULL,
    platform                    TEXT NOT NULL,
    algorithm                   TEXT NOT NULL,
    dataset                     TEXT NOT NULL,
    machines                    INTEGER NOT NULL,
    threads                     INTEGER,
    status                      TEXT NOT NULL,
    run_index                   INTEGER NOT NULL DEFAULT 0,
    modeled_processing_time     REAL,
    modeled_makespan            REAL,
    sla_compliant               INTEGER NOT NULL DEFAULT 0,
    validated                   INTEGER,
    record                      TEXT NOT NULL,
    PRIMARY KEY (run_id, position)
);
CREATE INDEX IF NOT EXISTS jobs_workload
    ON jobs (platform, algorithm, dataset);
CREATE INDEX IF NOT EXISTS jobs_algorithm_dataset
    ON jobs (algorithm, dataset);
CREATE TABLE IF NOT EXISTS spans (
    run_id    TEXT NOT NULL REFERENCES runs(run_id) ON DELETE CASCADE,
    seq       INTEGER NOT NULL,
    span_id   TEXT NOT NULL,
    parent_id TEXT,
    name      TEXT NOT NULL,
    process   TEXT NOT NULL DEFAULT 'main',
    status    TEXT NOT NULL DEFAULT 'ok',
    start     REAL NOT NULL,
    end       REAL,
    attrs     TEXT NOT NULL DEFAULT '{}',
    PRIMARY KEY (run_id, seq)
);
CREATE INDEX IF NOT EXISTS spans_name ON spans (run_id, name);
CREATE TABLE IF NOT EXISTS sla_breaches (
    run_id           TEXT NOT NULL REFERENCES runs(run_id) ON DELETE CASCADE,
    position         INTEGER NOT NULL,
    platform         TEXT NOT NULL,
    algorithm        TEXT NOT NULL,
    dataset          TEXT NOT NULL,
    machines         INTEGER NOT NULL,
    threads          INTEGER,
    status           TEXT NOT NULL,
    modeled_makespan REAL,
    budget           REAL NOT NULL,
    PRIMARY KEY (run_id, position)
);
"""

#: jobs columns mirrored out of each record for SQL filtering; the
#: authoritative value of every field stays in the ``record`` JSON.
_JOB_COLUMNS = (
    "platform", "algorithm", "dataset", "machines", "threads", "status",
    "run_index", "modeled_processing_time", "modeled_makespan",
    "sla_compliant", "validated",
)


def _as_bool_column(value: object) -> Optional[int]:
    if value is None:
        return None
    return 1 if value else 0


class ResultsStore:
    """One WAL-mode SQLite database of benchmark runs.

    Instances are cheap (one connection) and safe to use from multiple
    threads (an internal mutex serializes statements) and multiple
    processes (SQLite's own locking serializes writers; WAL keeps
    readers lock-free). Use as a context manager or call :meth:`close`.
    """

    def __init__(
        self,
        path: Union[str, Path],
        *,
        timeout: float = _BUSY_TIMEOUT,
    ):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # isolation_level=None: no implicit transactions — every write
        # happens inside an explicit BEGIN IMMEDIATE below, so the
        # commit boundary (and its fault point) is exactly one place.
        self._conn = sqlite3.connect(
            str(self.path), timeout=timeout, check_same_thread=False
        )
        self._conn.isolation_level = None
        # A mutex, not thread-local connections: the service touches the
        # store from asyncio.to_thread workers, and SQLite objects must
        # not be used concurrently from two threads on one connection.
        import threading

        self._mutex = threading.Lock()
        with self._mutex:
            self._enter_wal_mode(timeout)
            self._conn.execute("PRAGMA synchronous=FULL")
            self._conn.execute("PRAGMA foreign_keys=ON")
            self._conn.executescript(_SCHEMA)
            self._conn.execute(
                "INSERT OR IGNORE INTO meta (key, value) VALUES (?, ?)",
                ("schema_version", str(SCHEMA_VERSION)),
            )

    def _enter_wal_mode(self, timeout: float) -> None:
        """``PRAGMA journal_mode=WAL``, retried while the file is locked.

        Switching the journal mode takes an exclusive lock, and SQLite
        answers ``database is locked`` at once — the busy timeout is not
        consulted — when another process is opening the same fresh file.
        The other opener is done in milliseconds; wait for it as long as
        any other statement on this connection would.
        """
        clock = current_tracer().clock
        deadline = clock.now() + timeout
        while True:
            try:
                self._conn.execute("PRAGMA journal_mode=WAL")
                return
            except sqlite3.OperationalError:
                if clock.now() >= deadline:
                    raise
                clock.sleep(0.005)

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ResultsStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- submission --------------------------------------------------------

    def submit_run(
        self,
        metadata: Mapping[str, object],
        results: Sequence[Mapping[str, object]],
        *,
        spans: Iterable[Mapping[str, object]] = (),
        breaches: Optional[Sequence[Mapping[str, object]]] = None,
        commit_sha: str = "",
        tenant: str = "",
        submitted_at: Optional[float] = None,
        replace: bool = False,
    ) -> str:
        """Store one run in a single transaction; returns the run id.

        ``metadata`` is the archive metadata mapping (``run_id``,
        ``system_under_test``, optional ``submitter``/``description``);
        ``results`` are job records in
        :meth:`repro.harness.results.BenchmarkResult.as_dict` shape,
        stored in order. ``breaches`` defaults to the jobs whose
        ``sla_compliant`` flag is false, held to the paper's 1-hour
        budget. With ``replace=False`` a duplicate run id raises
        :class:`~repro.exceptions.ConfigurationError`; ``replace=True``
        atomically swaps the stored run (the relaunch semantics service
        run children need — a child SIGKILLed mid-commit re-commits the
        whole run on its next attempt).

        The COMMIT is threaded through the ``resultsdb.commit`` fault
        point: an injected failure rolls the transaction back whole,
        an injected SIGKILL leaves WAL to discard it on the next open —
        either way no reader ever observes a torn run.
        """
        with self._mutex:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                run_id = self._insert_run(
                    metadata,
                    results,
                    spans=spans,
                    breaches=breaches,
                    commit_sha=commit_sha,
                    tenant=tenant,
                    submitted_at=submitted_at,
                    replace=replace,
                )
                # The commit point, guarded by the chaos plane: a plan
                # can fail or kill here and the store must come back
                # with the old state or the new one, never a mixture.
                fault_points.check("resultsdb.commit")
                self._conn.execute("COMMIT")
            except BaseException:
                try:
                    self._conn.execute("ROLLBACK")
                except sqlite3.Error:
                    pass  # connection already rolled back or gone
                raise
        return run_id

    def _insert_run(
        self,
        metadata: Mapping[str, object],
        results: Sequence[Mapping[str, object]],
        *,
        spans: Iterable[Mapping[str, object]] = (),
        breaches: Optional[Sequence[Mapping[str, object]]] = None,
        commit_sha: str = "",
        tenant: str = "",
        submitted_at: Optional[float] = None,
        replace: bool = False,
    ) -> str:
        """One run's inserts; caller owns the transaction and mutex."""
        run_id = str(metadata.get("run_id", ""))
        if not run_id:
            raise ConfigurationError("run metadata lacks a run_id")
        if not results:
            raise ConfigurationError("refusing to store an empty run")
        if breaches is None:
            breaches = _derive_breaches(results)
        rows = [dict(record) for record in results]
        exists = self._conn.execute(
            "SELECT 1 FROM runs WHERE run_id = ?", (run_id,)
        ).fetchone()
        if exists:
            if not replace:
                raise ConfigurationError(f"run {run_id!r} already exists")
            self._delete_run_rows(run_id)
        self._conn.execute(
            "INSERT INTO runs (run_id, system_under_test, submitter,"
            " description, commit_sha, tenant, submitted_at, job_count,"
            " record) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                run_id,
                str(metadata.get("system_under_test", "")),
                str(metadata.get("submitter", "")),
                str(metadata.get("description", "")),
                commit_sha,
                tenant,
                submitted_at,
                len(rows),
                # The metadata mapping verbatim, key order preserved, so
                # canonical_bytes reproduces the legacy archive even if
                # its metadata block predates today's field set.
                json.dumps(dict(metadata)),
            ),
        )
        self._insert_jobs(run_id, rows)
        self._insert_spans(run_id, spans)
        self._insert_breaches(run_id, breaches)
        return run_id

    def _delete_run_rows(self, run_id: str) -> None:
        for table in ("sla_breaches", "spans", "jobs", "runs"):
            self._conn.execute(
                f"DELETE FROM {table} WHERE run_id = ?", (run_id,)
            )

    def _insert_jobs(
        self, run_id: str, rows: Sequence[Dict[str, object]]
    ) -> None:
        for position, record in enumerate(rows):
            columns = {name: record.get(name) for name in _JOB_COLUMNS}
            columns["sla_compliant"] = _as_bool_column(
                columns["sla_compliant"]
            ) or 0
            columns["validated"] = _as_bool_column(columns["validated"])
            self._conn.execute(
                "INSERT INTO jobs (run_id, position, platform, algorithm,"
                " dataset, machines, threads, status, run_index,"
                " modeled_processing_time, modeled_makespan, sla_compliant,"
                " validated, record)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    run_id,
                    position,
                    str(columns["platform"]),
                    str(columns["algorithm"]),
                    str(columns["dataset"]),
                    int(columns["machines"] or 0),
                    columns["threads"],
                    str(columns["status"]),
                    int(columns["run_index"] or 0),
                    columns["modeled_processing_time"],
                    columns["modeled_makespan"],
                    columns["sla_compliant"],
                    columns["validated"],
                    json.dumps(record),
                ),
            )

    def _insert_spans(
        self, run_id: str, spans: Iterable[Mapping[str, object]]
    ) -> None:
        for seq, span in enumerate(spans):
            attributes = span.get("attrs") or span.get("attributes") or {}
            self._conn.execute(
                "INSERT INTO spans (run_id, seq, span_id, parent_id, name,"
                " process, status, start, end, attrs)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    run_id,
                    seq,
                    str(span.get("id") or span.get("span_id") or seq),
                    span.get("parent") or span.get("parent_id"),
                    str(span.get("name", "")),
                    str(span.get("process", "main")),
                    str(span.get("status", "ok")),
                    float(span.get("start", 0.0)),
                    span.get("end"),
                    json.dumps(attributes, sort_keys=True),
                ),
            )

    def _insert_breaches(
        self, run_id: str, breaches: Sequence[Mapping[str, object]]
    ) -> None:
        for position, breach in enumerate(breaches):
            self._conn.execute(
                "INSERT INTO sla_breaches (run_id, position, platform,"
                " algorithm, dataset, machines, threads, status,"
                " modeled_makespan, budget)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    run_id,
                    position,
                    str(breach.get("platform", "")),
                    str(breach.get("algorithm", "")),
                    str(breach.get("dataset", "")),
                    int(breach.get("machines") or 0),
                    breach.get("threads"),
                    str(breach.get("status", "")),
                    breach.get("modeled_makespan"),
                    float(breach.get("budget") or 0.0),
                ),
            )

    # -- retrieval ---------------------------------------------------------

    def has_run(self, run_id: str) -> bool:
        with self._mutex:
            row = self._conn.execute(
                "SELECT 1 FROM runs WHERE run_id = ?", (run_id,)
            ).fetchone()
        return row is not None

    def run_ids(self) -> List[str]:
        with self._mutex:
            rows = self._conn.execute(
                "SELECT run_id FROM runs ORDER BY run_id"
            ).fetchall()
        return [row[0] for row in rows]

    def run_metadata(self, run_id: str) -> Dict[str, object]:
        with self._mutex:
            row = self._conn.execute(
                "SELECT run_id, system_under_test, submitter, description,"
                " commit_sha, tenant, submitted_at, job_count"
                " FROM runs WHERE run_id = ?",
                (run_id,),
            ).fetchone()
        if row is None:
            raise ConfigurationError(f"unknown run {run_id!r}")
        keys = (
            "run_id", "system_under_test", "submitter", "description",
            "commit_sha", "tenant", "submitted_at", "job_count",
        )
        return dict(zip(keys, row))

    def run_records(self, run_id: str) -> List[Dict[str, object]]:
        """The run's job records, exactly as submitted, in order."""
        with self._mutex:
            rows = self._conn.execute(
                "SELECT record FROM jobs WHERE run_id = ? ORDER BY position",
                (run_id,),
            ).fetchall()
        if not rows:
            raise ConfigurationError(f"unknown run {run_id!r}")
        return [json.loads(row[0]) for row in rows]

    def run_spans(self, run_id: str) -> List[Dict[str, object]]:
        """The run's stored trace spans as plain dicts, in span order."""
        with self._mutex:
            rows = self._conn.execute(
                "SELECT span_id, parent_id, name, process, status, start,"
                " end, attrs FROM spans WHERE run_id = ? ORDER BY seq",
                (run_id,),
            ).fetchall()
        return [
            {
                "id": row[0],
                "parent": row[1],
                "name": row[2],
                "process": row[3],
                "status": row[4],
                "start": row[5],
                "end": row[6],
                "attrs": json.loads(row[7]),
            }
            for row in rows
        ]

    def run_breaches(self, run_id: str) -> List[Dict[str, object]]:
        with self._mutex:
            rows = self._conn.execute(
                "SELECT platform, algorithm, dataset, machines, threads,"
                " status, modeled_makespan, budget FROM sla_breaches"
                " WHERE run_id = ? ORDER BY position",
                (run_id,),
            ).fetchall()
        keys = (
            "platform", "algorithm", "dataset", "machines", "threads",
            "status", "modeled_makespan", "budget",
        )
        return [dict(zip(keys, row)) for row in rows]

    def query(self, sql: str, parameters: Sequence[object] = ()) -> List[tuple]:
        """Read-only escape hatch for the canned-query layer."""
        with self._mutex:
            return self._conn.execute(sql, tuple(parameters)).fetchall()

    # -- archive round-trip ------------------------------------------------

    def canonical_payload(self, run_id: str) -> Dict[str, object]:
        """The run as its legacy JSON-archive payload (metadata+results)."""
        with self._mutex:
            row = self._conn.execute(
                "SELECT record FROM runs WHERE run_id = ?", (run_id,)
            ).fetchone()
        if row is None:
            raise ConfigurationError(f"unknown run {run_id!r}")
        return {
            "metadata": json.loads(row[0]),
            "results": self.run_records(run_id),
        }

    def canonical_bytes(self, run_id: str) -> bytes:
        """Byte-identical re-serialization of the legacy run archive."""
        return json.dumps(self.canonical_payload(run_id), indent=1).encode(
            "utf-8"
        )

    # -- statistics --------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Row counts and database size (healthz, ``db stats``)."""
        counts = {}
        with self._mutex:
            for table in ("runs", "jobs", "spans", "sla_breaches"):
                counts[table] = self._conn.execute(
                    f"SELECT COUNT(*) FROM {table}"
                ).fetchone()[0]
            page_count = self._conn.execute(
                "PRAGMA page_count"
            ).fetchone()[0]
            page_size = self._conn.execute("PRAGMA page_size").fetchone()[0]
        counts["db_bytes"] = page_count * page_size
        counts["path"] = str(self.path)
        return counts


def _derive_breaches(
    results: Sequence[Mapping[str, object]],
) -> List[Dict[str, object]]:
    """SLA-breach rows from job records: every non-compliant job."""
    # Local import: harness.sla pulls in the platform layer, which this
    # low-level module must not require at import time.
    from repro.harness.sla import SLA_MAKESPAN_SECONDS

    breaches = []
    for record in results:
        if record.get("sla_compliant"):
            continue
        breaches.append(
            {
                "platform": record.get("platform", ""),
                "algorithm": record.get("algorithm", ""),
                "dataset": record.get("dataset", ""),
                "machines": record.get("machines", 0),
                "threads": record.get("threads"),
                "status": record.get("status", ""),
                "modeled_makespan": record.get("modeled_makespan"),
                "budget": SLA_MAKESPAN_SECONDS,
            }
        )
    return breaches


_RUN_ID_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


@dataclass(frozen=True)
class RunMetadata:
    """Descriptive metadata of one submitted run."""

    run_id: str
    system_under_test: str
    submitter: str = ""
    description: str = ""

    def __post_init__(self):
        if not _RUN_ID_PATTERN.match(self.run_id):
            raise ConfigurationError(
                f"run id {self.run_id!r} must be alphanumeric with ._-"
            )
        if not self.system_under_test:
            raise ConfigurationError("system_under_test must be non-empty")


def submit_validated_run(
    store: ResultsStore, metadata: RunMetadata, database
) -> str:
    """Admit a ``ResultsDatabase`` to a public repository (paper Figure
    1, boxes 11–12: "validated results are stored in an online
    repository"): every *successful* job must have passed output
    validation, and — :meth:`ResultsStore.submit_run`'s own rule, whose
    one transaction this is — the run is not empty and its id not
    taken. A private run skips the rule by calling that directly, as
    :func:`commit_service_run` does. Returns the run id.
    """
    unvalidated = [
        r for r in database if r.succeeded and r.validated is not True
    ]
    if unvalidated:
        raise ValidationError(
            f"{len(unvalidated)} successful jobs lack output validation; "
            f"only validated results enter the repository"
        )
    return store.submit_run(
        asdict(metadata), [r.as_dict() for r in database]
    )


def commit_service_run(
    store_path: Union[str, Path],
    *,
    run_id: str,
    tenant: str,
    database,
    trace_path: Optional[Union[str, Path]] = None,
    submitted_at: Optional[float] = None,
    commit_sha: str = "",
) -> Dict[str, object]:
    """Commit a finished service run into the spool's results store.

    Called by the run child at terminal-commit time, right before
    ``outcome.json`` lands: the run's job rows, its exported
    ``trace.jsonl`` spans (when the file exists and parses), and its
    SLA breaches all enter the store in one transaction.
    ``replace=True`` because a child relaunched after a mid-commit
    crash legitimately re-commits the same run id. Returns the store's
    post-commit :meth:`~ResultsStore.stats`.
    """
    spans: List[Dict[str, object]] = []
    if trace_path is not None:
        spans = load_span_dicts(Path(trace_path))
    results = [record.as_dict() for record in database]
    with ResultsStore(store_path) as store:
        store.submit_run(
            {
                "run_id": run_id,
                "system_under_test": f"service:{tenant or 'unknown'}",
                "submitter": tenant,
                "description": "benchmark-as-a-service run",
            },
            results,
            spans=spans,
            tenant=tenant,
            submitted_at=submitted_at,
            commit_sha=commit_sha,
            replace=True,
        )
        return store.stats()


def load_span_dicts(path: Path) -> List[Dict[str, object]]:
    """Spans of a run's exported ``trace.jsonl`` as plain dicts; empty
    when the run was untraced or the file is absent, unreadable or torn."""
    try:
        spans, _counters = read_trace(path)
    except (OSError, ValueError):  # FileNotFoundError, JSONDecodeError
        return []
    return [span.as_dict() for span in spans]
