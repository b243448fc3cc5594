"""The benchmark-execution runtime: every job list runs here, one API.

:func:`execute_matrix` turns a job list — a benchmark selection's
matrix, or whatever list the caller hands it (an experiment, the whole
suite) — into the job DAG, executes it on one dispatch loop — in the
calling process, or on worker processes when the run needs them — and
merges results deterministically:

* every execute job's row enters the final database at its position in
  the job list, so the database (and everything rendered from it) is
  identical for any worker count and any completion order;
* the only environment-dependent fields are the ``measured_*``
  wall-clocks; ``ResultsDatabase.canonical_json`` excludes them, and
  that serialization is bit-identical across worker counts (the
  determinism contract, see docs/runtime.md);
* a job that cannot be completed (timeout, worker crash, repeated
  exceptions, failed dependency) still lands in the database as a
  ``harness-*`` failure row — the SLA/robustness accounting never loses
  a job.
"""

from __future__ import annotations

import os
import tempfile
import warnings
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.exceptions import ConfigurationError
from repro.harness.config import BenchmarkConfig
from repro.harness.results import BenchmarkResult, ResultsDatabase
from repro.harness.runner import BenchmarkRunner
from repro.proc import absorb
from repro.runtime.cache import CacheStats, GraphCache
from repro.faults.plan import FaultPlan
from repro.runtime.jobs import JobFailure, JobKind, JobSpec, failure_result
from repro.runtime.journal import (
    JournalError,
    JournalReplay,
    RunJournal,
    config_from_payload,
    config_payload,
    job_key,
    journaled_run,
    matrix_hash,
)
from repro.runtime.pool import InProcessWorker, WorkerPool
from repro.runtime.scheduler import (
    JobGraph,
    NodeState,
    matrix_jobs,
    with_dependencies,
)
from repro.trace import Span, current_tracer

__all__ = [
    "RuntimeConfig",
    "RuntimeRunResult",
    "execute_matrix",
    "example_matrix",
    "resolve_workers",
    "resume_run",
]


def resolve_workers(
    requested: Union[int, str, None], *, available: Optional[int] = None
) -> int:
    """Effective worker-pool size for a run: ``min(requested, CPUs)``.

    ``"auto"`` (or ``None``) sizes the pool to the host —
    ``os.cpu_count()`` — which is what an unattended server must do per
    run. An explicit request larger than the host is capped with a
    warning rather than honored: BENCH_runtime.json shows
    oversubscribed pools *losing* to smaller ones (4 workers slower
    than 2 on a 2-vCPU host), so a silent oversubscription is a perf
    bug, not a preference.
    """
    if available is None:
        available = os.cpu_count() or 1
    available = max(1, available)
    if requested is None or requested == "auto":
        return available
    if isinstance(requested, float) and not requested.is_integer():
        raise ConfigurationError(
            f"workers must be a positive integer or 'auto', got {requested!r}"
        )
    try:
        count = int(requested)
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"workers must be a positive integer or 'auto', got {requested!r}"
        )
    if count < 1:
        raise ConfigurationError("workers must be >= 1")
    if count > available:
        warnings.warn(
            f"requested {count} workers but only {available} CPU(s) are "
            f"available; capping the pool at {available} (oversubscribed "
            f"pools measure slower, see BENCH_runtime.json)",
            RuntimeWarning,
            stacklevel=2,
        )
        return available
    return count


#: Dispatcher tick (seconds): how long one wait for a worker envelope
#: may block before deadlines and deaths are policed.
POLL_INTERVAL = 0.02


@dataclass
class RuntimeConfig:
    """Tuning knobs of the execution runtime (see docs/runtime.md)."""

    workers: int = 1
    #: Only ``"auto"``: where jobs run follows from the other knobs
    #: (:func:`run_mode`).
    mode: str = "auto"
    #: Per-job wall-clock budget in seconds; ``None`` disables.
    job_timeout: Optional[float] = None
    #: Total tries per job, including the first (>= 1).
    max_attempts: int = 2
    #: First retry delay; doubles per further attempt.
    backoff_base: float = 0.05
    #: Shared spill directory; ``None`` = private per-run temp dir.
    cache_dir: Optional[Union[str, Path]] = None
    #: Deterministic fault injection (tests, chaos self-checks).
    fault_plan: Optional[FaultPlan] = None

    def __post_init__(self):
        if self.workers < 1:
            raise ConfigurationError("workers must be >= 1")
        if self.mode != "auto":
            raise ConfigurationError(f"mode must be 'auto', got {self.mode!r}")
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")
        timeout = self.job_timeout
        if timeout is not None and not (
            isinstance(timeout, (int, float)) and timeout > 0
        ):
            # Not NaN either: no deadline would ever lie in its future.
            raise ConfigurationError(
                f"job_timeout must be a positive number, got {timeout!r}"
            )
        if timeout is None and _has_fault(self, "hang"):
            raise ConfigurationError("a hang fault needs a job_timeout")


def _has_fault(runtime: RuntimeConfig, kind: str) -> bool:
    plan = runtime.fault_plan
    return plan is not None and any(f.kind == kind for f in plan.faults)


def run_mode(runtime: RuntimeConfig) -> str:
    """Where a run's jobs execute, worked out from what it needs:
    ``"pool"`` — worker processes — for more than one worker, for a job
    timeout (killing a job takes a process of its own) and for a
    ``crash`` fault; ``"inline"`` — the calling process — otherwise."""
    if (
        runtime.workers > 1
        or runtime.job_timeout is not None
        or _has_fault(runtime, "crash")
    ):
        return "pool"
    return "inline"


@dataclass
class RuntimeRunResult:
    """Everything one runtime-driven matrix run produced."""

    database: ResultsDatabase
    failures: List[JobFailure] = field(default_factory=list)
    cache_stats: CacheStats = field(default_factory=CacheStats)
    #: This run's tracer-counter deltas (``scheduler.retry``,
    #: ``scheduler.timeout``, ``scheduler.crash``, ``cache.*``, ...) —
    #: the same numbers ``trace.jsonl`` carries; empty when the current
    #: tracer is disabled.
    counters: Dict[str, float] = field(default_factory=dict)
    workers: int = 1
    mode: str = "inline"
    elapsed_seconds: float = 0.0
    job_count: int = 0             # execute jobs in the matrix
    dag_size: int = 0              # all DAG nodes
    restored_jobs: int = 0         # DAG jobs replayed from a run journal
    run_dir: Optional[Path] = None
    #: ``<run_dir>/trace.jsonl`` when the run was journaled, else None.
    trace_path: Optional[Path] = None
    #: Durability-downgrade flags the run accumulated (e.g. the journal
    #: disabling itself on ENOSPC) — empty for a fully durable run.
    degraded: List[str] = field(default_factory=list)
    #: What the journal held before a resume (its header, any torn tail
    #: dropped); ``None`` for a fresh run.
    replay: Optional[JournalReplay] = None
    #: The ``matrix-run`` root span followed by its phase spans, closed:
    #: what :meth:`archive` is built from.
    _spans: List[Span] = field(default_factory=list, repr=False)

    @property
    def lost_jobs(self) -> int:
        """Execute jobs with neither a result row nor a failure: must be 0."""
        return self.job_count - len(self.database)

    def archive(self):
        """Granula performance archive of the run itself.

        Read off the run's own ``matrix-run → expand/execute/merge``
        spans through the same path as a job's archive (times relative
        to the run's start); the run-level counters ride on the
        ``execute`` phase's metadata so the archive stays
        self-describing. A run under a disabled tracer recorded no spans
        and archives no phases.
        """
        from repro.granula.archiver import PerformanceArchive, archive_phases
        from repro.granula.model import model_for_platform

        phases = archive_phases(
            [span.as_dict() for span in self._spans],
            model_for_platform("runtime"),
        )
        for phase in phases:
            if phase.name == "execute":
                phase.metadata.update(
                    workers=self.workers,
                    mode=self.mode,
                    jobs=self.job_count,
                    retries=int(self.counters.get("scheduler.retry", 0)),
                    timeouts=int(self.counters.get("scheduler.timeout", 0)),
                    crashes=int(self.counters.get("scheduler.crash", 0)),
                    restored=self.restored_jobs,
                    cache_hits=self.cache_stats.hits,
                    cache_misses=self.cache_stats.misses,
                )
        return PerformanceArchive(
            platform="runtime",
            algorithm="schedule",
            dataset="benchmark-matrix",
            phases=phases,
        )

    def describe(self) -> str:
        return (
            f"{self.job_count} jobs on {self.workers} worker(s) "
            f"[{self.mode}] in {self.elapsed_seconds:.2f} s; "
            f"{len(self.failures)} harness failure(s); "
            f"cache: {self.cache_stats.describe()}"
        )


def example_matrix(seed: int = 0, *, repetitions: int = 2) -> BenchmarkConfig:
    """The small standard matrix used by docs, benches, and smoke tests.

    Two platforms x two datasets x three algorithms x two repetitions
    (SSSP is skipped on the unweighted R1) — 20 execute jobs with
    repeated datasets, so cache hits and concurrency both show.
    """
    return BenchmarkConfig(
        platforms=["powergraph", "graphmat"],
        datasets=["R1", "R4"],
        algorithms=["bfs", "pr", "sssp"],
        repetitions=repetitions,
        seed=seed,
    )


@contextmanager
def _cache_directory(
    runtime: RuntimeConfig,
    run_dir: Optional[Path],
    runner: Optional[BenchmarkRunner],
):
    """Where the run's artifacts spill (created by the first store)."""
    if runtime.cache_dir is not None:
        yield Path(runtime.cache_dir)
    elif run_dir is not None:
        # Journaled runs keep their spill under the run directory, so a
        # resumed run inherits every materialization the crashed run paid
        # for instead of rebuilding them.
        yield Path(run_dir) / "cache"
    elif runner is not None and (
        runner.cache.directory is not None or run_mode(runtime) == "inline"
    ):
        # The caller's runner brings its own store; only worker
        # processes need a directory a memory-only one cannot give them.
        yield runner.cache.directory
    else:
        with tempfile.TemporaryDirectory(prefix="graphalytics-cache-") as tmp:
            yield Path(tmp)


class _MatrixRun:
    """One in-flight job-list execution."""

    def __init__(
        self,
        config: BenchmarkConfig,
        runtime: RuntimeConfig,
        cache_dir: Optional[Path],
        jobs: Optional[Sequence[JobSpec]] = None,
        runner: Optional[BenchmarkRunner] = None,
    ):
        self.config = config
        self.runtime = runtime
        self.cache_dir = cache_dir
        self.runner = runner
        self.mode = run_mode(runtime)
        self.tracer = current_tracer()
        self.clock = self.tracer.clock
        self.root_span = self.tracer.start_span(
            "matrix-run",
            attributes={"workers": runtime.workers, "mode": self.mode},
            push=True,
        )
        self._phase_spans: Dict[str, Span] = {}
        self._attempt_spans: Dict[int, Span] = {}
        self.phase_start("expand")
        specs = with_dependencies(
            matrix_jobs(config) if jobs is None else jobs,
            validate=config.validate_outputs,
        )
        self.specs = specs
        self.keys = {spec.seq: job_key(spec) for spec in specs}
        self.graph = JobGraph(
            specs,
            max_attempts=runtime.max_attempts,
            backoff_base=runtime.backoff_base,
        )
        self.execute_count = sum(
            1 for s in specs if s.kind == JobKind.EXECUTE
        )
        self.phase_end("expand")
        self.results: Dict[int, BenchmarkResult] = {}
        self.cache_stats = CacheStats()
        self._failures_seen = 0
        #: Write-ahead journal; attached by execute_matrix for journaled
        #: runs, after any restore — restored state is never re-recorded.
        self.journal: Optional[RunJournal] = None
        self.restored_jobs = 0

    # -- spans ---------------------------------------------------------------

    def phase_start(self, name: str) -> None:
        """Open a run phase: a context span under the run root."""
        self._phase_spans[name] = self.tracer.start_span(
            name, parent=self.root_span, push=True
        )

    def phase_end(self, name: str) -> None:
        self.tracer.end_span(self._phase_spans[name])

    def begin_attempt(self, seq: int, *, attempt: int, worker: int,
                      push: bool) -> None:
        """Open the dispatcher-side attempt span (dispatch → envelope).

        An in-process worker has it pushed as the current context (one
        attempt at a time, so the job's own spans nest under it); pool
        dispatch leaves it off the stack — attempts overlap there, and
        worker spans are grafted under it at merge time instead.
        """
        spec = self.graph.nodes[seq].spec
        attributes = {"job": spec.job_id, "attempt": attempt, "worker": worker}
        if spec.experiment:
            attributes["experiment"] = spec.experiment
        self._attempt_spans[seq] = self.tracer.start_span(
            "attempt", attributes=attributes, push=push
        )

    def finish_attempt(self, seq: int, *, status: str = "ok") -> Optional[Span]:
        span = self._attempt_spans.pop(seq, None)
        if span is not None:
            self.tracer.end_span(span, status=status)
        return span

    def close_spans(self) -> None:
        """End any still-open phase/attempt spans plus the run root."""
        for seq in list(self._attempt_spans):
            self.finish_attempt(seq, status="abandoned")
        for span in (*self._phase_spans.values(), self.root_span):
            if span.end is None:
                self.tracer.end_span(span)

    def run_spans(self) -> List[Span]:
        """The run root and its phase spans (none under a disabled tracer)."""
        if not self.tracer.enabled:
            return []
        return [self.root_span, *self._phase_spans.values()]

    # -- write-ahead journal -------------------------------------------------

    def journal_scheduled(self) -> None:
        """Record the full job list (one batch, one fsync)."""
        self.journal.append_many(
            [
                {
                    "type": "job-scheduled",
                    "seq": spec.seq,
                    "key": self.keys[spec.seq],
                    "job": spec.job_id,
                }
                for spec in self.specs
            ]
        )

    def journal_transition(self, record: str, seq: int, /, **fields) -> None:
        """Record one transition of job ``seq`` (journaled runs only).

        Stamped with the job's key and, while the job has an attempt
        open, that span's id — which joins journal rows to trace.jsonl.
        """
        if self.journal is None:
            return
        attempt_span = self._attempt_spans.get(seq)
        if attempt_span is not None and attempt_span.span_id:
            fields["trace"] = attempt_span.span_id
        self.journal.append(
            {"type": record, "seq": seq, "key": self.keys[seq], **fields}
        )

    def restore(self, replay: JournalReplay) -> int:
        """Replay a journal into the DAG; returns the jobs marked done.

        Completions and failed attempts are applied in journal order, so
        dependents unlock exactly as they did in the crashed run; a
        terminal failed attempt re-derives its dependency-failure cascade
        instead of trusting (possibly torn-off) ``job-failed`` records.
        In-flight jobs — an ``attempt-start`` with no terminal record —
        are left READY and simply execute again.
        """
        by_key = {self.keys[spec.seq]: spec.seq for spec in self.specs}
        for record in replay.records:
            seq = by_key.get(str(record.get("key", "")))
            if seq is None:
                continue
            node = self.graph.nodes[seq]
            kind = record.get("type")
            if kind == "job-done":
                if node.state == NodeState.DONE:
                    continue
                self.graph.complete(seq)
                if node.spec.kind == JobKind.EXECUTE:
                    self.results[seq] = BenchmarkResult(**record["result"])
                self.restored_jobs += 1
            elif kind == "attempt-failed":
                if node.state in (NodeState.DONE, NodeState.FAILED):
                    continue
                self.graph.record_attempt(
                    seq,
                    now=0.0,
                    worker=int(record.get("worker", -1)),
                    kind=str(record.get("kind", "exception")),
                    detail=str(record.get("detail", "")),
                    elapsed=float(record.get("elapsed", 0.0)),
                )
        self.sync_failures()  # journal not yet attached: no re-recording
        return self.restored_jobs

    # -- shared bookkeeping ------------------------------------------------

    def complete_job(self, seq: int, payload: Dict[str, object]) -> None:
        node = self.graph.nodes[seq]
        self.graph.complete(seq)
        fields: Dict[str, object] = {"kind": node.spec.kind}
        if node.spec.kind == JobKind.EXECUTE:
            self.results[seq] = BenchmarkResult(**payload["result"])
            # The result row travels in the record, so resume rebuilds
            # the database without re-running the job.
            fields["result"] = payload["result"]
        self.journal_transition("job-done", seq, **fields)

    def attempt_failed(self, seq: int, *, worker: int, kind: str,
                       detail: str, elapsed: float) -> None:
        node = self.graph.nodes[seq]
        failure = self.graph.record_attempt(
            seq,
            now=self.clock.now(),
            worker=worker,
            kind=kind,
            detail=detail,
            elapsed=elapsed,
        )
        self.journal_transition(
            "attempt-failed",
            seq,
            attempt=len(node.attempts),
            worker=worker,
            kind=kind,
            detail=detail,
            elapsed=elapsed,
        )
        if failure is None:
            self.tracer.counter("scheduler.retry")
        self.sync_failures()

    def sync_failures(self) -> None:
        """Turn newly permanent failures into database rows (execute jobs)."""
        while self._failures_seen < len(self.graph.failures):
            failure = self.graph.failures[self._failures_seen]
            self._failures_seen += 1
            # Accounting only: resume re-derives permanent failures (and
            # their cascades) from the attempt-failed records.
            self.journal_transition(
                "job-failed",
                failure.spec.seq,
                kind=failure.final_kind,
                attempts=len(failure.attempts),
            )
            if failure.spec.kind == JobKind.EXECUTE:
                self.results[failure.spec.seq] = failure_result(
                    failure, self.config.resources
                )

    def merged(self) -> ResultsDatabase:
        """The deterministic merge: rows ordered by matrix sequence."""
        return ResultsDatabase(
            [self.results[seq] for seq in sorted(self.results)]
        )


@contextmanager
def _workers(run: _MatrixRun):
    """The run's workers: the calling process, or a started pool."""
    runtime = run.runtime
    if run.mode == "inline":
        runner = run.runner
        if runner is None or runner.cache.directory != run.cache_dir:
            # The caller's runner executes the jobs (its graphs and
            # upload handles are reused) when its store is the run's.
            runner = BenchmarkRunner(run.config, GraphCache(run.cache_dir))
        yield InProcessWorker(runner, runtime.fault_plan)
        return
    pool = WorkerPool(
        runtime.workers, run.config, str(run.cache_dir), runtime.fault_plan
    )
    pool.start()
    try:
        yield pool
    finally:
        pool.shutdown()


def _dispatch(run: _MatrixRun) -> None:
    """The one dispatch loop. A tick hands ready jobs, lowest sequence
    first, to idle workers, then takes the next envelope into the DAG
    and polices deadlines and dead workers. An envelope in right after
    a dispatch is taken at once: an in-process job is done by then, so
    one pass runs it and its dependents, numbered after it."""
    runtime = run.runtime
    timeout = runtime.job_timeout
    with _workers(run) as workers:
        while True:
            for node in run.graph.ready_jobs(run.clock.now()):
                idle = workers.idle_workers()
                if not idle:
                    break
                worker, attempt = idle[0], node.attempt_number
                if runtime.fault_plan is not None:
                    # Chaos hook: SIGKILL the harness *before* dispatch,
                    # so every earlier completion is already journaled.
                    runtime.fault_plan.inject_dispatcher(node.spec, attempt)
                run.begin_attempt(node.seq, attempt=attempt, worker=worker,
                                  push=workers.in_process)
                run.graph.mark_running(node.seq, worker=worker, deadline=(
                    None if timeout is None else run.clock.now() + timeout
                ))
                run.journal_transition(
                    "attempt-start", node.seq, attempt=attempt, worker=worker
                )
                run.tracer.counter("scheduler.dispatch")
                workers.submit(worker, node.spec, attempt)
                envelope = workers.wait(0.0)
                if envelope is not None:
                    _handle_envelope(run, workers, envelope)
            if not run.graph.unfinished:
                return
            envelope = workers.wait(POLL_INTERVAL)
            now = run.clock.now()
            if envelope is not None:
                _handle_envelope(run, workers, envelope)
            _police(run, workers, now)


def _handle_envelope(run: _MatrixRun, workers, envelope) -> None:
    worker = int(envelope["worker"])
    seq = int(envelope["seq"])
    run.cache_stats.merge(envelope.get("cache", {}))
    node = run.graph.nodes.get(seq)
    stale = (
        node is None
        or node.state != NodeState.RUNNING
        or node.worker != worker
        or workers.busy_seq(worker) != seq
    )
    if stale:
        # A result from a worker we already timed out and replaced: the
        # job's fate was decided when we killed it; keep the decision —
        # and drop its spans, which describe an attempt we disowned. The
        # work it counted still happened.
        run.tracer.merge_counters(envelope.get("counters") or {})
        run.tracer.counter("scheduler.stale-result")
        return
    workers.mark_idle(worker)
    done = envelope["event"] == "done"
    if done:
        run.complete_job(seq, envelope["payload"])
    else:
        run.attempt_failed(
            seq,
            worker=worker,
            kind="exception",
            detail=str(envelope.get("detail", "worker exception")),
            elapsed=float(envelope.get("elapsed", 0.0)),
        )
    # Graft the worker's spans under the closed attempt span.
    absorb(envelope, run.tracer,
           run.finish_attempt(seq, status="ok" if done else "error"))


def _police(run: _MatrixRun, workers, now: float) -> None:
    """Replace the worker of every job past its deadline, and every
    worker that died holding a job; the job's attempt is recorded."""
    timeout = run.runtime.job_timeout
    for node in run.graph.running_jobs():
        if node.deadline is not None and node.deadline <= now:
            _lose(run, workers, node.worker, "timeout", elapsed=float(timeout),
                  detail=f"exceeded the {timeout:.3g} s job timeout; "
                         f"worker killed")
    for worker in workers.dead_busy_workers():
        _lose(run, workers, worker, "crash", elapsed=0.0,
              detail="worker process died while running the job")


def _lose(run: _MatrixRun, workers, worker: int, kind: str, *,
          elapsed: float, detail: str) -> None:
    seq = workers.busy_seq(worker)
    run.tracer.counter(f"scheduler.{kind}")
    workers.restart(worker)
    node = run.graph.nodes.get(seq) if seq is not None else None
    if node is not None and node.state == NodeState.RUNNING:
        run.attempt_failed(
            seq, worker=worker, kind=kind, detail=detail, elapsed=elapsed
        )
        run.finish_attempt(seq, status=kind)


def execute_matrix(
    config: BenchmarkConfig,
    runtime: Optional[RuntimeConfig] = None,
    *,
    run_dir: Optional[Union[str, Path]] = None,
    resume: Union[bool, None, JournalReplay] = False,
    jobs: Optional[Sequence[JobSpec]] = None,
    runner: Optional[BenchmarkRunner] = None,
    header: Optional[Dict[str, object]] = None,
) -> RuntimeRunResult:
    """Run a job list through the runtime: the matrix *config* selects
    or, for an experiment or the suite, the execute ``jobs`` given
    (their materialize/reference dependencies are derived here).

    A ``runner`` receives the rows in its database, once each, in job
    order — and executes the jobs itself when the run needs no worker
    process (:func:`run_mode`) and its artifact store is the run's (its
    graphs and upload handles are reused).

    With ``run_dir`` the run is **journaled**: every job transition is
    appended durably to ``<run_dir>/journal.jsonl`` before execution
    proceeds, the graph cache spills under ``<run_dir>/cache``, and the
    final database lands atomically in ``<run_dir>/results.json``. With
    ``resume=True`` (``None``: when a journal exists) the journal is
    replayed first and only the remainder of the DAG executes — the
    merged database is bit-identical (under ``canonical_json``) to an
    uninterrupted run (a :class:`JournalReplay` already loaded from
    ``run_dir`` resumes from it without reading the journal again).
    Runtime knobs (workers, timeouts) are *not* part of the
    journaled identity, so a resume may use a different worker count.
    ``header`` adds fields to a fresh journal's header.
    """
    runtime = runtime or RuntimeConfig()
    if resume and run_dir is None:
        raise ConfigurationError("resume=True requires a run_dir")
    run_dir = Path(run_dir) if run_dir is not None else None
    tracer = current_tracer()
    before = tracer.counters
    # A journaled run exports every span it records; any other run's
    # spans are the tracer's ring's to keep or not.
    capture = tracer.capture() if run_dir is not None else nullcontext([])
    started = tracer.clock.now()
    with capture as taken, _cache_directory(
        runtime, run_dir, runner
    ) as cache_dir:
        run = _MatrixRun(config, runtime, cache_dir, jobs, runner)
        header = {} if run_dir is None else {
            **(header or {}),
            "kind": "matrix",
            "matrix_hash": matrix_hash(config, run.specs),
            "config": config_payload(config),
        }
        try:
            with journaled_run(
                run_dir, header, resume=resume, since=(taken, before)
            ) as journaled:
                if journaled.replay is not None:
                    run.restore(journaled.replay)
                # Attached after any restore: restored state is never
                # re-recorded.
                run.journal = journaled.journal
                if run.journal is not None and journaled.replay is None:
                    run.journal_scheduled()
                run.phase_start("execute")
                if run.graph.unfinished:
                    _dispatch(run)
                run.phase_end("execute")
                run.phase_start("merge")
                database = run.merged()
                run.phase_end("merge")
                run.close_spans()  # the exported trace holds the run root
        finally:
            run.close_spans()
        if run_dir is not None:
            database.save(run_dir / "results.json")
    if runner is not None:
        runner.database.extend(database)
    return RuntimeRunResult(
        database=database,
        failures=list(run.graph.failures),
        cache_stats=run.cache_stats,
        counters=journaled.counters,
        workers=runtime.workers,
        mode=run.mode,
        elapsed_seconds=tracer.clock.now() - started,
        job_count=run.execute_count,
        dag_size=len(run.graph),
        restored_jobs=run.restored_jobs,
        run_dir=run_dir,
        trace_path=journaled.trace_path,
        degraded=list(run.journal.degraded) if run.journal is not None else [],
        replay=journaled.replay,
        _spans=run.run_spans(),
    )


def resume_run(
    run_dir: Union[str, Path],
    runtime: Optional[RuntimeConfig] = None,
) -> RuntimeRunResult:
    """Resume a crashed (or complete) journaled run.

    The benchmark configuration — and, for a suite run, the job list of
    the experiments its header names — is rebuilt from the journal
    header; the caller supplies only *runtime* knobs, which may differ
    from the crashed run's. Resuming an already-complete journal
    re-executes nothing and simply rebuilds the database (idempotent).
    """
    replay = RunJournal.load(run_dir)
    header = replay.header
    if header.get("kind") != "matrix":
        raise JournalError(
            f"{RunJournal.journal_path(run_dir)} records a "
            f"{header.get('kind')!r} run, not a benchmark run"
        )
    config = config_from_payload(header["config"])
    jobs = None
    if header.get("experiments") is not None:
        from repro.harness.experiments import suite_jobs

        jobs = suite_jobs(header["experiments"], config.seed)
    return execute_matrix(
        config, runtime, run_dir=run_dir, resume=replay, jobs=jobs
    )
