"""The benchmark-execution runtime: every job list runs here, one API.

:func:`execute_matrix` turns a job list — a benchmark selection's
matrix, or whatever list the caller hands it (an experiment, the whole
suite) — into the job DAG, executes it — inline for ``workers=1``, on
the multiprocessing pool otherwise — and merges results
deterministically:

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
from contextlib import contextmanager
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
from repro.runtime.pool import WorkerPool, run_job_spec
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


#: Dispatcher tick in pool mode (seconds): how long one wait for a
#: worker envelope may block before deadlines and deaths are policed.
POLL_INTERVAL = 0.02


@dataclass
class RuntimeConfig:
    """Tuning knobs of the execution runtime (see docs/runtime.md)."""

    workers: int = 1
    #: "auto" picks inline for one worker, the process pool otherwise.
    mode: str = "auto"
    #: Per-job wall-clock budget (pool mode); ``None`` disables.
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
        if self.mode not in ("auto", "inline", "pool"):
            raise ConfigurationError(
                f"mode must be auto/inline/pool, got {self.mode!r}"
            )
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")
        if self.job_timeout is not None and self.job_timeout <= 0:
            raise ConfigurationError("job_timeout must be positive")

    @property
    def resolved_mode(self) -> str:
        if self.mode != "auto":
            return self.mode
        return "inline" if self.workers <= 1 else "pool"


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
        spans (times relative to the run's start); the run-level
        counters ride on the ``execute`` phase's metadata so the archive
        stays self-describing. A run under a disabled tracer recorded no
        spans and archives no phases.
        """
        from repro.granula.archiver import PerformanceArchive, phases_from_spans
        from repro.granula.model import model_for_platform

        model = model_for_platform("runtime")
        roots = phases_from_spans([span.as_dict() for span in self._spans])
        phases = roots[0].children if roots else []
        for phase in phases:
            phase.start -= roots[0].start
            phase.end -= roots[0].start
            phase.description = (
                phase.description or model.spec_for(phase.name).description
            )
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
        runner.cache.directory is not None
        or runtime.resolved_mode == "inline"
    ):
        # The caller's runner brings its own store; only pool workers
        # need a directory a memory-only one cannot give them.
        yield runner.cache.directory
    else:
        with tempfile.TemporaryDirectory(prefix="graphalytics-cache-") as tmp:
            yield Path(tmp)


class _MatrixRun:
    """One in-flight job-list execution (shared by inline and pool modes)."""

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
        self.tracer = current_tracer()
        self.clock = self.tracer.clock
        self.root_span = self.tracer.start_span(
            "matrix-run",
            attributes={"workers": runtime.workers,
                        "mode": runtime.resolved_mode},
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
                      push: bool = False) -> Span:
        """Open the dispatcher-side attempt span (dispatch → envelope).

        Inline execution pushes it as the current context (one attempt
        at a time, so the job's own spans nest under it); pool dispatch
        leaves it off the stack — attempts overlap there, and worker
        spans are grafted under it at merge time instead.
        """
        spec = self.graph.nodes[seq].spec
        attributes = {"job": spec.job_id, "attempt": attempt, "worker": worker}
        if spec.experiment:
            attributes["experiment"] = spec.experiment
        span = self.tracer.start_span("attempt", attributes=attributes, push=push)
        self._attempt_spans[seq] = span
        return span

    def finish_attempt(self, seq: int, *, status: str = "ok") -> Optional[Span]:
        span = self._attempt_spans.pop(seq, None)
        if span is not None:
            self.tracer.end_span(span, status=status)
        return span

    def merge_worker_trace(self, seq: int, envelope: Dict[str, object],
                           *, status: str) -> None:
        """Close the attempt span; graft the worker's spans under it and
        sum in its counters (:func:`repro.proc.absorb`)."""
        absorb(envelope, self.tracer, self.finish_attempt(seq, status=status))

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
        base = self.config.resources
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
                row = failure_result(failure)
                # Respect a custom machine spec for the threads column.
                self.results[failure.spec.seq] = BenchmarkResult(
                    **{
                        **row.as_dict(),
                        "threads": failure.spec.resources(base).threads_per_machine,
                    }
                )

    def merged(self) -> ResultsDatabase:
        """The deterministic merge: rows ordered by matrix sequence."""
        return ResultsDatabase(
            [self.results[seq] for seq in sorted(self.results)]
        )


def _run_inline(run: _MatrixRun) -> None:
    """Single-process execution through the same DAG and retry policy."""
    runtime = run.runtime
    if runtime.fault_plan is not None and any(
        f.kind in ("hang", "crash") for f in runtime.fault_plan.faults
    ):
        raise ConfigurationError(
            "hang/crash fault injection requires pool mode (workers > 1 "
            "or mode='pool')"
        )
    runner = run.runner
    if runner is None or runner.cache.directory != run.cache_dir:
        # The caller's runner executes the jobs (its graphs and upload
        # handles are reused) when its store is the run's store.
        runner = BenchmarkRunner(run.config, GraphCache(run.cache_dir))
    runner.cache.take_stats_delta()  # count this run's traffic only
    graph = run.graph
    clock = run.clock
    tracer = run.tracer
    while graph.unfinished:
        now = clock.now()
        progressed = False
        for node in list(graph.ready_jobs(now)):
            progressed = True
            spec = node.spec
            attempt = node.attempt_number
            if runtime.fault_plan is not None:
                # Chaos hook: SIGKILL the harness *before* dispatch, so
                # every earlier completion is already in the journal.
                runtime.fault_plan.inject_dispatcher(spec, attempt)
            graph.mark_running(node.seq, worker=-1)
            run.begin_attempt(node.seq, attempt=attempt, worker=-1, push=True)
            run.journal_transition(
                "attempt-start", node.seq, attempt=attempt, worker=-1
            )
            tracer.counter("scheduler.dispatch")
            try:
                with tracer.span(
                    "task", job=spec.job_id, worker=-1, attempt=attempt
                ) as task_span:
                    if runtime.fault_plan is not None:
                        runtime.fault_plan.inject(spec, attempt)
                    payload = run_job_spec(runner, spec)
            except Exception as exc:
                # Converted into a structured failure record, never lost.
                run.attempt_failed(
                    node.seq,
                    worker=-1,
                    kind="exception",
                    detail=f"{type(exc).__name__}: {exc}",
                    elapsed=task_span.duration,
                )
                run.finish_attempt(node.seq, status="error")
                continue
            run.complete_job(node.seq, payload)
            run.finish_attempt(node.seq)
        if not progressed:
            wake = graph.next_wake(clock.now())
            if wake is None:
                break  # nothing ready, nothing scheduled: DAG is drained
            clock.sleep(max(0.0, wake - clock.now()))
    run.cache_stats.merge(runner.cache.take_stats_delta())


def _run_pool(run: _MatrixRun) -> None:
    """Dispatch the DAG onto the worker pool; police deadlines and deaths."""
    runtime = run.runtime
    graph = run.graph
    pool = WorkerPool(
        runtime.workers,
        run.config,
        cache_dir=str(run.cache_dir),
        fault_plan=runtime.fault_plan,
    )
    pool.start()
    try:
        while graph.unfinished:
            now = run.clock.now()
            idle = pool.idle_workers()
            for node in graph.ready_jobs(now):
                if not idle:
                    break
                worker = idle.pop(0)
                attempt = node.attempt_number
                if runtime.fault_plan is not None:
                    runtime.fault_plan.inject_dispatcher(node.spec, attempt)
                run.begin_attempt(node.seq, attempt=attempt, worker=worker)
                pool.submit(worker, node.spec, attempt)
                deadline = (
                    now + runtime.job_timeout
                    if runtime.job_timeout is not None
                    else None
                )
                graph.mark_running(node.seq, worker=worker, deadline=deadline)
                run.journal_transition(
                    "attempt-start", node.seq, attempt=attempt, worker=worker
                )
                run.tracer.counter("scheduler.dispatch")
            envelope = pool.wait(POLL_INTERVAL)
            now = run.clock.now()
            if envelope is not None:
                _handle_envelope(run, pool, envelope)
            _police_deadlines(run, pool, now)
            _police_crashes(run, pool)
    finally:
        pool.shutdown()


def _handle_envelope(run: _MatrixRun, pool: WorkerPool, envelope) -> None:
    worker = int(envelope["worker"])
    seq = int(envelope["seq"])
    run.cache_stats.merge(envelope.get("cache", {}))
    node = run.graph.nodes.get(seq)
    stale = (
        node is None
        or node.state != NodeState.RUNNING
        or node.worker != worker
        or pool.busy_seq(worker) != seq
    )
    if stale:
        # A result from a worker we already timed out and replaced: the
        # job's fate was decided when we killed it; keep the decision —
        # and drop its spans, which describe an attempt we disowned. The
        # work it counted still happened.
        run.tracer.merge_counters(envelope.get("counters") or {})
        run.tracer.counter("scheduler.stale-result")
        return
    pool.mark_idle(worker)
    if envelope["event"] == "done":
        run.complete_job(seq, envelope["payload"])
        run.merge_worker_trace(seq, envelope, status="ok")
    else:
        run.attempt_failed(
            seq,
            worker=worker,
            kind="exception",
            detail=str(envelope.get("detail", "worker exception")),
            elapsed=float(envelope.get("elapsed", 0.0)),
        )
        run.merge_worker_trace(seq, envelope, status="error")


def _police_deadlines(run: _MatrixRun, pool: WorkerPool, now: float) -> None:
    for node in run.graph.running_jobs():
        if node.deadline is None or node.deadline > now:
            continue
        worker = node.worker if node.worker is not None else -1
        run.tracer.counter("scheduler.timeout")
        pool.restart(worker)
        run.attempt_failed(
            node.seq,
            worker=worker,
            kind="timeout",
            detail=(
                f"exceeded the {run.runtime.job_timeout:.3g} s job timeout; "
                f"worker killed"
            ),
            elapsed=float(run.runtime.job_timeout or 0.0),
        )
        run.finish_attempt(node.seq, status="timeout")


def _police_crashes(run: _MatrixRun, pool: WorkerPool) -> None:
    for worker in pool.dead_busy_workers():
        seq = pool.busy_seq(worker)
        node = run.graph.nodes.get(seq) if seq is not None else None
        run.tracer.counter("scheduler.crash")
        pool.restart(worker)
        if node is not None and node.state == NodeState.RUNNING:
            run.attempt_failed(
                node.seq,
                worker=worker,
                kind="crash",
                detail="worker process died while running the job",
                elapsed=0.0,
            )
            run.finish_attempt(node.seq, status="crash")


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
    order — and executes the jobs itself when the run is inline and its
    artifact store is the run's (its graphs and upload handles are
    reused).

    With ``run_dir`` the run is **journaled**: every job transition is
    appended durably to ``<run_dir>/journal.jsonl`` before execution
    proceeds, the graph cache spills under ``<run_dir>/cache``, and the
    final database lands atomically in ``<run_dir>/results.json``. With
    ``resume=True`` (``None``: when a journal exists) the journal is
    replayed first and only the remainder of the DAG executes — the
    merged database is bit-identical (under ``canonical_json``) to an
    uninterrupted run (a :class:`JournalReplay` already loaded from
    ``run_dir`` resumes from it without reading the journal again).
    Runtime knobs (workers, mode, timeouts) are *not* part of the
    journaled identity, so a resume may use a different worker count.
    ``header`` adds fields to a fresh journal's header.
    """
    runtime = runtime or RuntimeConfig()
    if resume and run_dir is None:
        raise ConfigurationError("resume=True requires a run_dir")
    run_dir = Path(run_dir) if run_dir is not None else None
    tracer = current_tracer()
    since = (tracer.mark(), tracer.counters)
    started = tracer.clock.now()
    with _cache_directory(runtime, run_dir, runner) as cache_dir:
        run = _MatrixRun(config, runtime, cache_dir, jobs, runner)
        header = {} if run_dir is None else {
            **(header or {}),
            "kind": "matrix",
            "matrix_hash": matrix_hash(config, run.specs),
            "config": config_payload(config),
        }
        try:
            with journaled_run(
                run_dir, header, resume=resume, since=since
            ) as journaled:
                if journaled.replay is not None:
                    run.restore(journaled.replay)
                # Attached after any restore: restored state is never
                # re-recorded.
                run.journal = journaled.journal
                if run.journal is not None and journaled.replay is None:
                    run.journal_scheduled()
                mode = runtime.resolved_mode
                run.phase_start("execute")
                if run.graph.unfinished:
                    if mode == "pool":
                        _run_pool(run)
                    else:
                        _run_inline(run)
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
        mode=mode,
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
