"""The workers that run jobs, and the one job body they all run.

:class:`WorkerPool` is a fixed set of long-lived worker processes, each
a :class:`repro.proc.Child` (private pipes, orphan guard, clock
handshake, stop ladder). A worker holds one job at a time, so a hung or
crashed job is attributable to exactly one process, which the
dispatcher kills and respawns without losing anything: the job's fate
is recorded as an attempt on its DAG node, never inferred.
:class:`InProcessWorker` offers the same dispatch surface in the
dispatcher's own process, and is the job body of every pool worker, so
both kinds answer with the same envelopes. A worker's runner reads
through a :class:`~repro.runtime.cache.GraphCache` on the run's shared
directory and is reused across jobs: a dataset is loaded once per
worker and built once per run. An exception escaping a job body becomes
a ``fail`` envelope (:func:`repro.proc.mark_failed`); a failure is never
swallowed (lint rule RUN001).
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional

from repro.harness.config import BenchmarkConfig
from repro.harness.datasets import get_dataset
from repro.harness.runner import BenchmarkRunner
from repro.runtime.cache import GraphCache
from repro.faults.plan import FaultPlan
from repro.proc import Child, mark_failed, serve, stop_all, wait_any
from repro.runtime.jobs import JobKind, JobSpec
from repro.trace import current_tracer

__all__ = ["run_job_spec", "InProcessWorker", "WorkerPool"]


def run_job_spec(runner: BenchmarkRunner, spec: JobSpec) -> Dict[str, object]:
    """Execute one job spec; returns a picklable result payload.

    Raises on failure — the caller (:meth:`InProcessWorker.submit` or
    the worker loop) converts exceptions into ``fail`` envelopes.
    """
    cache = runner.cache
    dataset = get_dataset(spec.dataset)
    if spec.kind == JobKind.MATERIALIZE:
        with current_tracer().span("materialize", dataset=spec.dataset):
            graph = cache.get_graph(dataset, spec.seed)
        return {
            "kind": spec.kind,
            "vertices": graph.num_vertices,
            "edges": graph.num_edges,
        }
    if spec.kind == JobKind.REFERENCE:
        with current_tracer().span(
            "reference", dataset=spec.dataset, algorithm=spec.algorithm
        ):
            reference = cache.get_reference(dataset, spec.algorithm, spec.seed)
        return {"kind": spec.kind, "elements": int(reference.shape[0])}
    # Not run_job: rows are recorded once, merged in job order.
    result = runner.execute_job(
        spec.platform,
        spec.dataset,
        spec.algorithm,
        resources=spec.resources(runner.config.resources),
        run_index=spec.run_index,
    )
    return {"kind": spec.kind, "result": result.as_dict()}


def _worker_main(
    task_conn,
    result_conn,
    worker_id: int,
    config: BenchmarkConfig,
    cache_dir: Optional[str],
    fault_plan: Optional[FaultPlan],
) -> None:
    """Worker entrypoint: per-process state plus the job body that
    :func:`repro.proc.serve` loops over until the sentinel."""
    worker = InProcessWorker(
        BenchmarkRunner(config, GraphCache(cache_dir)), fault_plan
    )

    def run_task(task, reply: Dict[str, object]) -> None:
        spec, attempt = task
        worker.run(worker_id, spec, attempt, reply)

    try:
        serve(task_conn, result_conn, run_task, process=f"worker-{worker_id}")
    finally:
        # A sharded pythonref job left its graph's shards deployed; a
        # worker that never ran one never loaded the engine.
        partitioned = sys.modules.get("repro.engines.partitioned")
        if partitioned is not None:
            partitioned.undeploy()


class _Workers:
    """The dispatch bookkeeping of both worker kinds: worker id -> seq
    of the job it holds (``None`` = idle)."""

    _busy: Dict[int, Optional[int]]

    def idle_workers(self) -> List[int]:
        return sorted(
            worker_id for worker_id, seq in self._busy.items() if seq is None
        )

    def mark_idle(self, worker_id: int) -> None:
        self._busy[worker_id] = None

    def busy_seq(self, worker_id: int) -> Optional[int]:
        return self._busy[worker_id]


class InProcessWorker(_Workers):
    """Runs jobs in this process, one at a time, on one runner: the body
    of every pool worker process, and the dispatcher's own worker when a
    run needs no second process. :meth:`submit` then runs the job to its
    end under the pushed attempt span, so the job's spans nest there.
    It never dies and never overruns a deadline: a run that needs either
    gets a :class:`WorkerPool`."""

    in_process = True

    def __init__(self, runner: BenchmarkRunner, fault_plan: Optional[FaultPlan]):
        self.runner = runner
        self.fault_plan = fault_plan
        # Worker -1, the dispatcher, in attempt records, spans and journal.
        self._busy = {-1: None}
        self._reply: Optional[Dict[str, object]] = None
        runner.cache.take_stats_delta()  # count this run's traffic only

    def run(self, worker_id: int, spec: JobSpec, attempt: int,
            reply: Dict[str, object]) -> None:
        """The one job body: the ``task`` span, fault injection,
        :func:`run_job_spec`, and the attempt's cache traffic and elapsed
        time, all into ``reply``. Raises what the job raised."""
        reply["worker"] = worker_id
        reply["seq"] = spec.seq
        try:
            with current_tracer().span(
                "task", job=spec.job_id, worker=worker_id, attempt=attempt
            ) as task_span:
                if self.fault_plan is not None:
                    self.fault_plan.inject(spec, attempt)
                reply["payload"] = run_job_spec(self.runner, spec)
        finally:
            # Shipped on failure too: the dispatcher accounts cache
            # traffic and elapsed time per attempt, not per success.
            reply["cache"] = self.runner.cache.take_stats_delta()
            reply["elapsed"] = task_span.duration

    # -- dispatch ----------------------------------------------------------

    def submit(self, worker_id: int, spec: JobSpec, attempt: int) -> None:
        self._busy[worker_id] = spec.seq
        self._reply = {"event": "done"}
        try:
            self.run(worker_id, spec, attempt, self._reply)
        except Exception as exc:
            mark_failed(self._reply, exc)

    def dead_busy_workers(self) -> List[int]:
        return []

    def wait(self, timeout: float) -> Optional[Dict[str, object]]:
        """The finished job's envelope; with none held (a retry is
        backing off), sleep out the tick."""
        reply, self._reply = self._reply, None
        if reply is None:
            current_tracer().clock.sleep(timeout)
        return reply


class WorkerPool(_Workers):
    """A fixed-size pool of single-job-at-a-time worker processes."""

    in_process = False

    def __init__(self, workers: int, config: BenchmarkConfig, cache_dir: str,
                 fault_plan: Optional[FaultPlan]):
        self.size = workers
        self.config = config
        self.cache_dir = cache_dir
        self.fault_plan = fault_plan
        self._children: Dict[int, Child] = {}
        self._busy = {}

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        for worker_id in range(self.size):
            self._spawn(worker_id)

    def _spawn(self, worker_id: int) -> None:
        self._busy[worker_id] = None
        self._children[worker_id] = Child(
            f"graphalytics-worker-{worker_id}",
            target=_worker_main,
            args=(worker_id, self.config, self.cache_dir, self.fault_plan),
        )

    def restart(self, worker_id: int) -> None:
        """Kill (if needed) and respawn one worker; its job (and any
        bytes stuck in its result pipe) is gone — the attempt record on
        the DAG node is the source of truth, not the channel."""
        self._children[worker_id].stop(graceful=False)
        self._spawn(worker_id)

    def shutdown(self) -> None:
        stop_all(self._children.values())
        self._children.clear()
        self._busy.clear()

    # -- dispatch ----------------------------------------------------------

    def submit(self, worker_id: int, spec: JobSpec, attempt: int) -> None:
        self._busy[worker_id] = spec.seq
        self._children[worker_id].send((spec, attempt))

    def dead_busy_workers(self) -> List[int]:
        """Workers that died while holding a job (crash candidates)."""
        return sorted(
            worker_id
            for worker_id, seq in self._busy.items()
            if seq is not None and not self._children[worker_id].alive()
        )

    def wait(self, timeout: float) -> Optional[Dict[str, object]]:
        """Next worker envelope, or ``None`` after the poll interval
        (a tick: the dispatcher polices deadlines and dead workers
        itself)."""
        replies = wait_any(self._children.values(), timeout)
        return next((envelope for _child, envelope in replies), None)
