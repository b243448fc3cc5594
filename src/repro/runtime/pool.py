"""The multiprocessing worker pool and the worker-side job body.

Each worker is a long-lived :class:`repro.proc.Child` — private pipes,
orphan guard, clock handshake, stop ladder all live there. The
dispatcher hands a worker one job at a time, so a hung or crashed job is
attributable to exactly one process, which the dispatcher can kill and
respawn without losing anything: the job's fate is recorded as an
attempt on its DAG node, never inferred. What this module keeps is the
pool's own bookkeeping: which worker holds which job, and how many were
respawned.

Worker-side state is deliberately reconstructable: a
:class:`~repro.harness.runner.BenchmarkRunner` reading through a
:class:`~repro.runtime.cache.GraphCache` on the run's shared directory
is built once per process and reused across jobs, so repeated datasets
are loaded once per worker and built once per run.

Every exception escaping a job body is converted into a structured
failure envelope and shipped back by :func:`repro.proc.serve` — the
worker loop never swallows a failure (lint rule RUN001 enforces this
statically).
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional

from repro.harness.config import BenchmarkConfig
from repro.harness.datasets import get_dataset
from repro.harness.runner import BenchmarkRunner
from repro.runtime.cache import GraphCache
from repro.faults.plan import FaultPlan
from repro.proc import Child, serve, stop_all, wait_any
from repro.runtime.jobs import JobKind, JobSpec
from repro.trace import current_tracer

__all__ = ["run_job_spec", "WorkerPool"]


def run_job_spec(runner: BenchmarkRunner, spec: JobSpec) -> Dict[str, object]:
    """Execute one job spec; returns a picklable result payload.

    Raises on failure — the caller (worker loop or inline executor)
    converts exceptions into structured failure records.
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
    runner = BenchmarkRunner(config, GraphCache(cache_dir))

    def run_task(task, reply: Dict[str, object]) -> None:
        spec, attempt = task
        reply["worker"] = worker_id
        reply["seq"] = spec.seq
        try:
            with current_tracer().span(
                "task", job=spec.job_id, worker=worker_id, attempt=attempt
            ) as task_span:
                if fault_plan is not None:
                    fault_plan.inject(spec, attempt)
                reply["payload"] = run_job_spec(runner, spec)
        finally:
            # Shipped on failure too: the dispatcher accounts cache
            # traffic and elapsed time per attempt, not per success.
            reply["cache"] = runner.cache.take_stats_delta()
            reply["elapsed"] = task_span.duration

    try:
        serve(task_conn, result_conn, run_task, process=f"worker-{worker_id}")
    finally:
        # A sharded pythonref job left its graph's shards deployed; a
        # worker that never ran one never loaded the engine.
        partitioned = sys.modules.get("repro.engines.partitioned")
        if partitioned is not None:
            partitioned.undeploy()


class WorkerPool:
    """A fixed-size pool of single-job-at-a-time worker processes."""

    def __init__(
        self,
        workers: int,
        config: BenchmarkConfig,
        *,
        cache_dir: Optional[str] = None,
        fault_plan: Optional[FaultPlan] = None,
    ):
        self.size = max(1, int(workers))
        self.config = config
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        self.fault_plan = fault_plan
        self._children: Dict[int, Child] = {}
        #: worker id -> seq of the job it holds (``None`` = idle).
        self._busy: Dict[int, Optional[int]] = {}
        self.respawns = 0

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
        self.respawns += 1
        self._spawn(worker_id)

    def shutdown(self) -> None:
        stop_all(self._children.values())
        self._children.clear()
        self._busy.clear()

    # -- dispatch ----------------------------------------------------------

    def idle_workers(self) -> List[int]:
        return sorted(
            worker_id for worker_id, seq in self._busy.items() if seq is None
        )

    def submit(self, worker_id: int, spec: JobSpec, attempt: int) -> None:
        self._busy[worker_id] = spec.seq
        self._children[worker_id].send((spec, attempt))

    def mark_idle(self, worker_id: int) -> None:
        self._busy[worker_id] = None

    def busy_seq(self, worker_id: int) -> Optional[int]:
        return self._busy[worker_id]

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
        replies = wait_any(self._children.values(), max(0.001, timeout))
        for _child, envelope in replies:
            return envelope
        return None
