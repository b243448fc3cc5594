"""Dependency-aware job scheduling for the benchmark runtime.

A run is a **job list**: execute jobs in the order their rows are
reported — :func:`matrix_jobs` for a :class:`~repro.harness.config.
BenchmarkConfig` (platform → dataset → algorithm → repetition), an
experiment's own list for a suite run. :func:`with_dependencies` turns
any such list into the runtime's job DAG:

* one **materialize** job per dataset that any job uses;
* one **reference** job per validated (dataset, algorithm) pair —
  depends on the materialization;
* the **execute** jobs, numbered in list order — each depends on its
  materialization and (when validating) its reference. The merge step
  sorts by that number, which is what makes the final database
  identical for any worker count.

:class:`JobGraph` tracks node states, promotes dependents as jobs
finish, applies the bounded retry-with-backoff policy, and cascades a
permanent dependency failure into structured failures for every
transitive dependent (a job whose dataset never materialized is a
*recorded* failure, not a missing row).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.exceptions import ValidationError
from repro.algorithms.registry import get_algorithm
from repro.harness.config import BenchmarkConfig
from repro.harness.datasets import get_dataset
from repro.platforms.registry import get_platform
from repro.proc import RetryPolicy
from repro.runtime.jobs import AttemptRecord, JobFailure, JobKind, JobSpec

__all__ = [
    "can_run_combo",
    "matrix_jobs",
    "with_dependencies",
    "expand_matrix",
    "JobNode",
    "JobGraph",
]


def can_run_combo(
    platform: str, dataset_id: str, algorithm: str, *, machines: int = 1
) -> bool:
    """Whether the combination is runnable at all.

    Weighted algorithms need weighted datasets; non-distributed
    platforms cannot take multi-machine resources.
    """
    dataset = get_dataset(dataset_id)
    if get_algorithm(algorithm).weighted and not dataset.weighted:
        return False
    if machines > 1 and not get_platform(platform).distributed:
        return False
    return True


class NodeState:
    PENDING = "pending"    # waiting on dependencies
    READY = "ready"        # dispatchable (possibly after a backoff delay)
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"


@dataclass
class JobNode:
    """One DAG node plus its scheduling state."""

    spec: JobSpec
    deps: Tuple[int, ...] = ()
    state: str = NodeState.PENDING
    attempts: List[AttemptRecord] = field(default_factory=list)
    eligible_at: float = 0.0       # monotonic time before which not dispatchable
    worker: Optional[int] = None
    deadline: Optional[float] = None

    @property
    def seq(self) -> int:
        return self.spec.seq

    @property
    def attempt_number(self) -> int:
        """1-based number of the attempt about to run (or running)."""
        return len(self.attempts) + 1


def matrix_jobs(config: BenchmarkConfig) -> List[JobSpec]:
    """The configured selection as a job list (unnumbered execute jobs)."""
    machines = config.resources.machines
    jobs: List[JobSpec] = []
    for platform in config.platforms:
        for dataset_id in config.datasets:
            for algorithm in config.algorithms:
                if not can_run_combo(
                    platform, dataset_id, algorithm, machines=machines
                ):
                    if config.skip_impossible:
                        continue
                    raise ValidationError(
                        f"cannot run {algorithm} on {dataset_id} with {platform}"
                    )
                jobs.extend(
                    JobSpec(
                        seq=0,
                        kind=JobKind.EXECUTE,
                        dataset=dataset_id,
                        platform=platform,
                        algorithm=algorithm,
                        run_index=run_index,
                        machines=machines,
                        threads=config.resources.threads,
                        seed=config.seed,
                    )
                    for run_index in range(config.repetitions)
                )
    return jobs


def with_dependencies(
    jobs: Sequence[JobSpec], *, validate: bool = True
) -> List[JobSpec]:
    """The DAG of a job list, deterministic in spec and numbering:
    materializations, then references (each in first-use order), then
    the jobs themselves in list order."""
    materialize: Dict[str, JobSpec] = {}
    reference: Dict[Tuple[str, str], JobSpec] = {}
    for job in jobs:
        materialize.setdefault(
            job.dataset,
            JobSpec(seq=0, kind=JobKind.MATERIALIZE, dataset=job.dataset,
                    seed=job.seed),
        )
        if validate:
            reference.setdefault(
                (job.dataset, job.algorithm),
                JobSpec(seq=0, kind=JobKind.REFERENCE, dataset=job.dataset,
                        algorithm=job.algorithm, seed=job.seed),
            )
    return [
        replace(spec, seq=seq)
        for seq, spec in enumerate(
            (*materialize.values(), *reference.values(), *jobs)
        )
    ]


def expand_matrix(config: BenchmarkConfig) -> List[JobSpec]:
    """The DAG of the configured selection."""
    return with_dependencies(
        matrix_jobs(config), validate=config.validate_outputs
    )


class JobGraph:
    """The DAG with scheduling state and the retry/failure policy."""

    def __init__(
        self,
        specs: List[JobSpec],
        *,
        max_attempts: int = 2,
        backoff_base: float = 0.05,
    ):
        self.retry = RetryPolicy(
            max_attempts=max(1, int(max_attempts)),
            backoff_base=float(backoff_base),
        )
        self.nodes: Dict[int, JobNode] = {}
        self.failures: List[JobFailure] = []
        by_key: Dict[Tuple[str, str, str], int] = {}
        for spec in specs:
            by_key[(spec.kind, spec.dataset, spec.algorithm)] = spec.seq
        for spec in specs:
            deps: List[int] = []
            if spec.kind in (JobKind.REFERENCE, JobKind.EXECUTE):
                mat = by_key.get((JobKind.MATERIALIZE, spec.dataset, ""))
                if mat is not None:
                    deps.append(mat)
            if spec.kind == JobKind.EXECUTE:
                ref = by_key.get((JobKind.REFERENCE, spec.dataset, spec.algorithm))
                if ref is not None:
                    deps.append(ref)
            self.nodes[spec.seq] = JobNode(spec=spec, deps=tuple(deps))
        self._dependents: Dict[int, List[int]] = {}
        for node in self.nodes.values():
            for dep in node.deps:
                self._dependents.setdefault(dep, []).append(node.seq)
        for node in self.nodes.values():
            if not node.deps:
                node.state = NodeState.READY

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def unfinished(self) -> int:
        return sum(
            1 for n in self.nodes.values()
            if n.state not in (NodeState.DONE, NodeState.FAILED)
        )

    def ready_jobs(self, now: float) -> Iterator[JobNode]:
        """Dispatchable nodes, lowest sequence number first."""
        for seq in sorted(self.nodes):
            node = self.nodes[seq]
            if node.state == NodeState.READY and node.eligible_at <= now:
                yield node

    def running_jobs(self) -> List[JobNode]:
        return [
            self.nodes[seq]
            for seq in sorted(self.nodes)
            if self.nodes[seq].state == NodeState.RUNNING
        ]

    # -- transitions ---------------------------------------------------------

    def mark_running(
        self, seq: int, *, worker: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> None:
        node = self.nodes[seq]
        node.state = NodeState.RUNNING
        node.worker = worker
        node.deadline = deadline

    def complete(self, seq: int) -> None:
        node = self.nodes[seq]
        node.state = NodeState.DONE
        node.worker = None
        node.deadline = None
        for dep_seq in self._dependents.get(seq, ()):
            dependent = self.nodes[dep_seq]
            if dependent.state != NodeState.PENDING:
                continue
            if all(
                self.nodes[d].state == NodeState.DONE for d in dependent.deps
            ):
                dependent.state = NodeState.READY

    def record_attempt(
        self, seq: int, *, now: float, worker: int, kind: str,
        detail: str, elapsed: float,
    ) -> Optional[JobFailure]:
        """Record a failed attempt; schedule a retry or fail the job.

        Returns the :class:`JobFailure` when the retry budget is spent
        (``None`` means a retry was scheduled). A permanent failure
        cascades to every transitive dependent.
        """
        node = self.nodes[seq]
        attempt = node.attempt_number
        retrying = not self.retry.exhausted(attempt)
        backoff = self.retry.backoff(attempt) if retrying else 0.0
        node.attempts.append(
            AttemptRecord(
                attempt=attempt,
                worker=worker,
                kind=kind,
                detail=detail,
                elapsed_seconds=elapsed,
                backoff_seconds=backoff,
            )
        )
        node.worker = None
        node.deadline = None
        if retrying:
            node.state = NodeState.READY
            node.eligible_at = now + backoff
            return None
        return self._fail(node)

    def _fail(self, node: JobNode) -> JobFailure:
        node.state = NodeState.FAILED
        failure = JobFailure(spec=node.spec, attempts=list(node.attempts))
        self.failures.append(failure)
        self._cascade_dependency_failure(node.seq)
        return failure

    def _cascade_dependency_failure(self, seq: int) -> None:
        for dep_seq in self._dependents.get(seq, ()):
            dependent = self.nodes[dep_seq]
            if dependent.state in (NodeState.DONE, NodeState.FAILED):
                continue
            dependent.attempts.append(
                AttemptRecord(
                    attempt=dependent.attempt_number,
                    worker=-1,
                    kind="dependency",
                    detail=(
                        f"dependency {self.nodes[seq].spec.job_id} failed"
                    ),
                )
            )
            dependent.state = NodeState.FAILED
            self.failures.append(
                JobFailure(spec=dependent.spec, attempts=list(dependent.attempts))
            )
            self._cascade_dependency_failure(dep_seq)
