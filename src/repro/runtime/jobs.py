"""Job model of the benchmark-execution runtime.

The runtime decomposes a benchmark matrix into three kinds of jobs,
mirroring the harness pipeline (paper Figure 1): *materialize* builds a
dataset's miniature graph, *reference* computes the validation oracle
for one (dataset, algorithm), and *execute* runs one repetition of one
(platform, dataset, algorithm) workload. Execute jobs depend on their
materialize and reference jobs; the scheduler dispatches ready jobs to
the worker pool.

Failures are **data, never silence**: every attempt that times out,
crashes, or raises is recorded as an :class:`AttemptRecord`; a job that
exhausts its retry budget becomes a :class:`JobFailure` and — for
execute jobs — a ``harness-*`` row in the results database, exactly as
the paper's robustness accounting (§4.6) expects failed jobs to surface.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.harness.results import BenchmarkResult
from repro.platforms.cluster import ClusterResources

__all__ = [
    "JobKind",
    "JobSpec",
    "AttemptRecord",
    "JobFailure",
    "FAILURE_STATUSES",
    "failure_result",
]


class JobKind:
    """The three node kinds of the runtime's job DAG."""

    MATERIALIZE = "materialize"
    REFERENCE = "reference"
    EXECUTE = "execute"


#: ResultsDatabase statuses synthesized by the runtime for jobs that the
#: *harness* (not the modeled platform) failed to complete. They join the
#: driver-level statuses (``failed-memory``, ``crashed``, ...) in the
#: report's failure accounting.
FAILURE_STATUSES: Tuple[str, ...] = (
    "harness-timeout",
    "harness-crash",
    "harness-error",
    "harness-dependency",
)


@dataclass(frozen=True)
class JobSpec:
    """One schedulable unit of work; picklable, self-describing.

    ``seq`` is the job's position in the deterministic matrix expansion
    order — the merge step orders results by it, which is what makes the
    final database independent of worker count and completion order.
    """

    seq: int
    kind: str                      # one of the JobKind constants
    dataset: str                   # dataset id, e.g. "R4"
    seed: int = 0
    platform: str = ""             # execute jobs only
    algorithm: str = ""            # reference + execute jobs
    run_index: int = 0             # execute jobs only
    machines: int = 1
    threads: Optional[int] = None
    #: Experiment id of a suite job (``""`` for a plain matrix job); it
    #: tells apart the workloads several experiments repeat.
    experiment: str = ""

    @property
    def job_id(self) -> str:
        parts = [self.kind, self.dataset]
        if self.algorithm:
            parts.append(self.algorithm)
        if self.platform:
            parts.append(self.platform)
        if self.kind == JobKind.EXECUTE:
            parts.append(f"m{self.machines}")
            parts.append(f"r{self.run_index}")
        return ":".join(parts)

    def resources(self, base: Optional[ClusterResources] = None) -> ClusterResources:
        """Cluster resources for this job; ``base`` supplies the machine spec."""
        if base is not None:
            return replace(base, machines=self.machines, threads=self.threads)
        return ClusterResources(machines=self.machines, threads=self.threads)


@dataclass(frozen=True)
class AttemptRecord:
    """One failed attempt at a job: what went wrong, where, how long."""

    attempt: int                   # 1-based
    worker: int                    # worker id, -1 for inline execution
    kind: str                      # "timeout" | "crash" | "exception" | "dependency"
    detail: str
    elapsed_seconds: float = 0.0
    backoff_seconds: float = 0.0   # delay scheduled before the next attempt

    def as_dict(self) -> Dict[str, object]:
        return {
            "attempt": self.attempt,
            "worker": self.worker,
            "kind": self.kind,
            "detail": self.detail,
            "elapsed_seconds": self.elapsed_seconds,
            "backoff_seconds": self.backoff_seconds,
        }


@dataclass
class JobFailure:
    """The structured record of a job that exhausted its retry budget."""

    spec: JobSpec
    attempts: List[AttemptRecord] = field(default_factory=list)

    @property
    def job_id(self) -> str:
        return self.spec.job_id

    @property
    def final_kind(self) -> str:
        return self.attempts[-1].kind if self.attempts else "unknown"

    @property
    def retries(self) -> int:
        return max(0, len(self.attempts) - 1)

    def summary(self) -> str:
        trail = " -> ".join(a.kind for a in self.attempts) or "no attempts"
        detail = self.attempts[-1].detail if self.attempts else ""
        text = f"{len(self.attempts)} attempt(s): {trail}"
        return f"{text}; {detail}" if detail else text

    def as_dict(self) -> Dict[str, object]:
        return {
            "job_id": self.job_id,
            "kind": self.spec.kind,
            "final_kind": self.final_kind,
            "attempts": [a.as_dict() for a in self.attempts],
        }


def failure_result(
    failure: JobFailure, base: Optional[ClusterResources] = None
) -> BenchmarkResult:
    """The results-database row for a failed *execute* job (``base``
    supplies the machine spec of the threads column).

    SLA-non-compliant and unvalidated by construction; the status names
    the harness-level failure mode so the report's failure breakdown
    separates platform failures (modeled) from harness ones.
    """
    spec = failure.spec
    status = {
        "timeout": "harness-timeout",
        "crash": "harness-crash",
        "dependency": "harness-dependency",
    }.get(failure.final_kind, "harness-error")
    return BenchmarkResult(
        platform=spec.platform,
        algorithm=spec.algorithm,
        dataset=spec.dataset,
        machines=spec.machines,
        threads=spec.resources(base).threads_per_machine,
        status=status,
        failure_reason=failure.summary(),
        run_index=spec.run_index,
        sla_compliant=False,
        validated=None,
    )
