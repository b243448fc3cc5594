"""The concurrent benchmark-execution runtime (docs/runtime.md).

Public surface: :func:`~repro.runtime.executor.execute_matrix` runs a
job list — a benchmark matrix, an experiment, the suite — through the
dependency-aware scheduler, the multiprocessing worker pool, and the
content-addressed graph cache, producing a deterministically merged results database plus structured
failure and cache reports.
"""

from repro.facade import lazy_exports

__all__ = [
    "AttemptRecord",
    "CacheStats",
    "FAILURE_STATUSES",
    "FaultPlan",
    "FaultSpec",
    "GraphCache",
    "InjectedFaultError",
    "JobFailure",
    "JobGraph",
    "JobKind",
    "JobNode",
    "JobSpec",
    "JournalError",
    "JournalReplay",
    "RunJournal",
    "RuntimeConfig",
    "RuntimeRunResult",
    "WorkerPool",
    "can_run_combo",
    "example_matrix",
    "execute_matrix",
    "expand_matrix",
    "failure_result",
    "graph_key",
    "job_key",
    "matrix_hash",
    "matrix_jobs",
    "reference_key",
    "resume_run",
    "with_dependencies",
]

__getattr__, __dir__ = lazy_exports(__name__, __all__, {
    "repro.runtime.cache": (
        "CacheStats", "GraphCache", "graph_key", "reference_key",
    ),
    "repro.runtime.executor": (
        "RuntimeConfig", "RuntimeRunResult", "example_matrix",
        "execute_matrix", "resume_run",
    ),
    "repro.faults.plan": ("FaultPlan", "FaultSpec", "InjectedFaultError"),
    "repro.runtime.journal": (
        "JournalError", "JournalReplay", "RunJournal", "job_key",
        "matrix_hash",
    ),
    "repro.runtime.jobs": (
        "FAILURE_STATUSES", "AttemptRecord", "JobFailure", "JobKind",
        "JobSpec", "failure_result",
    ),
    "repro.runtime.pool": ("WorkerPool",),
    "repro.runtime.scheduler": (
        "JobGraph", "JobNode", "can_run_combo", "expand_matrix", "matrix_jobs",
        "with_dependencies",
    ),
})
