"""Simulated graph-analysis platforms (paper §3.1, Table 5).

Each driver implements the Graphalytics driver API (upload / execute /
retrieve / delete) against a *real* in-process execution of the reference
algorithms, while full-scale run-times, memory demands, and failures come
from a calibrated per-platform performance model — see DESIGN.md §2 for
the substitution rationale and calibration sources.
"""

from repro.facade import lazy_exports

__all__ = [
    "MachineSpec",
    "ClusterResources",
    "DAS5_MACHINE",
    "PlatformDriver",
    "PlatformInfo",
    "UploadHandle",
    "JobResult",
    "JobStatus",
    "PerformanceModel",
    "WorkloadProfile",
    "PLATFORMS",
    "get_platform",
    "platform_names",
    "create_driver",
    "PartitionStats",
    "hash_edge_cut",
    "greedy_vertex_cut",
    "compare_strategies",
    "TuningDecision",
    "recommend_resources",
    "capacity_frontier",
]

__getattr__, __dir__ = lazy_exports(__name__, __all__, {
    "repro.platforms.cluster": (
        "MachineSpec", "ClusterResources", "DAS5_MACHINE",
    ),
    "repro.platforms.base": (
        "PlatformDriver", "PlatformInfo", "UploadHandle", "JobResult",
        "JobStatus",
    ),
    "repro.platforms.model": ("PerformanceModel", "WorkloadProfile"),
    "repro.platforms.registry": (
        "PLATFORMS", "get_platform", "platform_names", "create_driver",
    ),
    "repro.platforms.partitioning": (
        "PartitionStats", "hash_edge_cut", "greedy_vertex_cut",
        "compare_strategies",
    ),
    "repro.platforms.tuning": (
        "TuningDecision", "recommend_resources", "capacity_frontier",
    ),
})
