"""The four workloads, by the names ``BENCHMARK.json`` uses."""

from perf.workloads.kernels import KernelsWorkload
from perf.workloads.matrix import MatrixWorkload
from perf.workloads.service import ServiceWorkload
from perf.workloads.sharded import ShardedWorkload

__all__ = ["WORKLOADS"]

WORKLOADS = {
    workload.name: workload
    for workload in (
        KernelsWorkload, ShardedWorkload, MatrixWorkload, ServiceWorkload,
    )
}
