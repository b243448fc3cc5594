"""``repro.engines.partitioned`` — sharded, measured graph execution.

The paper's horizontal-scaling experiments (§6), as a *mechanistic*
system instead of a calibrated formula. A graph is edge-cut partitioned
across shard workers (hash or range strategy) and the six core
algorithms run as the :mod:`repro.engines.spmv` loops over one sharded
product: each shard reduces the dense state vector over the CSR slots
whose target it owns, in original slot order, and the owned slices are
scattered back — so any shard count, either strategy, and either
transport produce **bit-identical** outputs to the numpy reference
kernels in :mod:`repro.algorithms`.

See docs/scaling.md for the partitioner, the product, the barrier/span
timeline, supervision, and the measured scaling curves
(``benchmarks/bench_partitioned_scaling.py`` → ``BENCH_partitioned.json``).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.engines.partitioned.coordinator import PartitionedEngine, ShardFailure
from repro.engines.partitioned.partition import (
    PARTITION_STRATEGIES,
    Partition,
    PartitionSet,
    partition_graph,
)
from repro.engines.partitioned.shard import STEP_FAULT_POINT
from repro.exceptions import ConfigurationError
from repro.graph.graph import Graph

__all__ = [
    "PARTITION_STRATEGIES",
    "STEP_FAULT_POINT",
    "Partition",
    "PartitionSet",
    "PartitionedEngine",
    "ShardFailure",
    "partition_graph",
    "run_algorithm",
    "run_bfs",
    "run_sssp",
    "run_wcc",
    "run_cdlp",
    "run_pagerank",
    "run_lcc",
]


def run_algorithm(
    graph: Graph,
    algorithm: str,
    params: Optional[Dict[str, object]] = None,
    *,
    partitions: int = 2,
    strategy: str = "hash",
    model: str = "auto",
    transport: str = "pipes",
    chaos_plan: Optional[Dict[str, object]] = None,
) -> np.ndarray:
    """Run one core algorithm partitioned; returns the finalized array.

    ``model`` named the interpreter to shard when there were several; it
    is still validated, and selects nothing.
    """
    if model not in ("auto", "pregel", "gas", "lcc"):
        raise ConfigurationError(
            f"unknown partitioned execution model {model!r}"
        )
    engine = PartitionedEngine(
        graph,
        partitions=partitions,
        strategy=strategy,
        transport=transport,
        chaos_plan=chaos_plan,
    )
    return engine.run(algorithm, params)


def run_bfs(graph: Graph, source: int, **options) -> np.ndarray:
    return run_algorithm(graph, "bfs", {"source_vertex": source}, **options)


def run_sssp(graph: Graph, source: int, **options) -> np.ndarray:
    return run_algorithm(graph, "sssp", {"source_vertex": source}, **options)


def run_wcc(graph: Graph, **options) -> np.ndarray:
    return run_algorithm(graph, "wcc", **options)


def run_cdlp(graph: Graph, iterations: int = 10, **options) -> np.ndarray:
    return run_algorithm(graph, "cdlp", {"iterations": iterations}, **options)


def run_pagerank(
    graph: Graph, iterations: int = 30, damping: float = 0.85, **options
) -> np.ndarray:
    return run_algorithm(
        graph, "pr", {"iterations": iterations, "damping": damping}, **options
    )


def run_lcc(graph: Graph, **options) -> np.ndarray:
    return run_algorithm(graph, "lcc", **options)
