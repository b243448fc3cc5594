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

A shard deployment has a lifetime of its own: :func:`deploy` hands out
the live engine of a graph — partition set, row blocks and shard
processes made once — and :func:`run_algorithm` runs on it, so an
execution pays for products, not for fork, boot and the stop ladder.

See docs/scaling.md for the partitioner, the product, the barrier/span
timeline, the deployment lifetime, supervision, and the measured scaling
curves (``benchmarks/bench_partitioned_scaling.py`` →
``BENCH_partitioned.json``).
"""

from __future__ import annotations

import atexit
import os
from typing import Dict, Optional, Tuple

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
    "deploy",
    "partition_graph",
    "run_algorithm",
    "run_bfs",
    "run_sssp",
    "run_wcc",
    "run_cdlp",
    "run_pagerank",
    "run_lcc",
    "undeploy",
]

#: The live deployments of this process, by (partitions, strategy,
#: transport) — all of ONE graph, the last one deployed on: that is the
#: whole bound, and it needs no knob (a benchmark executes a graph's
#: jobs together, upload → execute × N → delete).
_deployments: Dict[Tuple[int, str, str], PartitionedEngine] = {}
_deployed_graph: Optional[Graph] = None


def deploy(
    graph: Graph,
    *,
    partitions: int = 2,
    strategy: str = "hash",
    transport: str = "pipes",
) -> PartitionedEngine:
    """The live engine for ``graph``: made (and its shards started) on
    the first call, found again on every later one; returns once every
    shard has answered the ready handshake.

    Deployments are kept for one graph at a time: asking for another
    graph first closes the ones held. They also close on
    :func:`undeploy`, at interpreter exit, and — each on its own — when
    a run on them raises; a forked child starts with none.
    """
    global _deployed_graph
    if graph is not _deployed_graph:
        undeploy()
        _deployed_graph = graph
    key = (partitions, strategy, transport)
    engine = _deployments.get(key)
    if engine is None:
        engine = _deployments[key] = PartitionedEngine(
            graph, partitions=partitions, strategy=strategy,
            transport=transport,
        )
    return engine.deploy()


def undeploy(graph: Optional[Graph] = None, *, disown: bool = False) -> None:
    """Close every deployment held — of ``graph`` only, when one is
    named (a platform's ``delete``: nothing happens if another graph
    has taken the table since)."""
    global _deployed_graph
    if graph is not None and graph is not _deployed_graph:
        return
    for key in sorted(_deployments):
        _deployments[key].close(disown=disown)
    # Per-process state on purpose: the at-fork hook below empties it
    # in every forked child, workers included.
    _deployments.clear()
    _deployed_graph = None


atexit.register(undeploy)
# A forked child inherits the table, but the shards in it are its
# parent's: drop it and the copied pipe ends, signal nobody.
os.register_at_fork(after_in_child=lambda: undeploy(disown=True))


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

    Runs on the graph's deployment (:func:`deploy`) — except with a
    ``chaos_plan``, whose armed shards are private to this one run.
    ``model`` named the interpreter to shard when there were several; it
    is still validated, and selects nothing.
    """
    if model not in ("auto", "pregel", "gas", "lcc"):
        raise ConfigurationError(
            f"unknown partitioned execution model {model!r}"
        )
    options = {
        "partitions": partitions, "strategy": strategy, "transport": transport,
    }
    if chaos_plan is not None:
        with PartitionedEngine(
            graph, chaos_plan=chaos_plan, **options
        ) as engine:
            return engine.run(algorithm, params)
    return deploy(graph, **options).run(algorithm, params)


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
