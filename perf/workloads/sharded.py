"""``sharded`` — the partition-parallel engine, cross-process and in-process.

``engines.partitioned`` (partitioner, shard spawn, exchange, barrier) does
more than 90 % of a round and the numpy kernels none of it. The engine is
used two ways — two shards over pipes and one shard inline — so a
wire-format gain that costs the inline path is visible.
"""

from __future__ import annotations

import os
import time
from typing import Dict

from perf import estimators
from perf.workloads.base import RoundResult, Workload
from perf.workloads.common import ALGORITHMS, algorithm_parameters, elements

#: The catalog's G22 miniature recipe (Graph500 scale 9, edge factor 13):
#: the largest at which ten engine runs still fit a round of about 1 s.
SCALE = 9
EDGEFACTOR = 13

#: (metric prefix, algorithms, engine options); PR goes through the GAS
#: model, as ``ReferenceDriver`` routes it.
CONFIGURATIONS = (
    ("p2", ALGORITHMS,
     {"partitions": 2, "transport": "pipes", "strategy": "hash"}),
    ("p1", ("bfs", "wcc", "sssp", "lcc"),
     {"partitions": 1, "transport": "inline", "strategy": "range"}),
)


def _model(algorithm: str) -> str:
    return "gas" if algorithm == "pr" else "auto"


class ShardedWorkload(Workload):
    name = "sharded"

    def setup(self) -> None:
        from repro.algorithms import get_algorithm
        from repro.datagen.graph500 import graph500

        with self.rec.span("datagen.graph500") as span:
            self.graph = graph500(
                SCALE, edgefactor=EDGEFACTOR, weighted=True, seed=self.seed
            )
        self.setup_metrics["datagen.edges_per_s"] = (
            self.graph.num_edges / span.duration
        )
        self.params = algorithm_parameters(self.graph)
        # The numpy kernels give the expected bytes and the baseline the
        # slowdown ratios divide by (best of three: it is a one-shot).
        self.expected: Dict[str, bytes] = {}
        self.kernel_s: Dict[str, float] = {}
        for name in ALGORITHMS:
            algorithm = get_algorithm(name)
            samples = []
            for _ in range(3):
                started = time.perf_counter()
                output = algorithm.run(self.graph, self.params[name])
                samples.append(time.perf_counter() - started)
            self.expected[name] = output.tobytes()
            self.kernel_s[name] = min(samples)

    def round(self, index: int) -> RoundResult:
        from repro.engines.partitioned import run_algorithm

        result = RoundResult()
        for prefix, algorithms, options in CONFIGURATIONS:
            for name in algorithms:
                with self.rec.span(f"engines.partitioned.{prefix}.{name}") as span:
                    output = run_algorithm(
                        self.graph, name, self.params[name],
                        model=_model(name), **options,
                    )
                result.tproc += span.duration
                result.elements += elements(self.graph)
                result.attempted += 1
                if output.tobytes() != self.expected[name]:
                    result.failed += 1
        return result

    def derived(self, per_layer: Dict[str, float]) -> Dict[str, float]:
        """Ratios over the per-algorithm timings of the traced rounds."""
        def total(prefix, algorithms):
            return sum(
                per_layer[f"engines.partitioned.{prefix}.{name}_s"]
                for name in algorithms
            )

        found = {}
        for prefix, algorithms, _ in CONFIGURATIONS:
            found[f"engines.partitioned.{prefix}.slowdown_vs_kernel"] = (
                total(prefix, algorithms)
                / sum(self.kernel_s[name] for name in algorithms)
            )
        common = CONFIGURATIONS[1][1]
        # Two shards cannot beat one on a single CPU: no scaling claim.
        found["engines.partitioned.speedup_p2_over_p1"] = (
            total("p1", common) / total("p2", common)
            if (os.cpu_count() or 1) >= 2 else 0.0
        )
        return found

    def probes(self) -> Dict[str, float]:
        from repro.engines.partitioned import partition_graph

        found = {}
        for strategy in ("hash", "range"):
            samples = []
            for _ in range(20):
                with self.rec.span(f"engines.partitioned.partition_{strategy}") as span:
                    partition_graph(self.graph, 2, strategy=strategy)
                samples.append(span.duration)
            found[f"engines.partitioned.partition_{strategy}_s"] = (
                estimators.low(samples)
            )
        return found
