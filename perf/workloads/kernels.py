"""``kernels`` — the six numpy reference kernels on a generated graph.

Single process, single thread. ``algorithms`` does more than 90 % of a
round and ``engines.partitioned``, ``runtime``, ``service`` and
``resultsdb`` do none of it: a kernel optimisation must show here and a
runtime change must not.
"""

from __future__ import annotations

from perf.workloads.base import RoundResult, Workload
from perf.workloads.common import ALGORITHMS, algorithm_parameters, elements

#: Graph500 scales: the big graph feeds five kernels, the small one LCC
#: (quadratic in degree: at the big scale it alone would take seconds).
BIG_SCALE = 14
LCC_SCALE = 11


class KernelsWorkload(Workload):
    name = "kernels"

    def setup(self) -> None:
        from repro.datagen.graph500 import graph500
        from repro.engines import partitioned, spmv
        from repro.graph.io import read_graph, write_graph
        from repro.platforms.reference import ReferenceDriver

        rec, metrics = self.rec, self.setup_metrics
        with rec.span("datagen.graph500") as span:
            big = graph500(BIG_SCALE, weighted=True, seed=self.seed)
        metrics["datagen.edges_per_s"] = big.num_edges / span.duration
        with rec.span("graph.csr_first_touch"):
            _ = big.out_indptr[-1], big.in_indptr[-1]
        with rec.span("platforms.upload"):
            handle = ReferenceDriver().upload(big)

        # The file round trip uses the small graph: parsing the big one
        # takes longer than five rounds, and set-up is repeated.
        prefix = self.scratch / "kernels-graph"
        with rec.span("graph.write_graph"):
            write_graph(graph500(LCC_SCALE, weighted=True, seed=self.seed), prefix)
        with rec.span("graph.read_graph") as span:
            small = read_graph(prefix, directed=False, weighted=True)
        metrics["graph.read_edges_per_s"] = small.num_edges / span.duration

        self.graphs = {name: handle.graph for name in ALGORITHMS[:5]}
        self.graphs["lcc"] = small
        self.params = algorithm_parameters(big)
        source = self.params["bfs"]["source_vertex"]

        # Reference outputs come from code the kernels do not share: the
        # SpMV engine, and for LCC (which it lacks) the in-process
        # partitioned engine.
        independent = {
            "bfs": lambda: spmv.run_bfs(big, source),
            "pr": lambda: spmv.run_pagerank(big, 30),
            "wcc": lambda: spmv.run_wcc(big),
            "cdlp": lambda: spmv.run_cdlp(big, 10),
            "sssp": lambda: spmv.run_sssp(big, source),
        }
        self.references = {}
        for name, run in independent.items():
            with rec.span(f"engines.spmv.{name}"):
                self.references[name] = run()
        with rec.span("engines.partitioned.reference_lcc"):
            self.references["lcc"] = partitioned.run_lcc(
                small, partitions=1, transport="inline", strategy="range"
            )

    def round(self, index: int) -> RoundResult:
        from repro.algorithms import get_algorithm, validate_output
        from repro.exceptions import ValidationError

        result = RoundResult()
        for name in ALGORITHMS:
            graph = self.graphs[name]
            with self.rec.span(f"algorithms.{name}") as span:
                output = get_algorithm(name).run(graph, self.params[name])
            result.tproc += span.duration
            result.elements += elements(graph)
            result.attempted += 1
            with self.rec.span("algorithms.validate"):
                try:
                    validate_output(name, output, self.references[name])
                except ValidationError:
                    result.failed += 1
        return result
