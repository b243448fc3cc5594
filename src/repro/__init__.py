"""LDBC Graphalytics reproduction: benchmark for graph analysis platforms.

Reproduces Iosup et al., *LDBC Graphalytics: A Benchmark for Large-Scale
Graph Analysis on Parallel and Distributed Platforms* (VLDB 2016):

* :mod:`repro.graph` — the graph data model (CSR storage, EVL file I/O);
* :mod:`repro.algorithms` — the six core algorithms (BFS, PR, WCC, CDLP,
  LCC, SSSP) with output-equivalence validation rules;
* :mod:`repro.datagen` — LDBC Datagen (tunable clustering coefficient,
  old/new execution flows) and the Graph500 Kronecker generator;
* :mod:`repro.platforms` — six simulated platform drivers (Giraph,
  GraphX, PowerGraph, GraphMat, OpenG, PGX.D) with calibrated
  performance models;
* :mod:`repro.harness` — benchmark configuration, dataset catalog,
  metrics, SLA, runner, the eight experiments, and the renewal process;
* :mod:`repro.granula` — fine-grained performance evaluation (modeler /
  archiver / visualizer);
* :mod:`repro.trace` — the span-based tracing core every layer measures
  time through (injectable clocks, nested spans, JSONL export).

Quickstart::

    import repro

    graph = repro.datagen.generate(600, target_clustering_coefficient=0.3)
    runner = repro.harness.BenchmarkRunner()
    result = runner.run_job("graphmat", "D300", "bfs")
    print(result.modeled_processing_time, result.validated)
"""

from repro.facade import lazy_exports

__version__ = "1.0.0"

__all__ = [
    "algorithms",
    "datagen",
    "graph",
    "granula",
    "harness",
    "platforms",
    "trace",
    "Graph",
    "read_graph",
    "write_graph",
    "breadth_first_search",
    "pagerank",
    "weakly_connected_components",
    "community_detection_lp",
    "local_clustering_coefficient",
    "single_source_shortest_paths",
    "BenchmarkConfig",
    "BenchmarkRunner",
    "DATASETS",
    "EXPERIMENTS",
    "ResultsDatabase",
    "PLATFORMS",
    "create_driver",
    "__version__",
]

__getattr__, __dir__ = lazy_exports(__name__, __all__, {
    "repro.graph.graph": ("Graph",),
    "repro.graph.io": ("read_graph", "write_graph"),
    "repro.algorithms.bfs": ("breadth_first_search",),
    "repro.algorithms.pagerank": ("pagerank",),
    "repro.algorithms.wcc": ("weakly_connected_components",),
    "repro.algorithms.cdlp": ("community_detection_lp",),
    "repro.algorithms.lcc": ("local_clustering_coefficient",),
    "repro.algorithms.sssp": ("single_source_shortest_paths",),
    "repro.harness.config": ("BenchmarkConfig",),
    "repro.harness.runner": ("BenchmarkRunner",),
    "repro.harness.datasets": ("DATASETS",),
    "repro.harness.experiments": ("EXPERIMENTS",),
    "repro.harness.results": ("ResultsDatabase",),
    "repro.platforms.registry": ("PLATFORMS", "create_driver"),
})
