"""Input construction shared by the workloads."""

from __future__ import annotations

from typing import Dict

import numpy as np

__all__ = [
    "ALGORITHMS", "algorithm_parameters", "elements", "dataset_elements",
    "processing",
]

#: Round order: the five kernels that share the big graph, then LCC.
ALGORITHMS = ("bfs", "pr", "wcc", "cdlp", "sssp", "lcc")


def algorithm_parameters(graph) -> Dict[str, Dict[str, object]]:
    """The benchmark description's parameters: hub root, PR 30, CDLP 10."""
    source = int(graph.vertex_ids[int(np.argmax(graph.degrees()))])
    return {
        "bfs": {"source_vertex": source},
        "pr": {"iterations": 30},
        "wcc": {},
        "cdlp": {"iterations": 10},
        "sssp": {"source_vertex": source},
        "lcc": {},
    }


def elements(graph) -> int:
    """|V| + |E|, the numerator of the paper's EVPS."""
    return graph.num_vertices + graph.num_edges


def dataset_elements(dataset_ids, seed: int) -> Dict[str, int]:
    """|V| + |E| of each catalog miniature, as the program materializes it."""
    from repro.harness.datasets import get_dataset

    return {
        name: elements(get_dataset(name).materialize(seed))
        for name in dataset_ids
    }


def processing(rows, sizes: Dict[str, int]):
    """(sum of |V|+|E|, sum of T_proc) over job rows that report a T_proc."""
    total_elements = total_tproc = 0.0
    for row in rows:
        if row.measured_processing_seconds is not None:
            total_elements += sizes[row.dataset]
            total_tproc += row.measured_processing_seconds
    return total_elements, total_tproc
