"""The Graphalytics dataset catalog (paper Tables 3 and 4).

Every entry carries two things:

* the **full-scale workload profile** — the published |V|, |E|, scale,
  directedness, plus shape descriptors (degree moments, skew, BFS
  coverage) that the platform performance models consume; these are the
  numbers the paper's experiments are driven by;
* a **miniature materialization recipe** — a deterministic generator
  producing a structurally similar small graph on which the reference
  algorithms *really* run (execution, output validation, measured
  wall-clock). See DESIGN.md §2 for the substitution policy.

Shape descriptors not printed in the paper (degree CV², memory skew,
BFS coverage, component counts) are set from the known character of each
graph; ``bfs_coverage`` of R2 reflects §4.1 ("The BFS on this graph
covers approximately 10% of the vertices").
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, List, Mapping, Optional

import numpy as np

from repro.datagen.generator import generate
from repro.datagen.graph500 import graph500
from repro.datagen.realworld import synthetic_replica
from repro.exceptions import DatasetError
from repro.graph.graph import Graph
from repro.harness.scale import scale_class, class_order
from repro.platforms.model import WorkloadProfile

__all__ = [
    "Dataset",
    "from_recipe",
    "DATASETS",
    "get_dataset",
    "dataset_ids",
    "datasets_up_to_class",
    "REAL_DATASETS",
    "SYNTHETIC_DATASETS",
]


def _resolve_source(graph: Graph) -> int:
    """Benchmark BFS/SSSP root on the miniature: the max-degree vertex.

    The official benchmark description pins one root per dataset; picking
    the hub makes miniature traversals cover a meaningful portion of the
    graph while staying deterministic.
    """
    degrees = graph.degrees()
    return int(graph.vertex_ids[int(np.argmax(degrees))])


@dataclass
class Dataset:
    """One catalog entry: full-scale profile + miniature recipe."""

    dataset_id: str                 # e.g. "R4", "D300", "G22"
    profile: WorkloadProfile
    domain: str                     # Knowledge / Gaming / Social / Synthetic
    source: str                     # "real" | "datagen" | "graph500"
    materializer: Callable[[int], Graph] = field(repr=False)
    #: Fixed algorithm parameters (benchmark description, Figure 1 box 1).
    pr_iterations: int = 30
    cdlp_iterations: int = 10
    _cache: Dict[int, Graph] = field(default_factory=dict, repr=False)

    @property
    def name(self) -> str:
        return self.profile.name

    @property
    def scale(self) -> float:
        return self.profile.scale

    @property
    def tshirt(self) -> str:
        return scale_class(self.profile.scale)

    @property
    def label(self) -> str:
        """Catalog label as printed in the paper, e.g. ``R4(S)``."""
        return f"{self.dataset_id}({self.tshirt})"

    @property
    def weighted(self) -> bool:
        return self.profile.weighted

    def __post_init__(self):
        if not hasattr(self.materializer, "recipe"):
            # An opaque callable would be cached under id, seed and
            # profile alone, and served stale after its recipe changed.
            raise DatasetError(
                f"{self.dataset_id}: build the materializer with "
                f"from_recipe(generator, build, **arguments) so the graph "
                f"cache can key on what it generates"
            )

    @property
    def recipe(self) -> Mapping[str, object]:
        """The miniature recipe as plain data: generator kind + arguments.

        Part of :attr:`spec_digest`. It is the very dictionary
        :func:`from_recipe` calls the generator with.
        """
        return self.materializer.recipe

    @cached_property
    def spec_digest(self) -> str:
        """SHA-256 of what every artifact of this entry depends on: id,
        recipe, target profile, fixed algorithm parameters.

        The runtime cache derives every key from it (plus seed, kind and
        algorithm), so editing any of them invalidates the stored graph
        and references. Computed once per entry: a key is taken for
        every validated job.
        """
        profile = self.profile
        payload = json.dumps(
            {
                "dataset": self.dataset_id,
                "recipe": self.recipe,
                "profile": {
                    "name": profile.name,
                    "num_vertices": profile.num_vertices,
                    "num_edges": profile.num_edges,
                    "directed": profile.directed,
                    "weighted": profile.weighted,
                },
                "pr_iterations": self.pr_iterations,
                "cdlp_iterations": self.cdlp_iterations,
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def materialize(self, seed: int = 0) -> Graph:
        """Deterministically build (and cache) the miniature graph."""
        if seed not in self._cache:
            graph = self.materializer(seed)
            if graph.directed != self.profile.directed:
                raise DatasetError(
                    f"{self.dataset_id}: recipe directedness mismatch"
                )
            if graph.is_weighted != self.profile.weighted:
                raise DatasetError(f"{self.dataset_id}: recipe weight mismatch")
            self._cache[seed] = graph
        return self._cache[seed]

    def prime(self, seed: int, graph: Graph) -> None:
        """Install an externally materialized graph into the per-process memo.

        Used by the runtime's content-addressed cache: a graph loaded
        from the shared spill directory is byte-identical to one the
        recipe would build, so it can stand in for a fresh
        materialization. The same directedness/weight validation as
        :meth:`materialize` applies.
        """
        if graph.directed != self.profile.directed:
            raise DatasetError(f"{self.dataset_id}: primed graph directedness mismatch")
        if graph.is_weighted != self.profile.weighted:
            raise DatasetError(f"{self.dataset_id}: primed graph weight mismatch")
        self._cache.setdefault(seed, graph)

    def algorithm_parameters(self, algorithm: str, seed: int = 0) -> Mapping[str, object]:
        """Benchmark-description parameters for one algorithm."""
        algorithm = algorithm.lower()
        if algorithm in ("bfs", "sssp"):
            return {"source_vertex": _resolve_source(self.materialize(seed))}
        if algorithm == "pr":
            return {"iterations": self.pr_iterations}
        if algorithm == "cdlp":
            return {"iterations": self.cdlp_iterations}
        return {}


def _profile(
    name: str,
    v: float,
    e: float,
    *,
    directed: bool,
    weighted: bool,
    cv2: float,
    skew: float,
    coverage: float = 0.95,
    components: int = 1,
) -> WorkloadProfile:
    v = int(round(v))
    e = int(round(e))
    return WorkloadProfile(
        name=name,
        num_vertices=v,
        num_edges=e,
        directed=directed,
        weighted=weighted,
        mean_degree=2.0 * e / v,
        degree_cv2=cv2,
        memory_skew=skew,
        bfs_coverage=coverage,
        component_count=components,
    )


def from_recipe(
    generator: str, build: Callable[..., Graph], **arguments
) -> Callable[[int], Graph]:
    """The materializer ``seed -> build(**arguments, seed=seed)``.

    The arguments it calls ``build`` with are the ones it carries as
    :attr:`Dataset.recipe` — one dictionary, so the cache key cannot
    drift from what is generated. ``arguments`` must be plain data
    (they are hashed as JSON).
    """
    def materialize(seed: int) -> Graph:
        return build(**arguments, seed=seed)

    materialize.recipe = {"generator": generator, **arguments}
    return materialize


def _replica(profile_kind: str, v: int, e: int, **kwargs):
    return from_recipe(
        "replica", synthetic_replica,
        profile=profile_kind, num_vertices=v, num_edges=e, **kwargs,
    )


def _datagen(persons: int, mean_degree: float, target_cc: Optional[float] = None):
    return from_recipe(
        "datagen", generate,
        num_persons=persons, mean_degree=mean_degree,
        target_clustering_coefficient=target_cc, weighted=True,
    )


def _graph500(scale: int, edgefactor: int):
    return from_recipe("graph500", graph500, scale=scale, edgefactor=edgefactor)


M = 1e6
B = 1e9

#: Table 3 — real-world datasets.
REAL_DATASETS: List[Dataset] = [
    Dataset(
        "R1",
        _profile("wiki-talk", 2.39 * M, 5.02 * M, directed=True, weighted=False,
                 cv2=60.0, skew=1.40, coverage=0.50, components=170000),
        domain="Knowledge", source="real",
        materializer=_replica("talk", 1200, 2500, directed=True),
    ),
    Dataset(
        "R2",
        _profile("kgs", 0.83 * M, 17.9 * M, directed=False, weighted=False,
                 cv2=3.0, skew=1.05, coverage=0.10, components=50000),
        domain="Gaming", source="real",
        materializer=_replica("coplay", 400, 8000),
    ),
    Dataset(
        "R3",
        _profile("cit-patents", 3.77 * M, 16.5 * M, directed=True, weighted=False,
                 cv2=2.0, skew=1.00, coverage=0.15, components=4000),
        domain="Knowledge", source="real",
        materializer=_replica("citation", 1200, 5200, directed=True),
    ),
    Dataset(
        "R4",
        _profile("dota-league", 0.61 * M, 50.9 * M, directed=False, weighted=True,
                 cv2=0.5, skew=1.15, coverage=0.95, components=60000),
        domain="Gaming", source="real",
        materializer=_replica("coplay", 400, 12000, weighted=True),
    ),
    Dataset(
        "R5",
        _profile("com-friendster", 65.6 * M, 1.81 * B, directed=False,
                 weighted=False, cv2=8.0, skew=1.25),
        domain="Social", source="real",
        materializer=_replica("social", 2000, 28000),
    ),
    Dataset(
        "R6",
        _profile("twitter_mpi", 52.6 * M, 1.97 * B, directed=True, weighted=False,
                 cv2=40.0, skew=1.35, coverage=0.85),
        domain="Social", source="real",
        materializer=_replica("social", 1600, 30000, directed=True),
    ),
]

#: Table 4 — synthetic datasets (Datagen + Graph500).
SYNTHETIC_DATASETS: List[Dataset] = [
    Dataset(
        "D100",
        _profile("datagen-100", 1.67 * M, 102 * M, directed=False, weighted=True,
                 cv2=1.5, skew=1.0),
        domain="Synthetic (social)", source="datagen",
        materializer=_datagen(500, 24.0),
    ),
    Dataset(
        "D100'",
        _profile("datagen-100-cc0.05", 1.67 * M, 103 * M, directed=False,
                 weighted=True, cv2=1.5, skew=1.0),
        domain="Synthetic (social)", source="datagen",
        materializer=_datagen(500, 24.0, target_cc=0.05),
    ),
    Dataset(
        "D100\"",
        _profile("datagen-100-cc0.15", 1.67 * M, 103 * M, directed=False,
                 weighted=True, cv2=1.5, skew=1.0),
        domain="Synthetic (social)", source="datagen",
        materializer=_datagen(500, 24.0, target_cc=0.15),
    ),
    Dataset(
        "D300",
        _profile("datagen-300", 4.35 * M, 304 * M, directed=False, weighted=True,
                 cv2=1.5, skew=1.0),
        domain="Synthetic (social)", source="datagen",
        materializer=_datagen(900, 28.0),
    ),
    Dataset(
        "D1000",
        _profile("datagen-1000", 12.8 * M, 1.01 * B, directed=False, weighted=True,
                 cv2=1.5, skew=1.0),
        domain="Synthetic (social)", source="datagen",
        materializer=_datagen(1600, 32.0),
    ),
    Dataset(
        "G22",
        _profile("graph500-22", 2.40 * M, 64.2 * M, directed=False, weighted=False,
                 cv2=30.0, skew=1.5, coverage=0.80),
        domain="Synthetic (power-law)", source="graph500",
        materializer=_graph500(9, 13),
    ),
    Dataset(
        "G23",
        _profile("graph500-23", 4.61 * M, 129 * M, directed=False, weighted=False,
                 cv2=30.0, skew=1.5, coverage=0.80),
        domain="Synthetic (power-law)", source="graph500",
        materializer=_graph500(10, 14),
    ),
    Dataset(
        "G24",
        _profile("graph500-24", 8.87 * M, 260 * M, directed=False, weighted=False,
                 cv2=30.0, skew=1.5, coverage=0.80),
        domain="Synthetic (power-law)", source="graph500",
        materializer=_graph500(11, 15),
    ),
    Dataset(
        "G25",
        _profile("graph500-25", 17.1 * M, 524 * M, directed=False, weighted=False,
                 cv2=30.0, skew=1.5, coverage=0.80),
        domain="Synthetic (power-law)", source="graph500",
        materializer=_graph500(12, 15),
    ),
    Dataset(
        "G26",
        _profile("graph500-26", 32.8 * M, 1.05 * B, directed=False, weighted=False,
                 cv2=30.0, skew=1.5, coverage=0.80),
        domain="Synthetic (power-law)", source="graph500",
        materializer=_graph500(13, 16),
    ),
]

#: The full catalog, id -> Dataset, in paper order (Table 3 then Table 4).
DATASETS: Dict[str, Dataset] = {
    ds.dataset_id: ds for ds in REAL_DATASETS + SYNTHETIC_DATASETS
}


def dataset_ids() -> List[str]:
    return list(DATASETS)


def get_dataset(dataset_id: str) -> Dataset:
    """Look up by id ("R4") or by name ("dota-league")."""
    if dataset_id in DATASETS:
        return DATASETS[dataset_id]
    for ds in DATASETS.values():
        if ds.name == dataset_id:
            return ds
    raise DatasetError(
        f"unknown dataset {dataset_id!r}; known ids: {', '.join(DATASETS)}"
    )


def datasets_up_to_class(label: str) -> List[Dataset]:
    """All catalog datasets whose T-shirt class is at most ``label``."""
    limit = class_order(label)
    return [ds for ds in DATASETS.values() if class_order(ds.tshirt) <= limit]
