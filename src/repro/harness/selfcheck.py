"""Installation self-check: is this benchmark deployment healthy?

A real benchmark suite ships a smoke check operators run before
trusting results. This one verifies, in seconds:

* catalog integrity — every dataset's printed scale recomputes from its
  |V|/|E|, miniatures materialize with matching shape;
* platform integrity — all Table 5 drivers instantiate, their quirks
  match the paper's capability matrix;
* kernel correctness — a quick algorithm sweep on a tiny graph,
  validated against precomputed invariants;
* calibration anchors — the Table 8 headline numbers still hold;
* determinism — two fresh runs of one job agree bit for bit;
* lint — the static determinism/conformance analyzer reports nothing.

Exposed as ``graphalytics selfcheck``; each check returns a
:class:`CheckResult` so failures are reportable individually.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

__all__ = ["CheckResult", "run_selfcheck", "CHECKS"]


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one self-check."""

    name: str
    passed: bool
    detail: str


def _check_dataset_catalog() -> str:
    from repro.harness.datasets import DATASETS
    from repro.harness.scale import graph_scale

    for ds in DATASETS.values():
        profile = ds.profile
        computed = graph_scale(profile.num_vertices, profile.num_edges)
        if computed != profile.scale:
            raise AssertionError(
                f"{ds.dataset_id}: scale {profile.scale} != computed {computed}"
            )
    return f"{len(DATASETS)} datasets, all scales recompute"


def _check_miniatures() -> str:
    from repro.harness.datasets import get_dataset

    checked = 0
    for dataset_id in ("R1", "R4", "D100", "G22"):
        ds = get_dataset(dataset_id)
        graph = ds.materialize()
        if graph.directed != ds.profile.directed:
            raise AssertionError(f"{dataset_id}: directedness mismatch")
        if graph.is_weighted != ds.profile.weighted:
            raise AssertionError(f"{dataset_id}: weight mismatch")
        if graph.num_edges == 0:
            raise AssertionError(f"{dataset_id}: empty miniature")
        checked += 1
    return f"{checked} miniatures materialize with matching shape"


def _check_platform_matrix() -> str:
    from repro.platforms.registry import PLATFORMS, create_driver

    drivers = {name: create_driver(name) for name in PLATFORMS}
    if len(drivers) != 6:
        raise AssertionError(f"expected 6 platforms, found {len(drivers)}")
    if drivers["pgxd"].supports("lcc"):
        raise AssertionError("PGX.D must not support LCC")
    if "cdlp" not in drivers["graphx"].crash_algorithms:
        raise AssertionError("GraphX CDLP must crash")
    if drivers["openg"].info.distributed:
        raise AssertionError("OpenG must be single-machine")
    if not drivers["openg"].model.queue_based_bfs:
        raise AssertionError("OpenG must use queue-based BFS")
    return "6 drivers, capability quirks in place"


def _check_kernels() -> str:
    import numpy as np

    from repro.algorithms.bfs import breadth_first_search
    from repro.algorithms.lcc import local_clustering_coefficient
    from repro.algorithms.pagerank import pagerank
    from repro.algorithms.wcc import weakly_connected_components
    from repro.graph.generators import complete_graph, path_graph

    path = path_graph(5)
    if breadth_first_search(path, 0).tolist() != [0, 1, 2, 3, 4]:
        raise AssertionError("BFS on a path is wrong")
    clique = complete_graph(4)
    if not np.allclose(local_clustering_coefficient(clique), 1.0):
        raise AssertionError("LCC on a clique is wrong")
    if abs(pagerank(clique).sum() - 1.0) > 1e-9:
        raise AssertionError("PageRank does not normalize")
    if len(np.unique(weakly_connected_components(path))) != 1:
        raise AssertionError("WCC on a path is wrong")
    return "kernel invariants hold"


def _check_calibration() -> str:
    from repro.harness.datasets import get_dataset
    from repro.platforms.cluster import ClusterResources
    from repro.platforms.registry import create_driver

    profile = get_dataset("D300").profile
    anchors = {"graphmat": 0.3, "giraph": 22.3, "pgxd": 0.5}
    for name, expected in anchors.items():
        model = create_driver(name).model
        tproc = model.processing_time("bfs", profile, ClusterResources())
        if abs(tproc - expected) / expected > 0.10:
            raise AssertionError(
                f"{name}: Table 8 anchor drifted ({tproc:.2f} vs {expected})"
            )
    return "Table 8 anchors within 10%"


def _check_determinism() -> str:
    from repro.harness.config import BenchmarkConfig
    from repro.harness.runner import BenchmarkRunner

    def one_run():
        runner = BenchmarkRunner(BenchmarkConfig(seed=123))
        return runner.run_job("powergraph", "G22", "bfs").modeled_processing_time

    if one_run() != one_run():
        raise AssertionError("repeated runs disagree")
    return "repeated runs agree bit for bit"


def _check_lint() -> str:
    from pathlib import Path

    import repro
    from repro.lint import LintConfig, LintEngine, find_project_root

    engine = LintEngine(LintConfig(find_project_root(Path(repro.__file__))))
    findings = engine.run([Path(repro.__file__).parent])
    if findings:
        first = findings[0]
        raise AssertionError(
            f"{len(findings)} lint findings; first: "
            f"{first.path}:{first.line} {first.rule_id} {first.message}"
        )
    return "static analysis clean"


#: name -> check body (raises AssertionError on failure).
CHECKS: List = [
    ("dataset-catalog", _check_dataset_catalog),
    ("miniatures", _check_miniatures),
    ("platform-matrix", _check_platform_matrix),
    ("kernels", _check_kernels),
    ("calibration", _check_calibration),
    ("determinism", _check_determinism),
    ("lint", _check_lint),
]


def run_selfcheck() -> List[CheckResult]:
    """Run every check; never raises — failures land in the results."""
    results: List[CheckResult] = []
    for name, body in CHECKS:
        try:
            detail = body()
            results.append(CheckResult(name, True, detail))
        # lint: disable=EXC001 - probes report failures as CheckResults
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            results.append(CheckResult(name, False, str(exc)))
    return results
