"""GraphMat driver (industry/Intel, SpMV; manual S/D backend choice).

Calibration anchors (paper):
* Table 8 — BFS on D300(L): Tproc 0.3 s, makespan 22.8 s — the fastest
  single-node platform (vertex programs mapped to sparse-matrix ops).
* §4.2 — "GraphMat can run either the S or D backend, but does not
  select so autonomously; SSSP is not supported in S, so we use D only
  for this algorithm": the driver mirrors the manual selection rule.
* LCC fails on R4(S)/D300(L): SpMV formulations of triangle counting
  blow up memory (modeled via a large LCC memory multiplier).
* Table 9 — vertical speedups 6.9 (BFS) / 11.3 (PR); no HT benefit.
* §4.4 — "GraphMat shows a clear outlier for PR on a single machine,
  most likely because of swapping": D1000 fills ~78% of one node's
  memory, beyond the swap threshold.
* Table 10 — smallest failing dataset G26 (9.0), succeeding D1000 of
  equal scale (skew sensitivity).
* Table 11 — CV 9.7% / 5.7% — fast but comparatively variable.
"""

from __future__ import annotations

from repro.platforms.base import PlatformDriver, PlatformInfo
from repro.platforms.cluster import ClusterResources
from repro.platforms.model import PerformanceModel

__all__ = ["GraphMatDriver", "GRAPHMAT_INFO", "GRAPHMAT_MODEL"]

GRAPHMAT_INFO = PlatformInfo(
    name="GraphMat",
    vendor="Intel",
    language="C++",
    programming_model="SpMV",
    origin="industry",
    distributed=True,  # D backend (GraphPad, MPI)
    version="Feb '16",
)

GRAPHMAT_MODEL = PerformanceModel(
    base_evps=1233.0e6,
    tproc_floor=0.05,
    algorithm_adjust={"pr": 0.9, "wcc": 1.0, "cdlp": 2.4, "lcc": 3.0, "sssp": 1.2},
    parallel_fraction={"bfs": 0.928, "pr": 0.974, "*": 0.95},
    ht_yield=0.0,
    dist_shock=1.6,
    dist_exponent={"bfs": 0.75, "pr": 0.8, "*": 0.75},
    dist_floor=0.3,
    bytes_per_element=50.0,
    skew_sensitivity=1.0,
    boundary_fraction=0.06,
    replication=0.35,
    memory_alg_mult={"lcc": 40.0, "pr": 1.15},
    swap_threshold=0.70,
    swap_penalty=4.0,
    fixed_overhead=5.0,
    load_rate=17.6e6,
    upload_rate=8.0e6,
    variability_cv_single=0.097,
    variability_cv_distributed=0.057,
)


class GraphMatDriver(PlatformDriver):
    """SpMV execution; backend "S" (shared memory) or "D" (MPI)."""

    def __init__(self, backend: str = "auto"):
        """``backend``: "S", "D", or "auto" (the harness's manual rule)."""
        super().__init__(GRAPHMAT_INFO, GRAPHMAT_MODEL)
        backend = backend.upper() if backend != "auto" else backend
        if backend not in ("S", "D", "auto"):
            raise ValueError(f"backend must be 'S', 'D', or 'auto', got {backend!r}")
        self.backend = backend

    def _select_backend(self, algorithm: str, resources: ClusterResources) -> str:
        """Mirror the paper's manual backend rule.

        SSSP is only available in the distributed backend; multi-machine
        runs force D; otherwise the configured preference applies
        (default: S on one machine).
        """
        if algorithm == "sssp" or resources.machines > 1:
            return "D"
        if self.backend == "auto":
            return "S"
        return self.backend
