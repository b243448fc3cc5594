"""PowerGraph driver (community, distributed, Gather-Apply-Scatter).

Calibration anchors (paper):
* Table 8 — BFS on D300(L): Tproc 2.1 s, makespan 214.7 s — roughly an
  order of magnitude slower than GraphMat/PGX.D, far ahead of the JVM
  platforms.
* §4.2 — one of only two platforms (with OpenG) that completes LCC.
* Table 9 — vertical speedups 11.8 (BFS) / 10.3 (PR).
* §4.4 — completes D1000 on any machine count; speedup 6.9 (BFS) but
  only 1.8 (PR).
* §4.5 — weak-scaling slowdown up to 8.2×.
* Table 10 — processes the largest graphs on one machine; smallest
  failure is R5/com-friendster (9.3): lean C++ footprint, vertex-cut
  partitioning tolerates skew (designed for power-law graphs).
* Table 11 — the least variable platform: CV 1.5% / 4.5%.
"""

from __future__ import annotations

from repro.platforms.base import PlatformDriver, PlatformInfo
from repro.platforms.model import PerformanceModel

__all__ = ["PowerGraphDriver", "POWERGRAPH_INFO", "POWERGRAPH_MODEL"]

POWERGRAPH_INFO = PlatformInfo(
    name="PowerGraph",
    vendor="CMU",
    language="C++",
    programming_model="GAS",
    origin="community",
    distributed=True,
    version="2.2",
)

POWERGRAPH_MODEL = PerformanceModel(
    base_evps=171.3e6,
    tproc_floor=0.3,
    algorithm_adjust={"pr": 1.0, "wcc": 0.7, "cdlp": 0.5, "lcc": 0.5, "sssp": 1.1},
    scale_sensitivity=2.0,
    rate_skew_sensitivity=0.3,
    parallel_fraction={"bfs": 0.978, "pr": 0.958, "*": 0.97},
    ht_yield=0.1,
    dist_shock=1.3,
    dist_exponent={"bfs": 0.9, "pr": 0.5, "*": 0.7},
    dist_floor=0.3,
    bytes_per_element=50.0,
    skew_sensitivity=0.4,
    boundary_fraction=0.05,
    replication=0.5,
    memory_alg_mult={"lcc": 2.5, "pr": 1.1},
    swap_threshold=0.85,
    fixed_overhead=10.0,
    load_rate=1.52e6,
    upload_rate=6.0e6,
    variability_cv_single=0.015,
    variability_cv_distributed=0.045,
)


class PowerGraphDriver(PlatformDriver):
    """Gather-Apply-Scatter execution with vertex-cut partitioning."""

    def __init__(self):
        super().__init__(POWERGRAPH_INFO, POWERGRAPH_MODEL)
