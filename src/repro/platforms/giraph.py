"""Apache Giraph driver (community, distributed, Pregel on Hadoop).

Calibration anchors (paper):
* Table 8 — BFS on D300(L): Tproc 22.3 s, makespan 276.6 s.
* Figure 4 — consistently ~2 orders of magnitude slower than GraphMat /
  PGX.D; high per-superstep overhead visible on tiny graphs.
* Table 9 — vertical speedups 6.0 (BFS) / 8.1 (PR); slight HT benefit.
* §4.4 — large performance hit from 1 → 2 machines; PR on D1000 breaks
  the SLA on 2 machines; overall speedups 3.3 (BFS) / 5.3 (PR).
* Table 10 — smallest failing dataset G26 (9.0) while D1000 (9.0)
  succeeds: high sensitivity to Graph500 skew, moderate JVM footprint.
* Table 11 — CV 5.0% (single) / 9.8% (distributed).
"""

from __future__ import annotations

from repro.platforms.base import PlatformDriver, PlatformInfo
from repro.platforms.model import PerformanceModel

__all__ = ["GiraphDriver", "GIRAPH_INFO", "GIRAPH_MODEL"]

GIRAPH_INFO = PlatformInfo(
    name="Giraph",
    vendor="Apache",
    language="Java",
    programming_model="Pregel",
    origin="community",
    distributed=True,
    version="1.1.0",
)

GIRAPH_MODEL = PerformanceModel(
    base_evps=17.8e6,
    tproc_floor=5.0,
    algorithm_adjust={"pr": 1.0, "wcc": 0.8, "cdlp": 0.45, "lcc": 4.0, "sssp": 1.2},
    parallel_fraction={"bfs": 0.91, "pr": 0.928, "*": 0.92},
    ht_yield=0.25,
    dist_shock=5.5,
    dist_shock_adjust={"pr": 1.45},
    dist_exponent={"bfs": 1.5, "pr": 1.62, "*": 1.4},
    dist_floor=2.0,
    bytes_per_element=55.0,
    skew_sensitivity=1.0,
    boundary_fraction=0.05,
    replication=0.3,
    memory_alg_mult={"lcc": 8.0, "pr": 1.1},
    swap_penalty=2.0,
    fixed_overhead=60.0,
    load_rate=1.6e6,
    upload_rate=5.0e6,
    variability_cv_single=0.050,
    variability_cv_distributed=0.098,
)


class GiraphDriver(PlatformDriver):
    """Vertex-centric (Pregel) execution on Hadoop MapReduce."""

    def __init__(self):
        super().__init__(GIRAPH_INFO, GIRAPH_MODEL)
