"""Requirement R1, measured by the product itself: one abstract
algorithm, four execution paths, one harness.

The numpy kernels and the Pregel, GAS and SpMV engines are registered
platforms, so nothing is timed by hand: ``BenchmarkRunner`` runs the
family on the G22 and R4 miniatures (SSSP on the weighted R4 only; no
engine formulates LCC), validates every output, and the table is read
from the results database — T_proc is each job's ``processing`` span.
"""

from repro.algorithms.registry import ALGORITHMS
from repro.harness.config import BenchmarkConfig
from repro.harness.reproduce import Table, render
from repro.harness.runner import BenchmarkRunner
from repro.platforms.registry import EXTRA_PLATFORMS

CONFIG = BenchmarkConfig(
    platforms=list(EXTRA_PLATFORMS), datasets=["G22", "R4"],
    algorithms=sorted(ALGORITHMS),
)
KERNELS, PREGEL, GAS, SPMV = NAMES = [
    info.name for info, _ in EXTRA_PLATFORMS.values()
]


def test_measured_family(benchmark):
    database = benchmark.pedantic(
        BenchmarkRunner(CONFIG).run, rounds=1, iterations=1
    )
    tproc = {}
    for row in database:
        engine_lcc = row.algorithm == "lcc" and row.platform != KERNELS
        assert row.status == ("not-supported" if engine_lcc else "succeeded")
        assert row.validated is (None if engine_lcc else True)
        tproc.setdefault((row.dataset, row.algorithm), {})[row.platform] = (
            row.modeled_processing_time or "n/a"
        )
    assert len(database) == len(NAMES) * (5 + 6)  # G22 takes no SSSP
    print(render(Table(
        "Measured T_proc (s) per execution path, miniature scale",
        ("dataset", "algorithm", *NAMES),
        [(*cell, *(tproc[cell][name] for name in NAMES)) for cell in tproc],
    )))
    # The SpMV formulation vectorizes and should clearly beat the
    # per-vertex models — GraphMat's §3.1 performance argument, measured.
    for dataset in CONFIG.datasets:
        pagerank = tproc[dataset, "pr"]
        assert pagerank[SPMV] < min(pagerank[PREGEL], pagerank[GAS])
