"""The reference platform: a real, measured, in-process driver.

Requirement R5 demands "easy ways to add new platforms and systems to
test". This driver is the existence proof: a seventh platform that runs
the reference implementations *as the system under test*, reporting its
**measured** wall-clock as Tproc instead of a calibrated model. It is
not part of the paper's Table 5 roster (the experiments pin the six
published platforms), but it plugs into the same harness, registry,
validation, and Granula pipeline:

    >>> from repro.platforms.reference import ReferenceDriver
    >>> driver = ReferenceDriver()
    >>> handle = driver.upload(graph)
    >>> result = driver.execute(handle, "bfs", {"source_vertex": 0})
    >>> result.modeled_processing_time  # == measured wall-clock

Because its numbers are real, it is also how the repo measures itself:
the engines of :mod:`repro.engines` are further measured platforms
(``pythonref-pregel`` / ``-gas`` / ``-spmv``) of the same driver.
"""

from __future__ import annotations

from dataclasses import replace

# Imported with the platforms, never by a job: an import inside a timed
# ``processing`` span would be reported as T_proc (paper §2.5).
from repro.engines import engine_call, gas, pregel, spmv
from repro.platforms.base import (
    JobResult,
    JobStatus,
    PlatformDriver,
    PlatformInfo,
    UploadHandle,
)
from repro.platforms.model import PerformanceModel
from repro.trace import current_tracer

__all__ = ["ReferenceDriver", "REFERENCE_INFO", "MEASURED_PATHS"]

REFERENCE_INFO = PlatformInfo(
    name="PythonRef",
    vendor="Graphalytics-Repro",
    language="Python",
    programming_model="NumPy kernels",
    origin="community",
    distributed=True,  # machines >= 2: the graph's hash shards
    version="1.0",
)

#: Execution path -> (roster entry, engine module; None: the numpy
#: kernels themselves). Each engine of :mod:`repro.engines` is a
#: platform of its own (requirement R1: any programming model competes);
#: only the kernels shard, so only they take more than one machine.
MEASURED_PATHS = {"kernels": (REFERENCE_INFO, None)}
for _model, _engine in (("Pregel", pregel), ("GAS", gas), ("SpMV", spmv)):
    MEASURED_PATHS[_model.lower()] = (
        replace(REFERENCE_INFO, name=f"PythonRef-{_model}",
                programming_model=_model, distributed=False),
        _engine,
    )

#: A minimal model: the base class wants one, but every time a measured
#: platform reports comes from the clock. Each path takes it with its
#: roster entry's ``distributed``.
_REFERENCE_MODEL = PerformanceModel(
    base_evps=1.0,            # unused: _execute() reports the wall-clock
    tproc_floor=0.0,
    bytes_per_element=200.0,  # numpy CSR + Python overhead, measured scale
    fixed_overhead=0.0,
    load_rate=50e6,
    upload_rate=50e6,
    variability_cv_single=0.0,
    variability_cv_distributed=0.0,
)


class ReferenceDriver(PlatformDriver):
    """Runs one execution path (:data:`MEASURED_PATHS`) for real; Tproc
    is the measured time. No engine formulates LCC, so an engine path
    reports it ``not-supported`` — it never times another path's code.

    On ``resources.machines`` >= 2 the kernels path runs on that many
    hash shards of :mod:`repro.engines.partitioned` instead of in
    process. Outputs are bit-identical either way for all six algorithms
    (the partitioned engine's core contract: every shard reduces its
    rows in the kernels' slot order), so the machine count changes only
    *how* the measured wall-clock is produced — which is exactly what
    the scaling experiments need.

    The shards are part of the *uploaded graph*, not of a job: they are
    deployed during an execution's ``load`` phase (a no-op from the
    second job on a graph on), so T_proc times products only and does
    not depend on which job came first; :meth:`delete` stops them.
    """

    def __init__(self, *, path: str = "kernels"):
        info, self.engine = MEASURED_PATHS[path]
        if self.engine is not None:
            self.unsupported_algorithms = frozenset({"lcc"})
        super().__init__(
            info, replace(_REFERENCE_MODEL, distributed=info.distributed)
        )

    def upload(self, graph, profile=None) -> UploadHandle:
        """Every row of a measured platform — a refused job's too —
        reports the upload that was measured, never a modeled one."""
        handle = super().upload(graph, profile)
        handle.modeled_upload_time = handle.measured_upload_seconds
        return handle

    def _run_algorithm(self, algorithm: str, graph, params):
        if self.engine is not None:
            return engine_call(self.engine, algorithm, params)(graph)
        return super()._run_algorithm(algorithm, graph, params)

    def delete(self, handle: UploadHandle) -> None:
        """Release the graph and stop the shards deployed on it."""
        super().delete(handle)
        from repro.engines.partitioned import undeploy

        undeploy(handle.graph)

    def _execute(
        self, row, handle, algorithm, params, resources, run_index, seed
    ) -> JobResult:
        """An accepted job, measured: nothing is modeled, so nothing is
        refused, and every time is a span of this very execution."""
        graph = handle.graph
        tracer = current_tracer()
        with tracer.capture() as taken, tracer.span(
            "execute", platform=self.name, algorithm=algorithm,
            dataset=handle.profile.name,
        ):
            with tracer.span(
                "load", elements=graph.num_vertices + graph.num_edges
            ) as load_span:
                with tracer.span("out-csr"):
                    _ = graph.out_indptr[-1]  # ensure CSR is hot
                with tracer.span("in-csr"):
                    _ = graph.in_indptr[-1]
                shards = None
                if resources.machines > 1:
                    # Imported here, not with the platforms: only a
                    # sharded job loads the sharded engine. Platform
                    # start-up is not processing time (§2.5).
                    from repro.engines.partitioned import deploy

                    shards = deploy(graph, partitions=resources.machines)
            with tracer.span("processing", algorithm=algorithm) as proc_span:
                # Through the driver lifecycle hook, like every other
                # driver: execution stays swappable (an engine platform
                # archives its supersteps only this way; see
                # tests/granula/test_granula.py::TestArchivedSpans).
                with tracer.span("kernel", algorithm=algorithm):
                    output = (
                        self._run_algorithm(algorithm, graph, params)
                        if shards is None else shards.run(algorithm, params)
                    )
        measured = proc_span.duration
        return row(
            status=JobStatus.SUCCEEDED,
            modeled_processing_time=measured,   # measured IS the number
            modeled_makespan=load_span.duration + measured,
            measured_processing_seconds=measured,
            output=output,
            # Granula's input: the execute subtree, as recorded.
            spans=[span.as_dict() for span in taken],
        )
