"""The Graphalytics driver API (paper Figure 1, component 10).

A platform driver integrates the harness with one graph-analysis
platform. The harness instructs the driver to *upload* graphs (including
format conversion), *execute* an algorithm with given parameters and
resources, and return the output for validation.

In this reproduction every driver really executes the algorithm — the
reference kernels run in-process on the materialized miniature graph, so
outputs are genuine and validated — while the full-scale run-times,
memory demands, and failures are produced by the driver's calibrated
:class:`~repro.platforms.model.PerformanceModel`. Both sides are kept
strictly separate in the result record (``measured_*`` vs ``modeled_*``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Mapping, Optional

import numpy as np

from repro.exceptions import ConfigurationError
from repro.algorithms.registry import ALGORITHMS, get_algorithm
from repro.graph.graph import Graph
from repro.platforms.cluster import ClusterResources
from repro.platforms.model import PerformanceModel, WorkloadProfile
from repro.trace import current_tracer

__all__ = [
    "JobStatus",
    "PlatformInfo",
    "UploadHandle",
    "JobResult",
    "PlatformDriver",
    "profile_from_graph",
]


class JobStatus(enum.Enum):
    """Terminal state of one benchmark job."""

    SUCCEEDED = "succeeded"
    FAILED_MEMORY = "failed-memory"
    CRASHED = "crashed"
    NOT_SUPPORTED = "not-supported"


@dataclass(frozen=True)
class PlatformInfo:
    """Static platform roster entry (paper Table 5)."""

    name: str
    vendor: str
    language: str
    programming_model: str
    origin: str          # "community" or "industry"
    distributed: bool    # supports multi-machine deployments
    version: str

    @property
    def type_code(self) -> str:
        """Table 5 code, e.g. ``C, D`` or ``I, S``."""
        first = "C" if self.origin == "community" else "I"
        second = "D" if self.distributed else "S"
        return f"{first}, {second}"


@dataclass
class UploadHandle:
    """A graph uploaded (converted) into a platform's internal format."""

    graph: Graph
    profile: WorkloadProfile
    platform: str
    modeled_upload_time: float
    measured_upload_seconds: float
    deleted: bool = False


@dataclass
class JobResult:
    """Everything recorded about one (platform, algorithm, dataset) job."""

    platform: str
    algorithm: str
    dataset: str
    resources: ClusterResources
    status: JobStatus
    failure_reason: str = ""
    run_index: int = 0
    backend: str = ""                 # e.g. GraphMat "S" / "D"
    # modeled, full scale (seconds / bytes)
    modeled_processing_time: Optional[float] = None
    modeled_makespan: Optional[float] = None
    modeled_upload_time: Optional[float] = None
    modeled_memory_demand: Optional[float] = None
    # measured on this machine, miniature scale (seconds)
    measured_processing_seconds: Optional[float] = None
    # real algorithm output on the miniature graph (dense-index array)
    output: Optional[np.ndarray] = None
    # The job's timeline, which Granula archives: span records in
    # Span.as_dict() shape, one tree rooted at the whole job
    spans: List[Dict[str, object]] = field(default_factory=list)

    @property
    def succeeded(self) -> bool:
        return self.status is JobStatus.SUCCEEDED


def profile_from_graph(
    graph: Graph,
    *,
    name: str = "",
    memory_skew: Optional[float] = None,
    bfs_coverage: float = 0.95,
) -> WorkloadProfile:
    """Derive a workload profile by measuring a (miniature) graph.

    Used when benchmarking a user-supplied graph that has no registry
    entry: degree moments and component counts are measured directly;
    ``memory_skew`` defaults to a heuristic on the degree skew.
    """
    from repro.algorithms.wcc import weakly_connected_components

    degrees = graph.degrees().astype(np.float64)
    mean_degree = float(degrees.mean()) if len(degrees) else 0.0
    if mean_degree > 0:
        cv2 = float(degrees.var() / mean_degree ** 2)
    else:
        cv2 = 0.0
    if memory_skew is None:
        memory_skew = 1.0 + min(3.0, cv2 / 10.0)
    components = len(np.unique(weakly_connected_components(graph))) if graph.num_vertices else 0
    return WorkloadProfile(
        name=name or graph.name or "user-graph",
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        directed=graph.directed,
        weighted=graph.is_weighted,
        mean_degree=mean_degree,
        degree_cv2=cv2,
        memory_skew=float(memory_skew),
        bfs_coverage=bfs_coverage,
        component_count=components,
    )


def _model_span(span_id, name, start, end, attrs=None) -> Dict[str, object]:
    """One phase on a platform model's timeline, as the dict
    :meth:`repro.trace.Span.as_dict` makes; ``model:0`` is the root."""
    record: Dict[str, object] = {
        "kind": "span", "name": name, "id": span_id, "trace": "model",
        "parent": None if span_id == "model:0" else "model:0",
        "start": start, "end": end, "process": "model", "status": "ok",
    }
    if attrs:
        record["attrs"] = attrs
    return record


class PlatformDriver:
    """Base driver: upload / execute / delete against a simulated platform.

    Subclasses provide ``info`` and ``model`` and may override the quirk
    hooks (:meth:`_select_backend`, :attr:`crash_algorithms`,
    :attr:`unsupported_algorithms`). Modeled drivers compute their
    output with the reference kernels; a *measured* execution path is a
    platform of its own (:mod:`repro.platforms.reference`).
    """

    #: Algorithms whose vendor implementation is missing (PGX.D: LCC).
    unsupported_algorithms: frozenset = frozenset()
    #: Algorithms whose implementation crashes (GraphX: CDLP, §4.2).
    crash_algorithms: frozenset = frozenset()

    def __init__(self, info: PlatformInfo, model: PerformanceModel):
        self.info = info
        self.model = model

    def _run_algorithm(self, algorithm: str, graph: Graph, params):
        """What computes a job's output on the miniature graph."""
        return get_algorithm(algorithm).run(graph, params)

    # -- capability -------------------------------------------------------

    @property
    def name(self) -> str:
        return self.info.name

    def supported_algorithms(self) -> frozenset:
        return frozenset(ALGORITHMS) - self.unsupported_algorithms

    def supports(self, algorithm: str) -> bool:
        return algorithm.lower() in self.supported_algorithms()

    def validate_resources(self, resources: ClusterResources) -> None:
        if resources.machines > 1 and not self.info.distributed:
            raise ConfigurationError(
                f"{self.name} is a non-distributed platform; it cannot use "
                f"{resources.machines} machines"
            )

    # -- driver API ----------------------------------------------------------

    def upload(
        self, graph: Graph, profile: Optional[WorkloadProfile] = None
    ) -> UploadHandle:
        """Hand a graph to the platform.

        The in-process execution consumes the Graph's CSR arrays as
        they are, and ``Graph`` builds them eagerly, so the measured
        upload is a touch of the adjacency, not a conversion; the
        modeled time covers the full-scale dataset.
        """
        if profile is None:
            profile = profile_from_graph(graph)
        with current_tracer().span(
            "upload", platform=self.name, dataset=profile.name
        ) as upload_span:
            _ = graph.out_indptr[-1], graph.in_indptr[-1]
        elapsed = upload_span.duration
        return UploadHandle(
            graph=graph,
            profile=profile,
            platform=self.name,
            modeled_upload_time=self.model.upload_time(profile),
            measured_upload_seconds=elapsed,
        )

    def delete(self, handle: UploadHandle) -> None:
        """Release an uploaded graph."""
        handle.deleted = True

    def _select_backend(self, algorithm: str, resources: ClusterResources) -> str:
        """Backend label recorded in results (overridden by GraphMat)."""
        return ""

    def execute(
        self,
        handle: UploadHandle,
        algorithm: str,
        params: Optional[Mapping[str, object]] = None,
        resources: Optional[ClusterResources] = None,
        *,
        run_index: int = 0,
        seed: int = 0,
    ) -> JobResult:
        """Run one algorithm job; never raises for modeled failures.

        The lifecycle preconditions every driver shares, checked once;
        an accepted job is the driver's :meth:`_execute`.
        """
        if handle.deleted:
            raise ConfigurationError("graph was deleted from the platform")
        algorithm = algorithm.lower()
        resources = resources or ClusterResources()
        self.validate_resources(resources)
        row = partial(
            JobResult,
            platform=self.name,
            algorithm=algorithm,
            dataset=handle.profile.name,
            resources=resources,
            run_index=run_index,
            backend=self._select_backend(algorithm, resources),
            modeled_upload_time=handle.modeled_upload_time,
        )
        if algorithm in self.unsupported_algorithms:
            return row(
                status=JobStatus.NOT_SUPPORTED,
                failure_reason=f"{self.name} provides no "
                               f"{algorithm.upper()} implementation",
            )
        get_algorithm(algorithm)  # raises for unknown acronyms
        return self._execute(
            row, handle, algorithm, params, resources, run_index, seed
        )

    def _execute(
        self, row, handle, algorithm, params, resources, run_index, seed
    ) -> JobResult:
        """An accepted job on a modeled platform: admission and timing
        come from the performance model, the output from a real run.
        ``row`` builds the job's result with its identity filled in."""
        profile = handle.profile
        tracer = current_tracer()
        if algorithm in self.crash_algorithms:
            return row(
                status=JobStatus.CRASHED,
                failure_reason=f"{self.name}'s {algorithm.upper()} "
                               f"implementation crashes",
            )
        demand = self.model.memory_demand_per_machine(algorithm, profile, resources)
        capacity = self.model.memory_capacity_per_machine(resources)
        if demand > capacity:
            return row(
                status=JobStatus.FAILED_MEMORY,
                failure_reason=f"needs {demand / 2**30:.1f} GiB/machine, "
                               f"capacity {capacity / 2**30:.1f} GiB",
                modeled_memory_demand=demand,
            )

        # Real execution on the miniature graph. The processing span is
        # the measurement — no separate re-timing.
        with tracer.span(
            "execute", platform=self.name, algorithm=algorithm,
            dataset=profile.name,
        ):
            with tracer.span("processing", algorithm=algorithm) as proc_span:
                output = self._run_algorithm(algorithm, handle.graph, params)
        measured = proc_span.duration

        tproc = self.model.processing_time(algorithm, profile, resources)
        tproc = self.model.apply_variability(
            tproc,
            resources,
            seed_key=(
                seed,
                self.name,
                algorithm,
                profile.name,
                resources.machines,
                resources.threads_per_machine,
                run_index,
            ),
        )
        makespan = self.model.makespan(
            algorithm, profile, resources, processing_time=tproc
        )
        return row(
            status=JobStatus.SUCCEEDED,
            modeled_processing_time=tproc,
            modeled_makespan=makespan,
            modeled_memory_demand=demand,
            measured_processing_seconds=measured,
            output=output,
            spans=self._build_spans(algorithm, profile, tproc, makespan),
        )

    def _build_spans(
        self,
        algorithm: str,
        profile: WorkloadProfile,
        tproc: float,
        makespan: float,
    ) -> List[Dict[str, object]]:
        """The job's four phases on the modeled timeline: records in
        :meth:`repro.trace.Span.as_dict` shape on the ``model`` process,
        under an ``execute`` root that closes last, as a tracer records
        a tree."""
        startup_end = self.model.fixed_overhead
        load_end = startup_end + self.model.load_time(profile)
        proc_end = load_end + tproc
        return [
            _model_span("model:1", "startup", 0.0, startup_end),
            _model_span("model:2", "load", startup_end, load_end,
                        {"elements": profile.elements}),
            _model_span("model:3", "processing", load_end, proc_end,
                        {"algorithm": algorithm}),
            _model_span("model:4", "cleanup", proc_end, makespan),
            _model_span("model:0", "execute", 0.0, makespan),
        ]

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r} ({self.info.type_code})>"
