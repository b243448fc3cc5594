"""Benchmark orchestration (paper Figure 1, box 5: harness services).

The runner instructs each platform driver to upload graphs, executes the
configured (platform × dataset × algorithm) jobs, validates outputs
against the reference implementations, extracts Tproc through the
Granula archive of the spans each job hands back (its timeline: the
recorded ``execute`` subtree of a measured job, the model's phases of
a modeled one), computes the derived metrics, and fills the results
database.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.exceptions import ValidationError
from repro.algorithms.validation import validate_output
from repro.granula.archiver import build_archive
from repro.harness.config import BenchmarkConfig
from repro.harness.datasets import Dataset, get_dataset
from repro.harness.metrics import edges_per_second, edges_and_vertices_per_second
from repro.harness.results import BenchmarkResult, ResultsDatabase
from repro.harness.sla import sla_compliant
from repro.platforms.base import JobResult, PlatformDriver, UploadHandle
from repro.platforms.cluster import ClusterResources
from repro.platforms.registry import create_driver
from repro.trace import current_tracer

__all__ = ["BenchmarkRunner"]


class BenchmarkRunner:
    """Runs benchmark jobs and records results.

    Every graph and validation reference a runner touches is read
    through one artifact store (``cache``; memory-only unless the
    caller passes one backed by a shared directory), and uploads are
    kept per platform, so experiment suites that revisit the same
    workloads stay fast.
    """

    def __init__(self, config: Optional[BenchmarkConfig] = None, cache=None):
        # Imported here: repro.runtime's package init reaches back into
        # this module through the worker pool.
        from repro.runtime.cache import GraphCache

        self.config = config or BenchmarkConfig()
        self.cache: GraphCache = cache if cache is not None else GraphCache()
        self.database = ResultsDatabase()
        self._drivers: Dict[str, PlatformDriver] = {}
        self._handles: Dict[Tuple[str, str], UploadHandle] = {}
        #: RuntimeRunResult of the last ``run()``, if any.
        self.last_run = None

    # -- plumbing -----------------------------------------------------------

    def driver(self, platform: str) -> PlatformDriver:
        platform = platform.lower()
        if platform not in self._drivers:
            self._drivers[platform] = create_driver(platform)
        return self._drivers[platform]

    def _handle(self, platform: str, dataset: Dataset) -> UploadHandle:
        key = (platform.lower(), dataset.dataset_id)
        if key not in self._handles:
            graph = self.cache.get_graph(dataset, self.config.seed)
            self._handles[key] = self.driver(platform).upload(
                graph, profile=dataset.profile
            )
        return self._handles[key]

    # -- job execution -----------------------------------------------------

    def run_job(
        self,
        platform: str,
        dataset_id: str,
        algorithm: str,
        *,
        resources: Optional[ClusterResources] = None,
        run_index: int = 0,
    ) -> BenchmarkResult:
        """Execute one job end to end and record it in the database."""
        result = self.execute_job(
            platform, dataset_id, algorithm,
            resources=resources, run_index=run_index,
        )
        self.database.add(result)
        return result

    def execute_job(
        self,
        platform: str,
        dataset_id: str,
        algorithm: str,
        *,
        resources: Optional[ClusterResources] = None,
        run_index: int = 0,
    ) -> BenchmarkResult:
        """:meth:`run_job` without the recording — what the runtime
        calls, which merges a run's rows in job order at its end.

        The whole job runs inside a ``job`` span whose attributes carry
        the final Tproc/makespan/EPS/EVPS — the span tree in a run's
        ``trace.jsonl`` therefore yields the same numbers as the results
        database (see docs/observability.md).
        """
        dataset = get_dataset(dataset_id)
        algorithm = algorithm.lower()
        resources = resources or self.config.resources
        with current_tracer().span(
            "job",
            platform=platform.lower(),
            dataset=dataset.dataset_id,
            algorithm=algorithm,
            run_index=run_index,
        ) as job_span:
            job = self.driver(platform).execute(
                self._handle(platform, dataset),
                algorithm,
                dataset.algorithm_parameters(algorithm, self.config.seed),
                resources,
                run_index=run_index,
                seed=self.config.seed,
            )
            result = self._finalize(job, dataset)
            job_span.attributes.update(
                status=result.status,
                tproc=result.modeled_processing_time,
                makespan=result.modeled_makespan,
                eps=result.eps,
                evps=result.evps,
            )
        return result

    def _finalize(self, job: JobResult, dataset: Dataset) -> BenchmarkResult:
        """Validate, extract Tproc via Granula, derive metrics."""
        validated: Optional[bool] = None
        if job.succeeded and self.config.validate_outputs and job.output is not None:
            with current_tracer().span(
                "validate", algorithm=job.algorithm, dataset=dataset.dataset_id
            ) as validate_span:
                reference = self.cache.get_reference(
                    dataset, job.algorithm, self.config.seed
                )
                try:
                    validate_output(job.algorithm, job.output, reference)
                    validated = True
                except ValidationError:
                    validated = False
                validate_span.attributes["validated"] = validated

        tproc = job.modeled_processing_time
        if job.succeeded and job.spans:
            # The harness does not trust the platform's own number: Tproc
            # is the processing phase of the Granula performance archive
            # built from the job's spans (paper §2.5.2) — for a measured
            # job, exactly the recorded processing span's duration.
            archive = build_archive(job)
            tproc = archive.phase_duration("processing")

        eps = evps = None
        if job.succeeded and tproc and tproc > 0:
            profile = dataset.profile
            eps = edges_per_second(profile.num_edges, tproc)
            evps = edges_and_vertices_per_second(
                profile.num_vertices, profile.num_edges, tproc
            )

        return BenchmarkResult(
            platform=job.platform,
            algorithm=job.algorithm,
            dataset=dataset.dataset_id,
            machines=job.resources.machines,
            threads=job.resources.threads_per_machine,
            status=job.status.value,
            failure_reason=job.failure_reason,
            run_index=job.run_index,
            backend=job.backend,
            modeled_processing_time=tproc,
            modeled_makespan=job.modeled_makespan,
            modeled_upload_time=job.modeled_upload_time,
            modeled_memory_demand=job.modeled_memory_demand,
            measured_processing_seconds=job.measured_processing_seconds,
            eps=eps,
            evps=evps,
            sla_compliant=sla_compliant(job, budget=self.config.sla_seconds),
            validated=validated,
        )

    # -- batch runs --------------------------------------------------------

    def run(self, *, workers: int = 1, runtime=None, run_dir=None) -> ResultsDatabase:
        """Run the full configured selection; returns the database.

        The matrix is a job list executed by the runtime
        (docs/runtime.md): inline on this runner or — with
        ``workers > 1`` or an explicit
        :class:`~repro.runtime.executor.RuntimeConfig` — on a worker
        pool sharing a content-addressed graph cache. The rows are the
        same for any worker count, up to the environment-dependent
        ``measured_*`` wall-clocks (``ResultsDatabase.canonical_json``).

        With ``run_dir`` the run is journaled and crash-safe: a journal
        a crashed run of the *same* matrix left there is resumed
        instead of starting over (docs/robustness.md).
        """
        from repro.runtime.executor import RuntimeConfig, execute_matrix

        self.last_run = execute_matrix(
            self.config,
            runtime or RuntimeConfig(workers=workers),
            run_dir=run_dir,
            resume=None,
            runner=self,
        )
        return self.database
