"""Benchmark orchestration (paper Figure 1, box 5: harness services).

The runner instructs each platform driver to upload graphs, executes the
configured (platform × dataset × algorithm) jobs, validates outputs
against the reference implementations, extracts Tproc through the
Granula archive of each job's event log, computes the derived metrics,
and fills the results database.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Optional, Tuple

from repro.exceptions import ValidationError
from repro.algorithms.registry import get_algorithm
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
        #: RuntimeRunResult of the last concurrent ``run()``, if any.
        self.last_run = None
        #: Write-ahead journal for the sequential path (see journaling).
        self._journal = None
        self._journal_replay = None

    # -- plumbing -----------------------------------------------------------

    def driver(self, platform: str) -> PlatformDriver:
        platform = platform.lower()
        if platform not in self._drivers:
            kwargs = {}
            if platform == "pythonref" and self.config.partitions is not None:
                # Only the measured kernels path shards: a modeled driver
                # has nothing to shard, an engine path measures its model.
                kwargs = {
                    "partitions": self.config.partitions,
                    "partition_strategy": self.config.partition_strategy,
                }
            self._drivers[platform] = create_driver(platform, **kwargs)
        return self._drivers[platform]

    def _handle(self, platform: str, dataset: Dataset) -> UploadHandle:
        key = (platform.lower(), dataset.dataset_id)
        if key not in self._handles:
            graph = self.cache.get_graph(dataset, self.config.seed)
            self._handles[key] = self.driver(platform).upload(
                graph, profile=dataset.profile
            )
        return self._handles[key]

    @contextmanager
    def journaling(self, journal, replay=None):
        """Make sequential ``run_job`` calls in the block crash-safe and
        resumable.

        Every completed job is appended durably to *journal* before the
        next one starts; with *replay* (a loaded
        :class:`~repro.runtime.journal.JournalReplay`), jobs the crashed
        run already completed return their recorded rows instead of
        re-executing. Recorded rows are matched by job identity and
        consumed FIFO per identity, so deterministic experiment bodies
        resume exactly where they stopped. ``journal=None`` changes
        nothing: a suite's journal stays in charge of its experiments.
        """
        if journal is None:
            yield
            return
        self._journal, self._journal_replay = journal, replay
        try:
            yield
        finally:
            self._journal = self._journal_replay = None

    def can_run(self, platform: str, dataset: Dataset, algorithm: str) -> bool:
        """Whether the combination is runnable at all.

        Weighted algorithms need weighted datasets; non-distributed
        platforms cannot take multi-machine resources.
        """
        spec = get_algorithm(algorithm)
        if spec.weighted and not dataset.weighted:
            return False
        driver = self.driver(platform)
        if self.config.resources.machines > 1 and not driver.info.distributed:
            return False
        return True

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
        """Execute one job end to end and record it in the database.

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
            result = self._run_job_body(
                platform, dataset, algorithm, resources, run_index, job_span
            )
            job_span.attributes.update(
                status=result.status,
                tproc=result.modeled_processing_time,
                makespan=result.modeled_makespan,
                eps=result.eps,
                evps=result.evps,
            )
        return result

    def _run_job_body(
        self,
        platform: str,
        dataset: Dataset,
        algorithm: str,
        resources: ClusterResources,
        run_index: int,
        job_span,
    ) -> BenchmarkResult:
        serial_key = None
        if self._journal is not None or self._journal_replay is not None:
            from repro.runtime.journal import serial_job_key

            serial_key = serial_job_key(
                platform,
                dataset.dataset_id,
                algorithm,
                machines=resources.machines,
                threads=resources.threads,
                run_index=run_index,
                seed=self.config.seed,
            )
        if self._journal_replay is not None:
            record = self._journal_replay.take_serial(serial_key)
            if record is not None:
                result = BenchmarkResult(**record["result"])
                job_span.attributes["replayed"] = True
                self.database.add(result)
                return result
        driver = self.driver(platform)
        handle = self._handle(platform, dataset)
        params = dataset.algorithm_parameters(algorithm, self.config.seed)
        job = driver.execute(
            handle,
            algorithm,
            params,
            resources,
            run_index=run_index,
            seed=self.config.seed,
        )
        result = self._finalize(job, dataset)
        if self._journal is not None:
            # Journaled (durably) before the result is observable, so a
            # crash after this line cannot lose the completed job.
            self._journal.append(
                {
                    "type": "serial-job",
                    "key": serial_key,
                    "result": result.as_dict(),
                    "trace": job_span.span_id,
                }
            )
        self.database.add(result)
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
        if job.succeeded and job.events:
            # The harness does not trust the platform's own number: Tproc
            # is extracted from the Granula performance archive built from
            # the job's event log (paper §2.5.2) — which itself now
            # carries measured span durations where they exist.
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

        With ``workers > 1`` (or an explicit
        :class:`~repro.runtime.executor.RuntimeConfig`) the matrix is
        executed by the concurrent runtime: a dependency-aware job DAG
        dispatched onto a multiprocessing worker pool sharing a
        content-addressed graph cache. The merged database is
        deterministic — identical to the serial run except for the
        environment-dependent ``measured_*`` wall-clocks (see
        ``ResultsDatabase.canonical_json`` and docs/runtime.md).

        With ``run_dir`` the run is journaled and crash-safe (always via
        the runtime, whatever the worker count): if the directory holds
        a journal from a crashed run of the *same* matrix, the run
        resumes from it instead of starting over (docs/robustness.md).
        """
        if workers > 1 or runtime is not None or run_dir is not None:
            from repro.runtime.executor import RuntimeConfig, execute_matrix
            from repro.runtime.journal import RunJournal

            if runtime is None:
                runtime = RuntimeConfig(workers=workers)
            resume = (
                run_dir is not None
                and RunJournal.journal_path(run_dir).exists()
            )
            outcome = execute_matrix(
                self.config, runtime, run_dir=run_dir, resume=resume
            )
            self.database.extend(outcome.database)
            self.last_run = outcome
            return self.database
        for platform in self.config.platforms:
            for dataset_id in self.config.datasets:
                dataset = get_dataset(dataset_id)
                for algorithm in self.config.algorithms:
                    if not self.can_run(platform, dataset, algorithm):
                        if self.config.skip_impossible:
                            continue
                        raise ValidationError(
                            f"cannot run {algorithm} on {dataset_id} with {platform}"
                        )
                    for rep in range(self.config.repetitions):
                        self.run_job(
                            platform, dataset_id, algorithm, run_index=rep
                        )
        return self.database
