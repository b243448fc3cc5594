"""``matrix`` — hundreds of sub-millisecond jobs through the concurrent runtime.

Jobs are so short that ``runtime`` (scheduler, pool, cache, journal),
``harness`` and ``platforms`` do more than half of the work and the
kernels the minority. The fresh half of a round *writes* the journal and
the cache spill, the resume half *reads* them, so a write-path gain that
costs replay shows in the same workload — and separately in
``runtime.fresh_s`` / ``runtime.resume_s``.
"""

from __future__ import annotations

import os
import shutil
from pathlib import Path
from typing import Dict, Optional

from perf import estimators
from perf.workloads.base import RoundResult, Workload
from perf.workloads.common import dataset_elements, processing

DATASETS = ("R1", "R2", "R3", "R4", "D100", "D300", "G22", "G24")
ALGORITHMS = ("bfs", "wcc", "pr")
REPETITIONS = 2


def cut_journal(run_dir: Path, dag_size: int) -> int:
    """Simulate a crash half-way: keep the run-start line, the scheduled
    batch and the first half of the job records; drop ``results.json``.

    The ``tests/runtime/test_resume.py`` idiom. Returns the lines kept.
    """
    from repro.runtime import RunJournal

    path = RunJournal.journal_path(run_dir)
    lines = path.read_bytes().splitlines(keepends=True)
    head = 1 + dag_size
    keep = head + (len(lines) - head) // 2
    path.write_bytes(b"".join(lines[:keep]))
    results = Path(run_dir) / "results.json"
    if results.exists():
        results.unlink()
    return keep


class MatrixWorkload(Workload):
    name = "matrix"

    def setup(self) -> None:
        from repro.harness.config import BenchmarkConfig
        from repro.platforms.registry import platform_names
        from repro.runtime import RuntimeConfig, execute_matrix

        self.workers = min(2, os.cpu_count() or 1)
        self.runtime = RuntimeConfig(workers=self.workers)
        self.config = BenchmarkConfig(
            platforms=platform_names(),
            datasets=list(DATASETS),
            algorithms=list(ALGORITHMS),
            repetitions=REPETITIONS,
            seed=self.seed,
        )
        # The comparator: the same matrix inline, un-journaled.
        with self.rec.span("runtime.baseline"):
            baseline = execute_matrix(self.config, RuntimeConfig(workers=1))
        self.baseline = baseline.database.canonical_json()
        self.sizes = dataset_elements(DATASETS, self.seed)
        self.last_run_dir: Optional[Path] = None

    def round(self, index: int) -> RoundResult:
        from repro.runtime import execute_matrix, resume_run

        rec = self.rec
        run_dir = self.scratch / f"matrix-run-{index}"
        result = RoundResult(attempted=2)
        with rec.span("runtime.fresh") as fresh_span:
            fresh = execute_matrix(self.config, self.runtime, run_dir=run_dir)
        with rec.span("harness.canonical_json"):
            fresh_json = fresh.database.canonical_json()
        journal = run_dir / "journal.jsonl"
        journal_lines = journal.read_bytes().count(b"\n")
        journal_bytes = journal.stat().st_size
        with rec.span("bench.cut_journal"):
            cut_journal(run_dir, fresh.dag_size)
        with rec.span("runtime.resume"):
            resumed = resume_run(run_dir, self.runtime)
        with rec.span("harness.canonical_json"):
            resumed_json = resumed.database.canonical_json()
        for run, text in ((fresh, fresh_json), (resumed, resumed_json)):
            if text != self.baseline or run.failures or run.lost_jobs:
                result.failed += 1

        result.elements, result.tproc = processing(fresh.database, self.sizes)
        fresh_s = fresh_span.duration
        cache = fresh.cache_stats
        result.samples = {
            "runtime.jobs_per_s": fresh.job_count / fresh_s,
            "runtime.overhead_s_per_job":
                (fresh_s - result.tproc / self.workers) / fresh.job_count,
            "platforms.tproc_share": result.tproc / (self.workers * fresh_s),
            "runtime.jobs": fresh.job_count,
            "runtime.dag_size": fresh.dag_size,
            "runtime.restored_jobs": resumed.restored_jobs,
            "runtime.journal.records": journal_lines,
            "runtime.journal.bytes": journal_bytes,
            "runtime.cache.misses": cache.misses,
            "runtime.cache.stores": cache.stores,
            "runtime.cache.bytes_written": cache.bytes_written,
            "runtime.cache.disk_hits": cache.disk_hits,
            "runtime.cache.memory_hits": cache.memory_hits,
        }
        if self.last_run_dir is not None:
            shutil.rmtree(self.last_run_dir, ignore_errors=True)
        self.last_run_dir = run_dir
        return result

    def final_metrics(self) -> Dict[str, float]:
        """The program's own trace of the last run, read as an artifact."""
        trace = self.last_run_dir / "trace.jsonl"
        with open(trace, "rb") as handle:
            spans = sum(1 for line in handle if b'"kind":"counter"' not in line)
        return {
            "trace.spans_per_run": spans,
            "trace.bytes_per_run": trace.stat().st_size,
        }

    def probes(self) -> Dict[str, float]:
        found = {}
        found.update(self._probe_journal())
        found.update(self._probe_cache())
        found.update(self._probe_pool_startup())
        found.update(self._probe_jobs())
        return found

    def _probe_journal(self) -> Dict[str, float]:
        from repro.runtime import RunJournal

        replay = RunJournal.load(self.last_run_dir)
        records = [r for r in replay.records if r.get("type") == "job-done"]
        samples = []
        for attempt in range(5):
            journal = RunJournal.create(
                self.scratch / f"probe-journal-{attempt}", {"kind": "probe"}
            )
            with self.rec.span("runtime.journal.append") as span:
                for start in range(0, len(records), 16):
                    journal.append_many(records[start:start + 16])
                journal.sync()
            journal.close()
            samples.append(span.duration / len(records))
        loads = []
        for _ in range(5):
            with self.rec.span("runtime.journal.load") as span:
                RunJournal.load(self.last_run_dir)
            loads.append(span.duration)
        return {
            "runtime.journal.append_s_per_record": estimators.low(samples),
            "runtime.journal.load_s": estimators.low(loads),
        }

    def _probe_cache(self) -> Dict[str, float]:
        from repro.harness.datasets import get_dataset
        from repro.runtime import GraphCache

        dataset = get_dataset("G24")
        timings = {"miss": [], "disk_hit": [], "memory_hit": []}
        for attempt in range(5):
            directory = self.scratch / f"probe-cache-{attempt}"
            cold = GraphCache(directory)
            with self.rec.span("runtime.cache.miss") as span:
                cold.get_graph(dataset, self.seed)
            timings["miss"].append(span.duration)
            warm = GraphCache(directory)
            with self.rec.span("runtime.cache.disk_hit") as span:
                warm.get_graph(dataset, self.seed)
            timings["disk_hit"].append(span.duration)
            with self.rec.span("runtime.cache.memory_hit") as span:
                warm.get_graph(dataset, self.seed)
            timings["memory_hit"].append(span.duration)
        return {
            f"runtime.cache.{kind}_s": estimators.low(samples)
            for kind, samples in timings.items()
        }

    def _probe_pool_startup(self) -> Dict[str, float]:
        """A one-job matrix through the pool minus the same job inline."""
        from repro.runtime import RuntimeConfig, execute_matrix

        one_job = self.config.subset(
            platforms=["powergraph"], datasets=["R1"], algorithms=["bfs"],
            repetitions=1,
        )
        timings = {1: [], 2: []}
        for _ in range(5):
            for workers in (1, 2):
                with self.rec.span(f"runtime.pool.one_job_w{workers}") as span:
                    execute_matrix(
                        one_job, RuntimeConfig(workers=workers, mode="auto")
                    )
                timings[workers].append(span.duration)
        return {
            "runtime.pool.startup_s":
                estimators.low(timings[2]) - estimators.low(timings[1]),
        }

    def _probe_jobs(self) -> Dict[str, float]:
        """Per-job cost of the serial harness path and of the driver alone."""
        from repro.harness.datasets import get_dataset
        from repro.harness.runner import BenchmarkRunner
        from repro.platforms.reference import ReferenceDriver

        runner = BenchmarkRunner(self.config)
        jobs = [
            (platform, dataset, algorithm)
            for platform in self.config.platforms[:2]
            for dataset in DATASETS
            for algorithm in ALGORITHMS
        ]
        for job in jobs:  # uploads and references are per-runner memos
            runner.run_job(*job)
        run_job = []
        for _ in range(5):
            with self.rec.span("harness.run_job") as span:
                for job in jobs:
                    runner.run_job(*job)
            run_job.append(span.duration / len(jobs))

        driver = ReferenceDriver()
        dataset = get_dataset("R1")
        handle = driver.upload(dataset.materialize(self.seed), profile=dataset.profile)
        params = dataset.algorithm_parameters("bfs", self.seed)
        overhead = []
        for _ in range(50):
            with self.rec.span("platforms.execute") as span:
                job = driver.execute(handle, "bfs", params)
            overhead.append(span.duration - job.measured_processing_seconds)
        return {
            "harness.run_job_s": estimators.low(run_job),
            "platforms.execute_overhead_s": estimators.low(overhead),
        }

    def teardown(self) -> None:
        if self.last_run_dir is not None:
            shutil.rmtree(self.last_run_dir, ignore_errors=True)
