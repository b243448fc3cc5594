"""``service`` — the real deployment shape: server subprocess, HTTP, SQLite.

``service`` (HTTP front, queue, run-child spawn, supervision) and
``resultsdb`` (commit of jobs and spans) dominate and the kernels are
noise. Reads run beside writes on a store that grows with every round,
so an index that speeds queries but slows commits (or the reverse) moves
``makespan_s`` the wrong way. One closed-loop client: the next request
goes out only when the previous one has completed.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from typing import Dict, List

from perf import estimators
from perf.workloads.base import RoundResult, Workload
from perf.workloads.common import dataset_elements, processing

MATRIX = {
    "platforms": ["powergraph", "graphmat", "pythonref"],
    "datasets": ["R1", "R4", "G24"],
    "algorithms": ["bfs", "pr", "wcc", "sssp"],
    "repetitions": 2,
}
#: Submissions per round: 2 x 60 jobs keeps a round at about 1 s.
RUNS_PER_ROUND = 2
TENANT = "bench"
POLL_SECONDS = 0.010
#: A run that has not settled by now counts as failed (typical: 0.5 s).
RUN_DEADLINE_SECONDS = 60.0
TERMINAL_STATES = ("done", "failed", "quarantined")
#: ``pythonref`` reports its measured wall-clock as the modeled T_proc, so
#: its rows differ from run to run by design: they are checked for
#: success and validated output, the modeled platforms byte for byte.
MEASURED_PLATFORM = "PythonRef"


def _comparable(rows) -> str:
    from repro.harness.results import ResultsDatabase

    return ResultsDatabase(
        [row for row in rows if row.platform != MEASURED_PLATFORM]
    ).canonical_json()


class ServiceWorkload(Workload):
    name = "service"
    server = None

    def setup(self) -> None:
        from repro.harness.config import BenchmarkConfig
        from repro.runtime import RuntimeConfig, execute_matrix
        from repro.service import ServiceClient

        self.matrix = dict(MATRIX, seed=self.seed)
        self.spool = self.scratch / "spool"
        self._server_log = open(self.scratch / "server.log", "wb")
        with self.rec.span("service.start"):
            self.server = subprocess.Popen(
                [
                    sys.executable, "-m", "repro.cli", "serve", "--port", "0",
                    "--workers", "1", "--max-running", "1",
                    "--spool", str(self.spool),
                ],
                # stdout carries two lines (address, spool); anything noisy
                # goes to a file, so a full pipe can never stall the server.
                stdout=subprocess.PIPE, stderr=self._server_log, text=True,
                env=dict(os.environ, PYTHONUNBUFFERED="1"),
                # Its own process group: one killpg reaches the server and
                # every run child it forked, on every exit path.
                start_new_session=True,
            )
            self.register_process_group(self.server.pid)
            host, port = self._read_address()
        self.client = ServiceClient(host, port, timeout=RUN_DEADLINE_SECONDS)

        config = BenchmarkConfig(**self.matrix)
        with self.rec.span("runtime.baseline"):
            baseline = execute_matrix(config, RuntimeConfig(workers=1))
        self.baseline = _comparable(baseline.database)
        self.sizes = dataset_elements(MATRIX["datasets"], self.seed)
        self.run_ids: List[str] = []
        self.store = None
        self.submit_ms: List[float] = []

    def _read_address(self):
        """Parse the server's machine-readable ``listening on`` line."""
        for line in self.server.stdout:
            if "listening on http://" in line:
                host, port = line.rsplit("http://", 1)[1].strip().rsplit(":", 1)
                return host, int(port)
        raise RuntimeError("service exited before announcing its address")

    def _one_run(self, result: RoundResult) -> None:
        from repro.harness.results import BenchmarkResult
        from repro.service import ServiceError

        rec = self.rec
        result.attempted += 1
        try:
            with rec.span("service.submit") as submit:
                accepted = self.client.submit(TENANT, self.matrix)
            self.submit_ms.append(submit.duration * 1e3)
            run_id = str(accepted["run_id"])
            polls = 0
            deadline = time.monotonic() + RUN_DEADLINE_SECONDS
            with rec.span("service.accept_to_done"):
                while True:
                    status = self.client.run(run_id)
                    polls += 1
                    if status["state"] in TERMINAL_STATES:
                        break
                    if time.monotonic() > deadline:
                        break
                    time.sleep(POLL_SECONDS)
            with rec.span("service.fetch_results"):
                payload = self.client.fetch(run_id, "results")
        except (ServiceError, OSError) as exc:
            print(f"service: request failed: {exc}", file=sys.stderr)
            result.failed += 1
            return
        self.run_ids.append(run_id)
        with rec.span("harness.canonical_json"):
            rows = [BenchmarkResult(**record) for record in json.loads(payload)]
            matches = _comparable(rows) == self.baseline and all(
                row.succeeded and row.validated
                for row in rows if row.platform == MEASURED_PLATFORM
            )
        if status["state"] != "done" or not matches:
            result.failed += 1
        run_elements, run_tproc = processing(rows, self.sizes)
        result.elements += run_elements
        result.tproc += run_tproc
        samples = result.samples
        samples["service.poll_requests"] = (
            samples.get("service.poll_requests", 0) + polls
        )
        samples["service.relaunches"] = (
            samples.get("service.relaunches", 0) + int(status["attempts"]) - 1
        )

    def _read_set(self, result: RoundResult) -> None:
        """The canned queries, against the store the server is writing."""
        from repro.resultsdb import STORE_NAME, ResultsStore, regressions, top, trend

        rec = self.rec
        if self.store is None:
            self.store = ResultsStore(self.spool / STORE_NAME)
        result.attempted += 1
        with rec.span("resultsdb.top"):
            leaders = top(self.store, "bfs", "R4")
        with rec.span("resultsdb.trend"):
            history = trend(self.store, "PowerGraph", "pr", "G24")
        with rec.span("resultsdb.regressions"):
            regressions(self.store, self.run_ids[-2], self.run_ids[-1])
        with rec.span("resultsdb.run_spans"):
            spans = self.store.run_spans(self.run_ids[-1])
        if not leaders or len(history) != len(self.run_ids) or not spans:
            result.failed += 1

    def round(self, index: int) -> RoundResult:
        result = RoundResult()
        for _ in range(RUNS_PER_ROUND):
            self._one_run(result)
        if len(self.run_ids) >= 2:
            self._read_set(result)
        return result

    def final_metrics(self) -> Dict[str, float]:
        stats = self.store.stats()
        runs = max(1, int(stats["runs"]))
        spool_bytes = sum(
            path.stat().st_size
            for run_id in self.run_ids
            for path in (self.spool / run_id).rglob("*")
            if path.is_file()
        )
        return {
            "service.submit_ms_p50": estimators.percentile(self.submit_ms, 0.5),
            "service.submit_ms_p90": estimators.percentile(self.submit_ms, 0.9),
            "service.spool_bytes_per_run": spool_bytes / max(1, len(self.run_ids)),
            "resultsdb.runs": stats["runs"],
            "resultsdb.jobs": stats["jobs"],
            "resultsdb.spans": stats["spans"],
            "resultsdb.db_bytes_per_run": stats["db_bytes"] / runs,
        }

    def probes(self) -> Dict[str, float]:
        from repro.resultsdb import ResultsStore

        health = []
        for _ in range(20):
            with self.rec.span("service.healthz") as span:
                self.client.healthz()
            health.append(span.duration * 1e3)

        # A round-sized commit into a store of its own: the last run's
        # rows and spans, read back through the public store API.
        run_id = self.run_ids[-1]
        metadata = {"system_under_test": "perf-probe"}
        records = self.store.run_records(run_id)
        spans = self.store.run_spans(run_id)
        commits = []
        with ResultsStore(self.scratch / "probe-store" / "results.db") as scratch_store:
            for attempt in range(5):
                with self.rec.span("resultsdb.submit_run") as span:
                    scratch_store.submit_run(
                        dict(metadata, run_id=f"probe-{attempt}"), records,
                        spans=spans,
                    )
                commits.append(span.duration)
        return {
            "service.healthz_ms": estimators.low(health),
            "resultsdb.submit_run_s": estimators.low(commits),
        }

    def teardown(self) -> None:
        if self.store is not None:
            self.store.close()
        server = self.server
        if server is None:
            return
        try:
            os.killpg(server.pid, signal.SIGTERM)
            server.wait(timeout=10)
        except subprocess.TimeoutExpired:
            pass
        except ProcessLookupError:
            pass
        finally:
            # Whatever survived SIGTERM (a run child mid-commit) goes too.
            try:
                os.killpg(server.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            server.wait()
            server.stdout.close()
            self._server_log.close()
