"""A forked child inherits its modules and never imports one.

Package façades are lazy, so nothing is loaded just because a package
was named: each process that forks must import, before the fork, what
its children run — the pool dispatcher ``run_job_spec``, the server
``execute_service_run``. Otherwise every child pays for the imports
again, inside its jobs. Each case starts a fresh interpreter that
imports only what the forking process imports, wraps the child's entry
point, and reports the ``repro.*`` and ``numpy*`` modules the child
added while it ran R1 jobs on ``pythonref`` and on a modeled platform.
"""

PLATFORMS = ["pythonref", "graphmat"]

WATCH = """
import json, sys

def watched(entry, report):
    def run(*args, **kwargs):
        before = set(sys.modules)
        try:
            return entry(*args, **kwargs)
        finally:
            added = sorted(
                name for name in set(sys.modules) - before
                if name.split(".")[0] in ("repro", "numpy")
            )
            with open(report, "a") as handle:
                handle.write(json.dumps(added) + "\\n")
    return run
"""

MATRIX = dict(
    platforms=PLATFORMS, datasets=["R1"], repetitions=1,
    algorithms=["bfs", "pr", "wcc", "cdlp", "lcc", "sssp"],
)


def test_pool_workers_import_nothing(fresh_python, tmp_path):
    report = tmp_path / "added.jsonl"
    rows = fresh_python(WATCH + f"""
from repro.harness.config import BenchmarkConfig
from repro.runtime import pool
from repro.runtime.executor import RuntimeConfig, execute_matrix

pool._worker_main = watched(pool._worker_main, {str(report)!r})
result = execute_matrix(
    BenchmarkConfig(**{MATRIX!r}), RuntimeConfig(workers=2)
)
assert result.mode == "pool" and result.workers == 2
print(json.dumps([[r.platform, r.algorithm, r.status] for r in result.database]))
""")
    assert {platform for platform, _, status in rows
            if status == "succeeded"} == {"PythonRef", "GraphMat"}
    assert report.read_text().splitlines() == ["[]", "[]"]


def test_service_run_child_imports_nothing(fresh_python, tmp_path):
    report = tmp_path / "added.jsonl"
    outcome = fresh_python(WATCH + f"""
from pathlib import Path

from repro.proc import Child
from repro.service import server
from repro.service.runs import RunRegistry

registry = RunRegistry({str(tmp_path / "spool")!r})
record = registry.create("tenant", {MATRIX!r}, workers=1)
# As the server launches a run child, with the entry point watched.
child = Child(
    "service-run", target=watched(server.execute_service_run, {str(report)!r}),
    args=(str(registry.run_dir(record.run_id)),), kwargs={{"workers": 1}},
    channel=False,
)
child.process.join(240)
outcome = Path(registry.run_dir(record.run_id), "outcome.json").read_text()
print(json.dumps(json.loads(outcome)))
""")
    assert outcome["ok"] and outcome["mode"] == "inline"
    assert outcome["failures"] == 0 and outcome["rows"] >= 10
    assert report.read_text().splitlines() == ["[]"]
