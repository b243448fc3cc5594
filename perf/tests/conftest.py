"""Make ``perf`` and the program importable; share the short traced runs.

Run with ``python -m pytest perf/tests`` from the repository root. Not
part of tier-1: the suite starts real worker pools, shards and a server.
"""

import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)
# The service workload starts ``python -m repro.cli serve`` as a child.
os.environ["PYTHONPATH"] = os.pathsep.join(
    [str(ROOT / "src"), str(ROOT)]
    + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
)

from perf.metrics import WORKLOADS  # noqa: E402
from perf.worker import run_workload  # noqa: E402


@pytest.fixture(scope="session")
def traced_runs(tmp_path_factory):
    """Two traced 2-round runs of every workload, same seed: name -> [a, b]."""
    runs = {}
    for name, _ in WORKLOADS:
        runs[name] = [
            run_workload(
                name, seed=1, rounds=2, trace=True,
                scratch=tmp_path_factory.mktemp(f"{name}-{attempt}"),
            )
            for attempt in range(2)
        ]
    return runs
