"""T_proc never contains an import (paper §2.5: processing time only).

A module first imported inside a ``processing`` span is start-up cost
timed as T_proc; numpy's lazily loaded ``numpy.ma`` once added 9–16 ms
to the first job of a process, which is why ``algorithms/common.py``
preloads it. Each measured path runs every algorithm it supports in a
fresh interpreter, and ``sys.modules`` must not grow inside any
``processing`` span.
"""

import pytest

ALGORITHMS = ["bfs", "pr", "wcc", "cdlp", "lcc", "sssp"]

#: (platform, machines) -> the algorithms it runs; no engine formulates LCC.
PATHS = {
    ("pythonref", 1): ALGORITHMS,
    ("pythonref-pregel", 1): [a for a in ALGORITHMS if a != "lcc"],
    ("pythonref-gas", 1): [a for a in ALGORITHMS if a != "lcc"],
    ("pythonref-spmv", 1): [a for a in ALGORITHMS if a != "lcc"],
    ("pythonref", 2): ALGORITHMS,
}

SCRIPT = """
import json, sys

from repro.harness.config import BenchmarkConfig
from repro.harness.runner import BenchmarkRunner
from repro.platforms.cluster import ClusterResources
from repro.trace import Tracer, use_tracer


class ImportWatch(Tracer):
    def __init__(self):
        super().__init__()
        self.before, self.seen, self.grown = {}, set(), {}

    def start_span(self, name, **kwargs):
        opened = super().start_span(name, **kwargs)
        if name == "processing":
            self.before[opened.span_id] = set(sys.modules)
        return opened

    def end_span(self, span, **kwargs):
        if span.name == "processing":
            algorithm = span.attributes["algorithm"]
            self.seen.add(algorithm)
            grown = set(sys.modules) - self.before.pop(span.span_id)
            if grown:
                self.grown[algorithm] = sorted(grown)
        return super().end_span(span, **kwargs)


platform, machines = sys.argv[1], int(sys.argv[2])
watch = ImportWatch()
with use_tracer(watch):
    database = BenchmarkRunner(BenchmarkConfig(
        platforms=[platform], datasets=["R1", "D100"], repetitions=1,
        algorithms=%r, resources=ClusterResources(machines=machines),
    )).run()
failed = [row.algorithm for row in database if row.status == "failed"]
print(json.dumps([sorted(watch.seen), watch.grown, failed]))
""" % ALGORITHMS


@pytest.mark.parametrize(
    "platform,machines", sorted(PATHS), ids=str
)
def test_no_module_is_imported_inside_processing(
    fresh_python, platform, machines
):
    seen, grown, failed = fresh_python(SCRIPT, platform, str(machines))
    assert failed == []
    assert seen == sorted(PATHS[platform, machines])
    assert grown == {}
