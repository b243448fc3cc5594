"""A long-lived process keeps no span that no capture still takes.

The default tracer is read only through captures (a journaled run's
``trace.jsonl``, a measured job's ``JobResult.spans``), so however many
runs and sharded calls one process makes, its ring stays empty and
every run still exports all that it recorded.
"""

import pytest

from repro.engines.partitioned import run_algorithm, undeploy
from repro.harness.config import BenchmarkConfig
from repro.harness.datasets import get_dataset
from repro.runtime import RuntimeConfig, execute_matrix, resume_run
from repro.trace import Tracer, current_tracer, read_trace, use_tracer
from repro.trace.merge import validate_tree

from tests.runtime.test_resume import cut_journal

ROUNDS = 5
SHARDED_CALLS = 10


def _config(**overrides) -> BenchmarkConfig:
    return BenchmarkConfig(**{
        "platforms": ["pythonref", "powergraph"],
        "datasets": ["G22"],
        "algorithms": ["bfs", "pr"],
        "repetitions": 1,
        **overrides,
    })


def _span_count(run_dir) -> int:
    spans, _ = read_trace(run_dir / "trace.jsonl")
    return len(spans)


def _scheduled_span_count(run_dir) -> int:
    """The spans of a run's trace but its uploads: a pool worker uploads
    a graph the first time it runs a job on it, so how many uploads a
    run records follows which worker took which job."""
    spans, _ = read_trace(run_dir / "trace.jsonl")
    assert validate_tree(spans) == []
    return sum(1 for s in spans if s.name != "upload")


def test_rounds_and_sharded_calls_leave_the_default_ring_empty(tmp_path):
    tracer = current_tracer()
    runtime = RuntimeConfig(workers=2)
    counts = []
    for index in range(ROUNDS):
        run_dir = tmp_path / f"round-{index}"
        fresh = execute_matrix(_config(), runtime, run_dir=run_dir)
        assert fresh.failures == []
        assert tracer.finished_spans() == []
        fresh_spans = _scheduled_span_count(run_dir)
        # Run-start, the scheduled batch, then half the job records.
        cut_journal(run_dir, 1 + fresh.dag_size + fresh.dag_size // 2)
        resumed = resume_run(run_dir, runtime)
        assert resumed.restored_jobs >= 1
        assert tracer.finished_spans() == []
        counts.append((fresh_spans, _scheduled_span_count(run_dir)))
    assert counts == [counts[0]] * ROUNDS

    graph = get_dataset("G22").materialize()
    try:
        for _ in range(SHARDED_CALLS):
            run_algorithm(graph, "pr", {"iterations": 5}, partitions=2,
                          transport="pipes")
            assert tracer.finished_spans() == []
    finally:
        undeploy()


@pytest.mark.parametrize("workers", [1, 2], ids=["inline", "pool"])
def test_a_run_exports_every_span_past_the_ring(tmp_path, workers):
    config = _config(platforms=["pythonref"], repetitions=2)  # 4 jobs
    runtime = RuntimeConfig(workers=workers)
    with use_tracer(Tracer()):
        execute_matrix(config, runtime, run_dir=tmp_path / "whole")
    with use_tracer(Tracer(max_spans=20)) as bounded:
        execute_matrix(config, runtime, run_dir=tmp_path / "bounded")
    assert bounded.dropped_spans > 0
    assert _span_count(tmp_path / "bounded") > 20
    assert (_scheduled_span_count(tmp_path / "bounded")
            == _scheduled_span_count(tmp_path / "whole"))
