"""Matrix expansion and the job DAG: ordering, dependencies, retries."""

import pytest

from repro.exceptions import ValidationError
from repro.harness.config import BenchmarkConfig
from repro.runtime.jobs import JobKind
from repro.runtime.scheduler import JobGraph, can_run_combo, expand_matrix


def _config(**overrides):
    base = dict(
        platforms=["powergraph", "graphmat"],
        datasets=["R1", "R4"],
        algorithms=["bfs", "sssp"],
        repetitions=2,
    )
    base.update(overrides)
    return BenchmarkConfig(**base)


class TestExpansion:
    def test_execute_jobs_numbered_in_serial_run_order(self):
        specs = expand_matrix(_config())
        executes = [s for s in specs if s.kind == JobKind.EXECUTE]
        visited = [
            (s.platform, s.dataset, s.algorithm, s.run_index) for s in executes
        ]
        # Exactly the order BenchmarkRunner.run loops: platform ->
        # dataset -> algorithm -> repetition (sssp skipped on the
        # unweighted R1).
        expected = []
        for platform in ("powergraph", "graphmat"):
            for dataset in ("R1", "R4"):
                for algorithm in ("bfs", "sssp"):
                    if algorithm == "sssp" and dataset == "R1":
                        continue
                    for rep in (0, 1):
                        expected.append((platform, dataset, algorithm, rep))
        assert visited == expected
        assert [s.seq for s in executes] == sorted(s.seq for s in executes)

    def test_materialize_and_reference_jobs_deduplicated(self):
        specs = expand_matrix(_config())
        kinds = {}
        for spec in specs:
            kinds.setdefault(spec.kind, []).append(spec)
        assert {s.dataset for s in kinds[JobKind.MATERIALIZE]} == {"R1", "R4"}
        assert len(kinds[JobKind.MATERIALIZE]) == 2
        refs = {(s.dataset, s.algorithm) for s in kinds[JobKind.REFERENCE]}
        assert refs == {("R1", "bfs"), ("R4", "bfs"), ("R4", "sssp")}

    def test_no_reference_jobs_without_validation(self):
        specs = expand_matrix(_config(validate_outputs=False))
        assert not any(s.kind == JobKind.REFERENCE for s in specs)

    def test_impossible_combo_raises_unless_skipped(self):
        with pytest.raises(ValidationError):
            expand_matrix(_config(skip_impossible=False))

    def test_can_run_combo_mirrors_runner_rules(self):
        assert can_run_combo("powergraph", "R4", "sssp")
        assert not can_run_combo("powergraph", "R1", "sssp")  # unweighted
        assert not can_run_combo("openg", "R1", "bfs", machines=4)
        assert can_run_combo("powergraph", "R1", "bfs", machines=4)


class TestJobGraphDependencies:
    def test_roots_are_materializations(self):
        graph = JobGraph(expand_matrix(_config()))
        ready = [n.spec.kind for n in graph.ready_jobs(now=0.0)]
        assert ready and set(ready) == {JobKind.MATERIALIZE}

    def test_completion_promotes_dependents(self):
        graph = JobGraph(expand_matrix(_config()))
        while graph.unfinished:
            ready = list(graph.ready_jobs(now=0.0))
            assert ready, "DAG stalled with unfinished jobs"
            for node in ready:
                deps = node.deps
                for dep in deps:
                    assert graph.nodes[dep].state == "done"
                graph.mark_running(node.seq, worker=-1)
                graph.complete(node.seq)
        assert graph.failures == []


class TestRetryPolicy:
    def test_retry_schedules_backoff_then_fails(self):
        config = _config(
            platforms=["powergraph"], datasets=["R1"], algorithms=["bfs"]
        )
        graph = JobGraph(expand_matrix(config), max_attempts=3,
                                     backoff_base=0.5)
        node = next(graph.ready_jobs(now=0.0))
        graph.mark_running(node.seq, worker=0)
        assert graph.record_attempt(
            node.seq, now=10.0, worker=0, kind="exception",
            detail="boom", elapsed=0.1,
        ) is None
        assert node.state == "ready"
        assert node.eligible_at == pytest.approx(10.5)    # base * 2^0
        assert not list(graph.ready_jobs(now=10.0))       # backoff gates
        assert next(graph.ready_jobs(now=10.5)).seq == node.seq

        graph.mark_running(node.seq, worker=1)
        assert graph.record_attempt(
            node.seq, now=20.0, worker=1, kind="timeout",
            detail="slow", elapsed=1.0,
        ) is None
        assert node.eligible_at == pytest.approx(21.0)    # base * 2^1

        graph.mark_running(node.seq, worker=0)
        failure = graph.record_attempt(
            node.seq, now=30.0, worker=0, kind="crash",
            detail="dead", elapsed=0.0,
        )
        assert failure is not None
        assert failure.final_kind == "crash"
        assert failure.retries == 2
        assert [a.kind for a in failure.attempts] == [
            "exception", "timeout", "crash",
        ]

    def test_dependency_failure_cascades_to_all_dependents(self):
        config = _config(datasets=["R1"], algorithms=["bfs"])
        graph = JobGraph(expand_matrix(config), max_attempts=1)
        root = next(graph.ready_jobs(now=0.0))
        assert root.spec.kind == JobKind.MATERIALIZE
        graph.mark_running(root.seq, worker=0)
        graph.record_attempt(
            root.seq, now=0.0, worker=0, kind="exception",
            detail="disk full", elapsed=0.0,
        )
        # materialize + reference + 2 platforms x 2 reps all failed
        assert len(graph.failures) == 6
        dependents = [f for f in graph.failures if f.spec.seq != root.seq]
        assert all(f.final_kind == "dependency" for f in dependents)
        assert graph.unfinished == 0
