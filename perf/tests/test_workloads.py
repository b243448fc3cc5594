"""The workloads do what BENCHMARK.json says they do."""

import pytest

from perf.aa import TIMING_DEPENDENT_COUNTS
from perf.metrics import PER_LAYER, WORKLOADS
from perf.workloads.matrix import cut_journal


@pytest.mark.parametrize("workers", [1, 2])
def test_cut_journal_leaves_a_resumable_half(tmp_path, workers):
    from repro.harness.config import BenchmarkConfig
    from repro.runtime import RunJournal, RuntimeConfig, execute_matrix, resume_run

    config = BenchmarkConfig(
        platforms=["powergraph", "graphmat"], datasets=["R1", "G22"],
        algorithms=["bfs", "pr"], repetitions=2,
    )
    runtime = RuntimeConfig(workers=workers)
    run_dir = tmp_path / "run"
    fresh = execute_matrix(config, runtime, run_dir=run_dir)
    assert RunJournal.load(run_dir).complete
    lines = RunJournal.journal_path(run_dir).read_bytes().count(b"\n")

    kept = cut_journal(run_dir, fresh.dag_size)
    assert 1 + fresh.dag_size < kept < lines
    assert not (run_dir / "results.json").exists()
    assert not RunJournal.load(run_dir).complete

    resumed = resume_run(run_dir, runtime)
    assert 1 <= resumed.restored_jobs < fresh.dag_size
    assert resumed.lost_jobs == 0
    assert RunJournal.load(run_dir).complete
    assert resumed.database.canonical_json() == fresh.database.canonical_json()


@pytest.mark.parametrize("name", [name for name, _ in WORKLOADS])
def test_outputs_are_correct_and_nothing_fails(traced_runs, name):
    for report in traced_runs[name]:
        assert report["correct"] is True
        assert report["failed"] == 0 and report["attempted"] >= 1


@pytest.mark.parametrize("name", [name for name, _ in WORKLOADS])
def test_counts_repeat_across_runs_and_rounds(traced_runs, name):
    first, second = (report["per_layer"] for report in traced_runs[name])
    counts = [
        metric for metric, unit, _ in PER_LAYER
        if unit == "count" and metric not in TIMING_DEPENDENT_COUNTS
    ]
    assert {m: first.get(m) for m in counts} == {m: second.get(m) for m in counts}
    assert first["bench.traced_rounds"] == 1
    assert traced_runs[name][0]["attempted"] == traced_runs[name][1]["attempted"]


def test_counts_are_identical_in_every_round_of_a_run(tmp_path):
    from perf.worker import run_workload

    report = run_workload("matrix", seed=1, rounds=4, trace=True, scratch=tmp_path)
    repeats = report["counts_repeat"]
    for metric in TIMING_DEPENDENT_COUNTS:
        repeats.pop(metric, None)
    assert repeats and all(repeats.values()), repeats


def test_each_workload_stresses_the_layer_it_names(traced_runs):
    kernels = traced_runs["kernels"][0]["per_layer"]
    assert kernels["algorithms.self_share"] >= 0.90
    assert kernels.get("engines.partitioned.self_share", 0.0) == 0.0
    assert kernels.get("runtime.self_share", 0.0) == 0.0

    sharded = traced_runs["sharded"][0]["per_layer"]
    assert sharded["engines.partitioned.self_share"] >= 0.90
    assert sharded.get("algorithms.self_share", 0.0) == 0.0

    matrix = traced_runs["matrix"][0]["per_layer"]
    assert matrix["platforms.tproc_share"] <= 0.5
    assert matrix["runtime.self_share"] >= 0.5

    service = traced_runs["service"][0]["per_layer"]
    assert service["service.tproc_share"] <= 0.30
    assert service["service.self_share"] + service["resultsdb.self_share"] >= 0.5
    assert service["service.relaunches"] == 0


def test_the_trace_has_one_root_span_per_traced_round(traced_runs):
    import json

    from perf.host import OUT_DIR

    with open(OUT_DIR / "kernels.trace.jsonl", "r", encoding="utf-8") as handle:
        spans = [json.loads(line) for line in handle]
    roots = [s for s in spans if s["name"] == "bench.round"]
    assert len(roots) == 1 and roots[0]["parent"] is None
    inside = [s for s in spans if s["parent"] == roots[0]["id"]]
    assert {s["round"] for s in inside} == {roots[0]["round"]}
    assert {"algorithms.cdlp", "algorithms.validate"} <= {s["name"] for s in inside}
    setup = [s for s in spans if s["round"] is None]
    assert "datagen.graph500" in {s["name"] for s in setup}
