"""``BENCHMARK.json`` and the command agree, and both fit the contract."""

import json
import re

from perf import metrics
from perf.host import REPO_ROOT
from perf.run import contract_line

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _declared():
    with open(REPO_ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        return json.load(handle)


def test_benchmark_json_is_perf_metrics_written_out():
    assert _declared() == metrics.benchmark_json()


def test_shape_fits_the_contract():
    declared = _declared()
    assert set(declared) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert 2 <= len(declared["workloads"]) <= 8
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    assert isinstance(declared["run_seconds"], int)
    assert 1 <= declared["run_seconds"] <= 60
    for workload in declared["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in declared["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in declared["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    setup = [m for m in declared["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": setup[0]["bound"]}
    ]
    assert setup[0]["bound"] == max(m["bound"] for m in declared["end_to_end"])


def test_every_name_is_well_formed_and_used_once():
    declared = _declared()
    names = [w["name"] for w in declared["workloads"]]
    names += [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")


def test_command_names_nothing_outside_paths():
    declared = _declared()
    assert len(declared["command"]) <= 32
    for word in declared["command"]:
        assert not word.startswith("/") and ".." not in word
    for path in declared["paths"]:
        assert (REPO_ROOT / path).is_dir()


def test_contract_line_prints_exactly_the_declared_names():
    report = {
        "correct": True, "attempted": 3, "failed": 0,
        "end_to_end": {name: 1.5 for name, *_ in metrics.END_TO_END},
        "per_layer": {"algorithms.bfs_s": 0.25},
    }
    untraced = contract_line(report, trace=False)
    assert set(untraced) == {"correct", "attempted", "failed", "metrics"}
    assert list(untraced["metrics"]) == [name for name, *_ in metrics.END_TO_END]
    traced = contract_line(report, trace=True)
    assert list(traced["metrics"]) == [name for name, *_ in metrics.PER_LAYER]
    assert traced["metrics"]["algorithms.bfs_s"] == {"value": 0.25, "unit": "s"}
    # A layer the workload never enters did no work and took no time.
    assert traced["metrics"]["service.start_s"]["value"] == 0.0


def test_every_per_layer_name_is_measured_by_some_workload(traced_runs):
    emitted = set()
    for runs in traced_runs.values():
        emitted |= set(runs[0]["per_layer"])
    # Filled in by perf.run, which owns the redirected TMPDIR.
    emitted.add("bench.leaked_tmp_entries")
    assert emitted == {name for name, *_ in metrics.PER_LAYER}
