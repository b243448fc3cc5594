"""Tests for the automatic tuning policy (baseline-resource finder)."""

import pytest

from repro.exceptions import ConfigurationError
from repro.harness.datasets import get_dataset
from repro.platforms.registry import EXTRA_PLATFORMS, PLATFORMS, create_driver
from repro.platforms.tuning import capacity_frontier, recommend_resources


def profile(dataset_id):
    return get_dataset(dataset_id).profile


class TestPaperBaselines:
    """The §4.4 baselines, recovered by the policy instead of trial runs."""

    def test_graphx_bfs_needs_two_machines(self):
        decision = recommend_resources(
            create_driver("graphx"), "bfs", profile("D1000")
        )
        assert decision.feasible
        assert decision.resources.machines == 2

    def test_graphx_pr_needs_four_machines(self):
        decision = recommend_resources(
            create_driver("graphx"), "pr", profile("D1000")
        )
        assert decision.resources.machines == 4

    def test_pgxd_needs_two_machines(self):
        decision = recommend_resources(
            create_driver("pgxd"), "bfs", profile("D1000")
        )
        assert decision.resources.machines == 2

    def test_powergraph_runs_on_one(self):
        decision = recommend_resources(
            create_driver("powergraph"), "bfs", profile("D1000")
        )
        assert decision.resources.machines == 1

    def test_giraph_pr_skips_the_sla_breaking_two_machine_config(self):
        # Giraph PR on D1000 works on 1 machine, breaks the SLA on 2:
        # the policy starts at 1 (fine) — but if 1 is excluded it must
        # jump to 4, not 2.
        decision = recommend_resources(
            create_driver("giraph"), "pr", profile("D1000"),
            machine_options=(2, 4, 8, 16),
        )
        assert decision.resources.machines == 4


class TestCapabilityAwareness:
    def test_openg_never_distributed(self):
        decision = recommend_resources(
            create_driver("openg"), "bfs", profile("R5"),
            machine_options=(1, 2, 4),
        )
        # R5 exceeds one machine (Table 10) and OpenG cannot scale out.
        assert not decision.feasible

    def test_openg_with_no_single_machine_option(self):
        decision = recommend_resources(
            create_driver("openg"), "bfs", profile("R1"),
            machine_options=(2, 4),
        )
        assert not decision.feasible
        assert "single-machine" in decision.reason

    def test_pgxd_lcc_unsupported(self):
        decision = recommend_resources(
            create_driver("pgxd"), "lcc", profile("R4")
        )
        assert not decision.feasible
        assert "no LCC implementation" in decision.reason

    def test_graphx_cdlp_crashes(self):
        decision = recommend_resources(
            create_driver("graphx"), "cdlp", profile("R4")
        )
        assert not decision.feasible
        assert "crashes" in decision.reason

    def test_empty_options_rejected(self):
        with pytest.raises(ConfigurationError):
            recommend_resources(
                create_driver("giraph"), "bfs", profile("R1"),
                machine_options=(),
            )


class TestDecisionDetails:
    def test_predictions_populated(self):
        decision = recommend_resources(
            create_driver("graphmat"), "bfs", profile("D300")
        )
        assert decision.feasible
        assert decision.predicted_tproc > 0
        assert decision.predicted_makespan > decision.predicted_tproc
        assert 0 < decision.predicted_memory_fraction <= 1
        assert "fits memory" in decision.reason


class TestCapacityFrontier:
    def test_frontier_shape_for_pgxd(self):
        frontier = capacity_frontier(
            create_driver("pgxd"), "bfs", profile("D1000")
        )
        by_machines = dict(frontier)
        assert by_machines[1] is None          # OOM on one machine
        assert by_machines[2] is not None
        assert by_machines[16] < by_machines[2]

    def test_single_machine_platform_frontier(self):
        frontier = capacity_frontier(
            create_driver("openg"), "bfs", profile("D300"),
            machine_options=(1, 2, 4),
        )
        by_machines = dict(frontier)
        assert by_machines[1] is not None
        assert by_machines[2] is None and by_machines[4] is None


#: Every registered platform that says it can take several machines.
DISTRIBUTED = [
    name
    for registry in (PLATFORMS, EXTRA_PLATFORMS)
    for name, (info, _) in registry.items()
    if info.distributed
]


@pytest.mark.parametrize("platform", DISTRIBUTED)
def test_distributed_roster_entries_model_two_machines(platform, capsys):
    """A roster entry that says distributed has a model that does too:
    estimating and planning two machines must not raise."""
    from repro.cli import main

    assert "pythonref" in DISTRIBUTED
    assert main([
        "estimate", platform, "bfs", "--vertices", "1e6", "--edges", "1e7",
        "--machines", "2",
    ]) == 0
    assert "modeled Tproc" in capsys.readouterr().out
    frontier = capacity_frontier(
        create_driver(platform), "bfs", profile("R1"), machine_options=(1, 2)
    )
    assert [machines for machines, _ in frontier] == [1, 2]
