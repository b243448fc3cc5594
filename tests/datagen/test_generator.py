"""Tests for the Datagen social-network generator."""

import numpy as np
import pytest

from repro.exceptions import GenerationError
from repro.datagen.generator import (
    DatagenConfig,
    FlowVersion,
    generate,
    generate_with_flow,
    solve_community_parameters,
)
from repro.graph.stats import compute_statistics


class TestBasicGeneration:
    def test_vertex_count(self):
        g = generate(300, seed=1)
        assert g.num_vertices == 300

    def test_undirected_no_duplicates(self):
        g = generate(300, seed=1)
        seen = set()
        for s, d in g.edges():
            assert s != d
            key = (min(s, d), max(s, d))
            assert key not in seen
            seen.add(key)

    def test_mean_degree_near_target(self):
        g = generate(600, mean_degree=16, seed=2)
        degrees = g.degrees()
        assert degrees.mean() == pytest.approx(16, rel=0.25)

    def test_deterministic(self):
        a = generate(200, seed=3)
        b = generate(200, seed=3)
        assert sorted(a.edges()) == sorted(b.edges())

    def test_seed_changes_output(self):
        a = generate(200, seed=3)
        b = generate(200, seed=4)
        assert sorted(a.edges()) != sorted(b.edges())

    def test_weighted_option(self):
        g = generate(200, weighted=True, seed=5)
        assert g.is_weighted
        assert np.all(g.edge_weights > 0)

    def test_skewed_degrees(self):
        g = generate(800, mean_degree=14, seed=6)
        degrees = g.degrees()
        assert degrees.max() > 3 * degrees.mean()

    def test_correlated_clustering(self):
        # Datagen graphs are far more clustered than an Erdős–Rényi
        # graph of the same density (the correlation property).
        from repro.graph.generators import erdos_renyi

        g = generate(500, mean_degree=14, seed=7)
        random = erdos_renyi(500, 14 / 499, seed=7)
        cc_datagen = compute_statistics(g).mean_clustering_coefficient
        cc_random = compute_statistics(random).mean_clustering_coefficient
        assert cc_datagen > 2 * cc_random

    def test_mostly_one_big_component(self):
        st = compute_statistics(generate(500, mean_degree=14, seed=8))
        assert st.largest_component_fraction > 0.9


class TestTunableClusteringCoefficient:
    """The paper's headline Datagen extension (§2.5.1, Figure 2)."""

    def test_targets_are_ordered(self):
        ccs = []
        for target in (0.05, 0.15, 0.3):
            g = generate(
                600, mean_degree=16, target_clustering_coefficient=target, seed=9
            )
            ccs.append(compute_statistics(g).mean_clustering_coefficient)
        assert ccs[0] < ccs[1] < ccs[2]

    def test_high_target_reached_approximately(self):
        g = generate(
            600, mean_degree=16, target_clustering_coefficient=0.3, seed=10
        )
        measured = compute_statistics(g).mean_clustering_coefficient
        assert measured == pytest.approx(0.3, rel=0.35)

    def test_low_target_clearly_below_high(self):
        low = generate(600, mean_degree=16, target_clustering_coefficient=0.05, seed=11)
        high = generate(600, mean_degree=16, target_clustering_coefficient=0.3, seed=11)
        cc_low = compute_statistics(low).mean_clustering_coefficient
        cc_high = compute_statistics(high).mean_clustering_coefficient
        assert cc_high > 2 * cc_low

    def test_name_records_target(self):
        g = generate(100, target_clustering_coefficient=0.15, seed=1)
        assert "cc0.15" in g.name

    def test_invalid_target(self):
        with pytest.raises(GenerationError):
            generate(100, target_clustering_coefficient=1.5)

    def test_solver_monotone_in_target(self):
        p_low, _ = solve_community_parameters(0.05, 16, 18.0)
        p_high, _ = solve_community_parameters(0.30, 16, 18.0)
        assert 0 < p_low < p_high <= 1.0

    def test_solver_budget_fraction_bounded(self):
        _, fraction = solve_community_parameters(0.9, 16, 6.0)
        assert fraction <= 0.9


class TestExecutionFlows:
    """Old (v0.2.1) vs new (v0.2.6) flow: identical graphs, different work."""

    def test_flows_produce_identical_graphs(self):
        config = DatagenConfig(num_persons=300, seed=12)
        old, _ = generate_with_flow(config, FlowVersion.V0_2_1)
        new, _ = generate_with_flow(config, FlowVersion.V0_2_6)
        assert np.array_equal(old.edge_src, new.edge_src)
        assert np.array_equal(old.edge_dst, new.edge_dst)

    def test_old_flow_sorts_more_than_one_new_step(self):
        config = DatagenConfig(num_persons=500, seed=5)
        old, old_trace = generate_with_flow(config, FlowVersion.V0_2_1)
        new, new_trace = generate_with_flow(config, FlowVersion.V0_2_6)
        assert old.num_edges == new.num_edges
        assert old_trace.total_records_sorted > new_trace.steps[0].records_sorted

    def test_old_flow_sorts_grow_per_step(self):
        config = DatagenConfig(num_persons=300, seed=12)
        _, trace = generate_with_flow(config, FlowVersion.V0_2_1)
        sorted_counts = [s.records_sorted for s in trace.steps]
        assert sorted_counts == sorted(sorted_counts)
        assert sorted_counts[-1] > sorted_counts[0]

    def test_new_flow_sorts_constant_per_step(self):
        config = DatagenConfig(num_persons=300, seed=12)
        _, trace = generate_with_flow(config, FlowVersion.V0_2_6)
        assert all(s.records_sorted == 300 for s in trace.steps)
        assert trace.merge_records == sum(s.edges_emitted for s in trace.steps)

    def test_three_steps(self):
        _, trace = generate_with_flow(DatagenConfig(num_persons=200, seed=1))
        assert len(trace.steps) == 3
        assert [s.dimension for s in trace.steps] == [
            "university", "interest", "random",
        ]

    def test_total_records_property(self):
        _, trace = generate_with_flow(DatagenConfig(num_persons=200, seed=1))
        assert trace.total_records_sorted == (
            sum(s.records_sorted for s in trace.steps) + trace.merge_records
        )


class TestConfigValidation:
    def test_too_few_persons(self):
        with pytest.raises(GenerationError):
            DatagenConfig(num_persons=1)

    def test_mean_degree_exceeds_persons(self):
        with pytest.raises(GenerationError):
            DatagenConfig(num_persons=10, mean_degree=20)

    def test_small_block_size(self):
        with pytest.raises(GenerationError):
            DatagenConfig(num_persons=100, block_size=2)

    def test_small_community_size(self):
        with pytest.raises(GenerationError):
            DatagenConfig(num_persons=100, community_size=2)


class TestDegreeDistributionChoice:
    """§2.5.1: Datagen supports different degree distributions."""

    def test_zipf_graph_more_skewed(self):
        from repro.graph.stats import degree_skewness

        config_fb = DatagenConfig(num_persons=600, mean_degree=12, seed=13)
        config_zipf = DatagenConfig(
            num_persons=600, mean_degree=12, seed=13,
            degree_distribution="zipf",
        )
        fb, _ = generate_with_flow(config_fb)
        zipf, _ = generate_with_flow(config_zipf)
        assert degree_skewness(zipf.degrees()) > degree_skewness(fb.degrees())

    def test_uniform_graph_nearly_regular(self):
        config = DatagenConfig(
            num_persons=600, mean_degree=12, seed=13,
            degree_distribution="uniform",
        )
        graph, _ = generate_with_flow(config)
        degrees = graph.degrees()
        assert degrees.std() / degrees.mean() < 0.5

    def test_unknown_distribution_rejected(self):
        with pytest.raises(GenerationError, match="unknown degree"):
            DatagenConfig(num_persons=100, degree_distribution="cauchy")
