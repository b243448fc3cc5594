"""Tests for the real-world dataset replica models."""

import numpy as np
import pytest

from repro.exceptions import GenerationError
from repro.datagen.realworld import REPLICA_PROFILES, synthetic_replica
from repro.graph.stats import compute_statistics, degree_skewness


class TestProfiles:
    def test_known_profiles(self):
        assert set(REPLICA_PROFILES) == {"talk", "citation", "coplay", "social"}

    def test_unknown_profile(self):
        with pytest.raises(GenerationError, match="unknown replica profile"):
            synthetic_replica("webgraph", 100, 200)

    def test_invalid_sizes(self):
        with pytest.raises(GenerationError):
            synthetic_replica("talk", 1, 1)

    @pytest.mark.parametrize(
        "profile, directed, fixed",
        [("talk", False, "directed"), ("citation", False, "directed"),
         ("coplay", True, "undirected")],
    )
    def test_contradicting_a_fixed_orientation_is_an_error(self, profile, directed, fixed):
        with pytest.raises(GenerationError, match=f"'{profile}' is always {fixed}$"):
            synthetic_replica(profile, 300, 1500, directed=directed)

    @pytest.mark.parametrize(
        "profile, directed",
        [("talk", True), ("citation", True), ("coplay", False),
         ("social", True), ("social", False)],
    )
    def test_a_matching_or_absent_orientation_is_accepted(self, profile, directed):
        assert synthetic_replica(profile, 300, 1500, directed=directed).directed == directed
        assert synthetic_replica(profile, 300, 1500).directed == (profile in ("talk", "citation"))


class TestTalk:
    def test_directed_and_sized(self):
        g = synthetic_replica("talk", 500, 1200, seed=1)
        assert g.directed
        assert g.num_vertices == 500
        assert g.num_edges == 1200

    def test_in_degree_highly_skewed(self):
        g = synthetic_replica("talk", 500, 2500, seed=2)
        assert degree_skewness(g.in_degrees()) > 1.5

    def test_deterministic(self):
        a = synthetic_replica("talk", 300, 800, seed=3)
        b = synthetic_replica("talk", 300, 800, seed=3)
        assert sorted(a.edges()) == sorted(b.edges())


class TestCitation:
    def test_acyclic(self):
        # Every citation points to a strictly lower id, so the graph is a
        # DAG by construction.
        g = synthetic_replica("citation", 400, 1500, seed=4)
        assert g.directed
        assert all(s > d for s, d in g.edges())

    def test_no_duplicate_citations(self):
        g = synthetic_replica("citation", 400, 1500, seed=4)
        pairs = list(g.edges())
        assert len(pairs) == len(set(pairs))


class TestCoplay:
    def test_undirected_with_weights(self):
        g = synthetic_replica("coplay", 300, 4000, weighted=True, seed=5)
        assert not g.directed
        assert g.is_weighted
        assert g.num_edges == 4000

    def test_community_structure(self):
        # Matches draw nearby players, so clustering is far above the
        # density baseline.
        g = synthetic_replica("coplay", 300, 4000, seed=6)
        st = compute_statistics(g)
        assert st.mean_clustering_coefficient > 3 * st.density

    def test_dense_target_achievable(self):
        g = synthetic_replica("coplay", 100, 2000, seed=7)
        assert g.num_edges == 2000


class TestSocial:
    def test_undirected_by_default(self):
        g = synthetic_replica("social", 600, 5000, seed=8)
        assert not g.directed

    def test_directed_variant(self):
        g = synthetic_replica("social", 600, 5000, directed=True, seed=8)
        assert g.directed

    def test_power_law(self):
        g = synthetic_replica("social", 600, 8000, seed=9)
        assert degree_skewness(g.degrees()) > 1.5

    def test_named(self):
        g = synthetic_replica("social", 200, 900, seed=1, name="mini-friendster")
        assert g.name == "mini-friendster"
