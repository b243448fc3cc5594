"""Tests for the dataset catalog (Tables 3 and 4)."""

import pytest

from repro.exceptions import DatasetError
from repro.harness import anchors
from repro.harness.datasets import (
    DATASETS,
    REAL_DATASETS,
    SYNTHETIC_DATASETS,
    dataset_ids,
    datasets_up_to_class,
    from_recipe,
    get_dataset,
)


class TestCatalog:
    def test_six_real_ten_synthetic(self):
        assert len(REAL_DATASETS) == 6
        assert len(SYNTHETIC_DATASETS) == 10
        assert len(DATASETS) == 16

    @pytest.mark.parametrize(
        "dataset_id,name,scale,tshirt",
        [
            ("R1", "wiki-talk", 6.9, "2XS"),
            ("R2", "kgs", 7.3, "XS"),
            ("R3", "cit-patents", 7.3, "XS"),
            ("R4", "dota-league", 7.7, "S"),
            ("R5", "com-friendster", 9.3, "XL"),
            ("R6", "twitter_mpi", 9.3, "XL"),
            ("D100", "datagen-100", 8.0, "M"),
            ("D300", "datagen-300", 8.5, "L"),
            ("D1000", "datagen-1000", 9.0, "XL"),
            ("G22", "graph500-22", 7.8, "S"),
            ("G23", "graph500-23", 8.1, "M"),
            ("G24", "graph500-24", 8.4, "M"),
            ("G25", "graph500-25", 8.7, "L"),
            ("G26", "graph500-26", 9.0, "XL"),
        ],
    )
    def test_paper_catalog_rows(self, dataset_id, name, scale, tshirt):
        ds = get_dataset(dataset_id)
        assert ds.name == name
        assert ds.profile.scale == scale
        assert ds.tshirt == tshirt

    @pytest.mark.parametrize(
        "dataset_id,paper", [*anchors.TABLE3.items(), *anchors.TABLE4.items()]
    )
    def test_catalog_matches_the_paper(self, dataset_id, paper):
        name, vertices, edges, scale, *domain = paper
        ds = get_dataset(dataset_id)
        assert ds.profile.name == name
        assert ds.profile.num_vertices == int(round(vertices))
        assert ds.profile.num_edges == int(round(edges))
        assert ds.profile.scale == scale
        assert all(d in ds.domain for d in domain)

    def test_labels(self):
        assert get_dataset("R4").label == "R4(S)"
        assert get_dataset("D300").label == "D300(L)"

    def test_lookup_by_name(self):
        assert get_dataset("dota-league").dataset_id == "R4"

    def test_unknown_dataset(self):
        with pytest.raises(DatasetError, match="unknown dataset"):
            get_dataset("R99")

    def test_directedness(self):
        for dataset_id in ("R1", "R3", "R6"):
            assert get_dataset(dataset_id).profile.directed
        for dataset_id in ("R2", "R4", "R5", "D300", "G22"):
            assert not get_dataset(dataset_id).profile.directed

    def test_weighted_datasets(self):
        # SSSP needs weights: dota-league and the Datagen graphs have them.
        assert get_dataset("R4").weighted
        assert get_dataset("D300").weighted
        assert not get_dataset("G22").weighted

    def test_kgs_bfs_coverage_is_ten_percent(self):
        # §4.1: "The BFS on this graph covers approximately 10% of the
        # vertices in the graph."
        assert get_dataset("R2").profile.bfs_coverage == pytest.approx(0.10)

    def test_graph500_more_skewed_than_datagen(self):
        assert (
            get_dataset("G26").profile.memory_skew
            > get_dataset("D1000").profile.memory_skew
        )

    def test_dataset_ids_order(self):
        ids = dataset_ids()
        assert ids[:6] == ["R1", "R2", "R3", "R4", "R5", "R6"]
        assert ids[-1] == "G26"


class TestUpToClass:
    def test_up_to_l_excludes_xl(self):
        ids = {ds.dataset_id for ds in datasets_up_to_class("L")}
        assert "D300" in ids and "G25" in ids
        assert "D1000" not in ids and "R5" not in ids

    def test_up_to_2xs(self):
        ids = {ds.dataset_id for ds in datasets_up_to_class("2XS")}
        assert ids == {"R1"}

    def test_up_to_2xl_is_everything(self):
        assert len(datasets_up_to_class("2XL")) == len(DATASETS)


class TestMaterialization:
    def test_miniature_matches_profile_shape(self):
        for dataset_id in ("R1", "R4", "R5", "D100", "D300", "G22"):
            ds = get_dataset(dataset_id)
            g = ds.materialize()
            assert g.num_edges > 0
            assert g.directed == ds.profile.directed
            assert g.is_weighted == ds.profile.weighted

    def test_largest_graph500_miniature_is_substantial(self):
        assert get_dataset("G26").materializer(7).num_edges > 50_000

    def test_materialization_cached(self):
        ds = get_dataset("G22")
        assert ds.materialize() is ds.materialize()

    def test_different_seeds_differ(self):
        ds = get_dataset("D100")
        a, b = ds.materialize(0), ds.materialize(1)
        assert sorted(a.edges()) != sorted(b.edges())

    def test_cc_variants_ordered(self):
        # D100' targets cc 0.05, D100'' targets cc 0.15: the measured
        # miniature clustering must be ordered accordingly.
        from repro.graph.stats import compute_statistics

        low = compute_statistics(get_dataset("D100'").materialize())
        high = compute_statistics(get_dataset("D100\"").materialize())
        assert low.mean_clustering_coefficient < high.mean_clustering_coefficient


class TestRecipe:
    def test_recipe_is_what_the_generator_is_called_with(self):
        calls = []

        def build(**arguments):
            calls.append(arguments)

        materializer = from_recipe("probe", build, size=3, weighted=True)
        materializer(7)
        assert calls == [{"size": 3, "weighted": True, "seed": 7}]
        assert materializer.recipe == {
            "generator": "probe", "size": 3, "weighted": True,
        }

    def test_catalog_recipes_name_their_generator_arguments(self):
        assert get_dataset("G24").recipe == {
            "generator": "graph500", "scale": 11, "edgefactor": 15,
        }
        assert get_dataset("R4").recipe["num_edges"] == 12000
        assert get_dataset("D100'").recipe["target_clustering_coefficient"] == 0.05

    def test_opaque_materializer_is_rejected(self):
        import dataclasses

        with pytest.raises(DatasetError, match="from_recipe"):
            dataclasses.replace(
                get_dataset("R1"), materializer=lambda seed: None
            )


class TestAlgorithmParameters:
    def test_bfs_source_present_in_miniature(self):
        for dataset_id in ("R1", "D300", "G23"):
            ds = get_dataset(dataset_id)
            params = ds.algorithm_parameters("bfs")
            assert ds.materialize().has_vertex(params["source_vertex"])

    def test_source_is_max_degree_vertex(self):
        import numpy as np

        ds = get_dataset("G22")
        g = ds.materialize()
        source = ds.algorithm_parameters("bfs")["source_vertex"]
        assert g.degrees()[g.index_of(source)] == g.degrees().max()

    def test_pr_iterations(self):
        assert get_dataset("D300").algorithm_parameters("pr") == {"iterations": 30}

    def test_cdlp_iterations(self):
        assert get_dataset("D300").algorithm_parameters("cdlp") == {
            "iterations": 10
        }

    def test_wcc_no_parameters(self):
        assert get_dataset("D300").algorithm_parameters("wcc") == {}
