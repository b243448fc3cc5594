"""Tests for the six platform drivers' roster data and quirks."""

import pytest

from repro.exceptions import ConfigurationError
from repro.graph.generators import erdos_renyi
from repro.harness import anchors
from repro.platforms.cluster import ClusterResources
from repro.platforms.registry import (
    PLATFORMS,
    create_driver,
    get_platform,
    platform_names,
)


class TestRegistry:
    def test_six_platforms_in_table5_order(self):
        assert platform_names() == [
            "giraph", "graphx", "powergraph", "graphmat", "openg", "pgxd",
        ]

    def test_unknown_platform(self):
        with pytest.raises(ConfigurationError, match="unknown platform"):
            get_platform("neo4j")

    def test_unknown_driver(self):
        with pytest.raises(ConfigurationError):
            create_driver("neo4j")

    def test_case_insensitive(self):
        assert get_platform("GiRaPh").name == "Giraph"


class TestTable5Roster:
    @pytest.mark.parametrize(
        "name,type_code,vendor,language,model,version",
        [
            ("giraph", "C, D", "Apache", "Java", "Pregel", "1.1.0"),
            ("graphx", "C, D", "Apache", "Scala", "Spark", "1.6.0"),
            ("powergraph", "C, D", "CMU", "C++", "GAS", "2.2"),
            ("graphmat", "I, D", "Intel", "C++", "SpMV", "Feb '16"),
            ("openg", "I, S", "Georgia Tech", "C++", "Native code", "Feb '16"),
            ("pgxd", "I, D", "Oracle", "C++", "Push-pull", "Feb '16"),
        ],
    )
    def test_roster_entry(self, name, type_code, vendor, language, model, version):
        info = get_platform(name)
        assert info.type_code == type_code
        assert info.vendor == vendor
        assert info.language == language
        assert info.programming_model == model
        assert info.version == version

    def test_roster_matches_the_paper(self):
        for key, paper in anchors.TABLE5.items():
            info = get_platform(key)
            assert (
                info.type_code, info.name, info.vendor, info.language,
                info.programming_model, info.version,
            ) == paper

    def test_three_community_three_industry(self):
        origins = [info.origin for info, _ in PLATFORMS.values()]
        assert origins.count("community") == 3
        assert origins.count("industry") == 3

    def test_only_openg_non_distributed(self):
        for name, (info, _) in PLATFORMS.items():
            assert info.distributed == (name != "openg")


class TestQuirks:
    def test_pgxd_has_no_lcc(self):
        driver = create_driver("pgxd")
        assert not driver.supports("lcc")
        assert driver.supports("bfs")

    def test_graphx_cdlp_crashes(self):
        assert "cdlp" in create_driver("graphx").crash_algorithms

    def test_openg_queue_based_bfs(self):
        assert create_driver("openg").model.queue_based_bfs

    def test_pgxd_wcc_component_penalty(self):
        assert create_driver("pgxd").model.wcc_component_penalty > 0

    def test_all_other_platforms_support_all_algorithms(self):
        for name in ("giraph", "powergraph", "graphmat", "openg"):
            assert len(create_driver(name).supported_algorithms()) == 6


class TestGraphMatBackend:
    """Paper §4.2: manual S/D selection; SSSP requires D."""

    @pytest.fixture
    def handle(self):
        driver = create_driver("graphmat")
        graph = erdos_renyi(40, 0.1, weighted=True, seed=2)
        return driver, driver.upload(graph)

    def test_default_single_machine_uses_s(self, handle):
        driver, h = handle
        result = driver.execute(h, "bfs", {"source_vertex": 0})
        assert result.backend == "S"

    def test_multi_machine_forces_d(self, handle):
        driver, h = handle
        result = driver.execute(
            h, "bfs", {"source_vertex": 0},
            resources=ClusterResources(machines=4),
        )
        assert result.backend == "D"

    def test_sssp_forces_d_even_on_one_machine(self, handle):
        driver, h = handle
        result = driver.execute(h, "sssp", {"source_vertex": 0})
        assert result.backend == "D"

    def test_explicit_backend_preference(self):
        driver = create_driver("graphmat", backend="D")
        graph = erdos_renyi(40, 0.1, seed=2)
        h = driver.upload(graph)
        assert driver.execute(h, "wcc").backend == "D"

    def test_invalid_backend(self):
        with pytest.raises(ValueError):
            create_driver("graphmat", backend="X")

    def test_other_platforms_report_no_backend(self):
        driver = create_driver("giraph")
        h = driver.upload(erdos_renyi(40, 0.1, seed=2))
        assert driver.execute(h, "wcc").backend == ""
