"""Tests for block construction and the measured correlation property."""

import pytest

from repro.exceptions import GenerationError
from tests.datagen.blocks import (
    Block,
    build_blocks,
    correlation_report,
    within_block_fraction,
)
from repro.datagen.generator import generate
from repro.datagen.persons import generate_persons
from repro.graph.graph import Graph


@pytest.fixture(scope="module")
def persons():
    return generate_persons(400, seed=5)


@pytest.fixture(scope="module")
def graph():
    return generate(400, mean_degree=14, seed=5)


class TestBuildBlocks:
    def test_partition_covers_everyone(self, persons):
        blocks = build_blocks(persons, "university", 64)
        ids = [pid for block in blocks for pid in block.person_ids]
        assert sorted(ids) == list(range(400))

    def test_block_sizes(self, persons):
        blocks = build_blocks(persons, "university", 64)
        assert all(len(b) == 64 for b in blocks[:-1])
        assert len(blocks[-1]) == 400 - 64 * (len(blocks) - 1)

    def test_membership(self, persons):
        block = build_blocks(persons, "university", 64)[0]
        assert block.person_ids[0] in block

    def test_invalid_block_size(self, persons):
        with pytest.raises(GenerationError):
            build_blocks(persons, "university", 1)

    def test_unknown_dimension(self, persons):
        with pytest.raises(GenerationError):
            build_blocks(persons, "age", 64)


class TestWithinBlockFraction:
    def test_all_within(self):
        g = Graph.from_edges([(0, 1), (1, 2)], directed=False)
        blocks = [Block(0, (0, 1, 2))]
        assert within_block_fraction(g, blocks) == 1.0

    def test_none_within(self):
        g = Graph.from_edges([(0, 1)], directed=False)
        blocks = [Block(0, (0,)), Block(1, (1,))]
        assert within_block_fraction(g, blocks) == 0.0

    def test_empty_graph(self):
        g = Graph.from_edges([], directed=False, vertices=[0])
        assert within_block_fraction(g, [Block(0, (0,))]) == 0.0


class TestCorrelationProperty:
    """The paper's §2.5.1 requirement, measured."""

    def test_correlated_dimensions_beat_shuffle(self, graph, persons):
        report = correlation_report(graph, persons, block_size=64)
        # Friendships concentrate inside university/interest blocks far
        # beyond what a random partition of equal granularity captures.
        assert report["university"] > 2 * report["shuffled-baseline"]
        assert report["interest"] > 2 * report["shuffled-baseline"]

    def test_random_dimension_is_also_correlated(self, graph, persons):
        # The "random" dimension is a correlation dimension too (10% of
        # the budget is spent along it), so it beats the baseline.
        report = correlation_report(graph, persons, block_size=64)
        assert report["random"] > report["shuffled-baseline"]

    def test_cc_mode_remains_correlated(self, persons):
        graph = generate(
            400, mean_degree=14, target_clustering_coefficient=0.3, seed=5
        )
        report = correlation_report(graph, persons, block_size=64)
        assert report["university"] > 2 * report["shuffled-baseline"]
