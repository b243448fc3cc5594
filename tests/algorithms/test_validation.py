"""Tests for the output-equivalence validation rules."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.algorithms.validation import (
    EpsilonMatchRule,
    EquivalenceMatchRule,
    ExactMatchRule,
    validate_output,
    validation_rule_for,
)


class TestExactMatch:
    def test_equal_passes(self):
        ExactMatchRule().check(np.array([1, 2, 3]), np.array([1, 2, 3]))

    def test_mismatch_raises(self):
        with pytest.raises(ValidationError, match="mismatching"):
            ExactMatchRule().check(np.array([1, 2, 3]), np.array([1, 9, 3]))

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError, match="shape"):
            ExactMatchRule().check(np.array([1, 2]), np.array([1, 2, 3]))

    def test_error_reports_first_index(self):
        with pytest.raises(ValidationError, match="dense index 1"):
            ExactMatchRule().check(np.array([1, 2, 3]), np.array([1, 9, 3]))

    def test_error_prints_plain_numbers(self):
        with pytest.raises(ValidationError) as info:
            ExactMatchRule().check(np.array([1, 2, 3]), np.array([1, 9, 3]))
        assert str(info.value).endswith("index 1: 2 != reference 9")


class TestEpsilonMatch:
    def test_within_tolerance_passes(self):
        EpsilonMatchRule(1e-4).check(
            np.array([1.0, 2.0]), np.array([1.00005, 2.0])
        )

    def test_beyond_tolerance_raises(self):
        with pytest.raises(ValidationError, match="epsilon"):
            EpsilonMatchRule(1e-4).check(np.array([1.0]), np.array([1.01]))

    def test_relative_not_absolute(self):
        # 1e-6 absolute error on a value of 1e-2 is fine at rel 1e-4...
        EpsilonMatchRule(1e-4).check(np.array([0.010001]), np.array([0.01]))
        # ...but the same absolute error on 1e-6 is 100% relative error.
        with pytest.raises(ValidationError):
            EpsilonMatchRule(1e-4).check(np.array([2e-6]), np.array([1e-6]))

    def test_matching_infinities_pass(self):
        inf = float("inf")
        EpsilonMatchRule().check(np.array([1.0, inf]), np.array([1.0, inf]))

    def test_infinity_vs_finite_raises(self):
        with pytest.raises(ValidationError, match="finiteness"):
            EpsilonMatchRule().check(
                np.array([float("inf")]), np.array([42.0])
            )

    def test_zero_equals_zero(self):
        EpsilonMatchRule().check(np.array([0.0]), np.array([0.0]))

    def test_errors_print_plain_numbers(self):
        # The verdict is unchanged (a zero reference admits only 0.0);
        # the message names the values as numbers, not numpy reprs.
        with pytest.raises(ValidationError) as info:
            validate_output("lcc", [1e-18, 0.5], [0.0, 0.5])
        assert str(info.value).endswith("first: 1e-18 vs reference 0.0")
        with pytest.raises(ValidationError) as info:
            EpsilonMatchRule().check(np.array([np.inf]), np.array([42.0]))
        assert str(info.value).endswith("index 0: inf vs reference 42.0")

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError, match="shape"):
            EpsilonMatchRule().check(np.array([1.0]), np.array([1.0, 2.0]))


class TestEquivalenceMatch:
    def test_identical_partition_passes(self):
        EquivalenceMatchRule().check(np.array([0, 0, 5]), np.array([0, 0, 5]))

    def test_relabeled_partition_passes(self):
        # Same partition, different label values: still equivalent.
        EquivalenceMatchRule().check(
            np.array([7, 7, 9]), np.array([0, 0, 5])
        )

    def test_merged_groups_raise(self):
        with pytest.raises(ValidationError):
            EquivalenceMatchRule().check(
                np.array([1, 1, 1]), np.array([0, 0, 5])
            )

    def test_split_groups_raise(self):
        with pytest.raises(ValidationError):
            EquivalenceMatchRule().check(
                np.array([1, 2, 3]), np.array([0, 0, 5])
            )

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError, match="shape"):
            EquivalenceMatchRule().check(np.array([1]), np.array([1, 2]))

    @staticmethod
    def _deep_partition(n=20_000):
        """n vertices in 97 classes, labelled differently on each side."""
        classes = np.arange(n) % 97
        return classes * 1000 + 7, (96 - classes) * 3

    def test_large_relabeled_partition_passes(self):
        actual, reference = self._deep_partition()
        EquivalenceMatchRule().check(actual, reference)

    def test_merged_classes_named_at_deep_index(self):
        # Vertex 17_000 (class 25) moves into the actual class of vertex
        # 0: actual label 7 now meets reference labels 288 and 213.
        actual, reference = self._deep_partition()
        actual[17_000] = 7
        with pytest.raises(ValidationError) as info:
            EquivalenceMatchRule().check(actual, reference)
        assert str(info.value) == (
            "label 7 maps to both 288 and 213 (vertex dense index 17000): "
            "partitions differ"
        )

    def test_split_class_named_at_deep_index(self):
        # Vertex 16_999 (class 24) gets a fresh actual label: reference
        # label 216 now meets actual labels 24007 and 123456.
        actual, reference = self._deep_partition()
        actual[16_999] = 123_456
        with pytest.raises(ValidationError) as info:
            EquivalenceMatchRule().check(actual, reference)
        assert str(info.value) == (
            "reference label 216 split across actual labels 24007 and "
            "123456 (vertex dense index 16999)"
        )

    def test_first_offending_vertex_is_reported(self):
        # Two faults; the earlier vertex wins whichever rule it breaks.
        actual, reference = self._deep_partition()
        actual[18_000] = 7
        actual[15_000] = 999_999
        with pytest.raises(ValidationError, match="dense index 15000"):
            EquivalenceMatchRule().check(actual, reference)


class TestRuleAssignment:
    @pytest.mark.parametrize(
        "algorithm,rule_name",
        [
            ("bfs", "exact"),
            ("pr", "epsilon"),
            ("wcc", "equivalence"),
            ("cdlp", "equivalence"),
            ("lcc", "epsilon"),
            ("sssp", "epsilon"),
        ],
    )
    def test_paper_rule_mapping(self, algorithm, rule_name):
        assert validation_rule_for(algorithm).name == rule_name

    def test_unknown_algorithm(self):
        with pytest.raises(ValidationError, match="no validation rule"):
            validation_rule_for("pagerank2000")

    def test_validate_output_dispatch(self):
        validate_output("bfs", np.array([0, 1]), np.array([0, 1]))
        with pytest.raises(ValidationError):
            validate_output("bfs", np.array([0, 1]), np.array([0, 2]))


def test_every_registered_algorithm_is_validated_and_wired():
    # Paper §2.2: the benchmark is the closed set of registered
    # algorithms, each output-validated and part of the workload.
    from repro.algorithms.registry import ALGORITHMS
    from repro.algorithms.validation import VALIDATION_RULES
    from repro.harness.datasets import get_dataset
    from repro.harness.experiments import EXPERIMENTS

    wired = {a for exp in EXPERIMENTS.values() for a in exp.algorithms}
    assert set(ALGORITHMS) <= set(VALIDATION_RULES) & wired
    for acronym in ALGORITHMS:
        get_dataset("D300").algorithm_parameters(acronym)
