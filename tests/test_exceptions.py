"""Tests for the exception hierarchy (one catchable base class)."""

import inspect

import pytest

import repro.exceptions as exceptions
from repro.exceptions import (
    ConfigurationError,
    DatasetError,
    GenerationError,
    GraphalyticsError,
    GraphFormatError,
    OutOfMemoryError,
    SLAViolationError,
    UnsupportedAlgorithmError,
    ValidationError,
)


class TestHierarchy:
    def test_every_library_error_derives_from_base(self):
        for name, member in vars(exceptions).items():
            if inspect.isclass(member) and issubclass(member, Exception):
                if member is not GraphalyticsError:
                    assert issubclass(member, GraphalyticsError), name

    def test_base_class_catches_everything(self):
        from repro.graph.graph import Graph

        with pytest.raises(GraphalyticsError):
            Graph.from_edges([(1, 1)])
        with pytest.raises(GraphalyticsError):
            from repro.harness.datasets import get_dataset

            get_dataset("R99")

    def test_unsupported_algorithm_carries_context(self):
        error = UnsupportedAlgorithmError("PGX.D", "lcc")
        assert error.platform == "PGX.D"
        assert error.algorithm == "lcc"
        assert "PGX.D" in str(error)

    def test_out_of_memory_formats_gib(self):
        error = OutOfMemoryError(100 * 2**30, 64 * 2**30, detail="test")
        assert "100.0 GiB" in str(error)
        assert "64.0 GiB" in str(error)
        assert error.demand_bytes == 100 * 2**30

    @pytest.mark.parametrize(
        "cls",
        [GraphFormatError, ValidationError, SLAViolationError,
         ConfigurationError, DatasetError, GenerationError],
    )
    def test_simple_subclasses_construct(self, cls):
        assert isinstance(cls("message"), GraphalyticsError)
