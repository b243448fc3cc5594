"""Output validation: equivalence to the reference implementation.

Paper §2.2.3: "Correctness of a platform implementation is defined as
output equivalence to the provided reference implementation." Following
the official Graphalytics validation rules, each algorithm uses one of
three equivalence notions:

* **exact match** — identical values per vertex (BFS);
* **epsilon match** — values equal within a relative tolerance, for
  floating-point outputs (PR, LCC, SSSP); infinities must match exactly;
* **equivalence match** — outputs induce the same partition of the vertex
  set, regardless of the label values chosen (WCC, CDLP).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError

__all__ = [
    "ExactMatchRule",
    "EpsilonMatchRule",
    "EquivalenceMatchRule",
    "VALIDATION_RULES",
    "validation_rule_for",
    "validate_output",
]


class ExactMatchRule:
    """Vertex values must be identical."""

    name = "exact"

    def check(self, actual: np.ndarray, reference: np.ndarray) -> None:
        actual = np.asarray(actual)
        reference = np.asarray(reference)
        if actual.shape != reference.shape:
            raise ValidationError(
                f"shape mismatch: {actual.shape} vs reference {reference.shape}"
            )
        mismatch = np.nonzero(actual != reference)[0]
        if len(mismatch):
            i = int(mismatch[0])
            raise ValidationError(
                f"{len(mismatch)} mismatching vertices; first at dense index "
                f"{i}: {actual[i].item()!r} != reference {reference[i].item()!r}"
            )


class EpsilonMatchRule:
    """Floating-point values must agree within a relative tolerance.

    ``|a - r| <= epsilon * max(|a|, |r|)``; non-finite values (infinity
    for unreachable SSSP vertices) must match exactly.
    """

    name = "epsilon"

    def __init__(self, epsilon: float = 1e-4):
        self.epsilon = float(epsilon)

    def check(self, actual: np.ndarray, reference: np.ndarray) -> None:
        actual = np.asarray(actual, dtype=np.float64)
        reference = np.asarray(reference, dtype=np.float64)
        if actual.shape != reference.shape:
            raise ValidationError(
                f"shape mismatch: {actual.shape} vs reference {reference.shape}"
            )
        finite_a = np.isfinite(actual)
        finite_r = np.isfinite(reference)
        if not np.array_equal(finite_a, finite_r):
            bad = int(np.nonzero(finite_a != finite_r)[0][0])
            raise ValidationError(
                f"finiteness mismatch at dense index {bad}: "
                f"{actual[bad].item()!r} vs reference {reference[bad].item()!r}"
            )
        nonfinite = ~finite_a
        if np.any(nonfinite) and not np.array_equal(
            actual[nonfinite], reference[nonfinite]
        ):
            raise ValidationError("non-finite values disagree")
        a = actual[finite_a]
        r = reference[finite_r]
        tolerance = self.epsilon * np.maximum(np.abs(a), np.abs(r))
        bad = np.nonzero(np.abs(a - r) > tolerance)[0]
        if len(bad):
            i = int(bad[0])
            raise ValidationError(
                f"{len(bad)} vertices beyond epsilon={self.epsilon}; first: "
                f"{a[i].item()!r} vs reference {r[i].item()!r}"
            )


class EquivalenceMatchRule:
    """Outputs must induce the same partition of the vertex set.

    Two labelings induce the same partition iff each actual label meets
    one reference label and each reference label one actual label: then
    there are as many distinct actual labels as reference labels as
    (actual, reference) pairs. Vertex by vertex, that is: every vertex
    carries the reference label of the first vertex sharing its actual
    label, and the actual label of the first vertex sharing its reference
    label. The first vertex where either fails is the one reported.
    """

    name = "equivalence"

    def check(self, actual: np.ndarray, reference: np.ndarray) -> None:
        actual = np.asarray(actual)
        reference = np.asarray(reference)
        if actual.shape != reference.shape:
            raise ValidationError(
                f"shape mismatch: {actual.shape} vs reference {reference.shape}"
            )
        _, first_a, class_a = np.unique(actual, return_index=True, return_inverse=True)
        _, first_r, class_r = np.unique(reference, return_index=True, return_inverse=True)
        # Per vertex: the reference label the first vertex of its actual
        # class carries, and the actual label of its reference class.
        forward = reference[first_a[class_a]]
        backward = actual[first_r[class_r]]
        split = (forward != reference) | (backward != actual)
        if not split.any():
            return
        i = int(split.argmax())
        a, r = actual[i].item(), reference[i].item()
        if forward[i] != r:
            raise ValidationError(
                f"label {a!r} maps to both {forward[i].item()!r} and {r!r} "
                f"(vertex dense index {i}): partitions differ"
            )
        raise ValidationError(
            f"reference label {r!r} split across actual labels "
            f"{backward[i].item()!r} and {a!r} (vertex dense index {i})"
        )


#: Algorithm acronym -> validation rule instance, one per registered
#: algorithm.
VALIDATION_RULES = {
    "bfs": ExactMatchRule(),
    "pr": EpsilonMatchRule(),
    "wcc": EquivalenceMatchRule(),
    "cdlp": EquivalenceMatchRule(),
    "lcc": EpsilonMatchRule(),
    "sssp": EpsilonMatchRule(),
}

_RULES = VALIDATION_RULES


def validation_rule_for(acronym: str):
    """The validation rule instance used for an algorithm."""
    try:
        return _RULES[acronym.lower()]
    except KeyError:
        raise ValidationError(f"no validation rule for algorithm {acronym!r}") from None


def validate_output(acronym: str, actual: np.ndarray, reference: np.ndarray) -> None:
    """Raise :class:`ValidationError` unless actual matches the reference."""
    validation_rule_for(acronym).check(actual, reference)
