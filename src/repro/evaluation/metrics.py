"""Accuracy and runtime metrics used by the experiments.

The paper's accuracy measure (Section 7.2.2): because no efficient exact method
exists, the accuracy of an algorithm is reported as the *relative ratio* — per query,
the weight of the algorithm's region divided by the weight of TGEN's region for the
same query, averaged over the query set. On small instances our tests additionally
compute ratios against the exact oracle.
"""

from __future__ import annotations

from typing import Sequence


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; 0.0 for an empty sequence (keeps report tables total)."""
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def relative_ratio(candidate_weight: float, reference_weight: float) -> float:
    """Return ``candidate / reference`` with the conventions the paper uses.

    When the reference found nothing (weight 0), the ratio is defined as 1.0 if the
    candidate also found nothing and as 1.0 capped otherwise (the candidate cannot be
    *worse* than an empty reference); ratios are not capped at 1.0 in general because
    a heuristic can occasionally beat the reference heuristic.
    """
    if reference_weight <= 0:
        return 1.0
    return candidate_weight / reference_weight


def average_relative_ratio(
    candidate_weights: Sequence[float], reference_weights: Sequence[float]
) -> float:
    """Average the per-query relative ratios (the paper's reported measure)."""
    if len(candidate_weights) != len(reference_weights):
        raise ValueError("weight sequences must have equal length")
    ratios = [
        relative_ratio(candidate, reference)
        for candidate, reference in zip(candidate_weights, reference_weights)
    ]
    return mean(ratios)
