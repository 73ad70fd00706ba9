"""Top-k LCMSR queries (paper Section 6.2).

Every solver in this library exposes ``solve_topk``; this module adds the small amount
of shared plumbing: the ``k`` every solver resolves the same way, and helpers for
comparing top-k result lists (used by the evaluation harness and tests). The
per-algorithm behaviour matches the paper:

* **APP** — after the candidate tree is found, the findOptTree tuple arrays of all its
  nodes are ranked and the best k distinct regions returned.
* **TGEN** — the tuples of all node arrays generated during the traversal are ranked.
* **Greedy** — the greedy expansion is repeated k times, each time seeding from the
  heaviest node not contained in any earlier answer.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.instance import ProblemInstance
from repro.core.result import RegionResult, TopKResult
from repro.exceptions import SolverError


def resolve_k(instance: ProblemInstance, k: Optional[int]) -> int:
    """The ``k`` a ``solve_topk`` call answers: ``instance.query.k`` when omitted.

    Raises:
        SolverError: If ``k`` is given and smaller than 1.
    """
    if k is None:
        return instance.query.k
    if k < 1:
        raise SolverError(f"k must be at least 1, got {k}")
    return k


def total_weight(result: TopKResult) -> float:
    """Sum of the weights of all returned regions (a simple top-k quality measure)."""
    return sum(entry.weight for entry in result)


def node_overlap_fraction(result: TopKResult) -> float:
    """Fraction of node slots occupied by nodes appearing in more than one region.

    0.0 means the k regions are node-disjoint; values near 1.0 indicate the solver
    returned near-duplicates. Used by tests to check the distinctness guarantees.
    """
    all_nodes: List[int] = []
    for entry in result:
        all_nodes.extend(entry.region.nodes)
    if not all_nodes:
        return 0.0
    duplicates = len(all_nodes) - len(set(all_nodes))
    return duplicates / len(all_nodes)


def weights_are_sorted(result: TopKResult) -> bool:
    """Return ``True`` if the regions come in non-increasing weight order."""
    weights = [entry.weight for entry in result]
    return all(weights[i] >= weights[i + 1] - 1e-9 for i in range(len(weights) - 1))
