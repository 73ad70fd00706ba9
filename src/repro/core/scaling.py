"""Node-weight scaling (paper Section 4.1, Theorem 2).

Given a query, the scaling factor is ``θ = α · σmax / |VQ|`` where ``σmax`` is the
largest node weight inside ``Q.Λ`` and ``|VQ|`` the number of nodes inside ``Q.Λ``.
Every node weight σ_v is scaled to the integer ``σ̂_v = ⌊σ_v / θ⌋``. Theorem 2 then
guarantees that the region maximising the scaled weight has original weight at least
``(1 - α)`` times the optimum, which is what gives APP its approximation bound.

For TGEN the paper re-uses the same formula with much larger α values (50–1600),
which coarsens the buckets and caps the tuple-array sizes; the helper
:meth:`ScalingContext.num_buckets` exposes the resulting resolution so experiments at
different dataset scales can pick comparable α values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Optional

import numpy as np

from repro.exceptions import SolverError


@dataclass(frozen=True)
class ScalingContext:
    """The scaling factor θ for one query, plus the quantities that define it.

    Attributes:
        alpha: The scaling parameter α.
        sigma_max: The largest node weight inside the query region.
        num_candidate_nodes: ``|VQ|``, the number of nodes inside the query region.
        theta: The scaling factor ``θ = α · σmax / |VQ|``.
    """

    alpha: float
    sigma_max: float
    num_candidate_nodes: int
    theta: float

    @staticmethod
    def build(
        weights: Mapping[int, float],
        num_candidate_nodes: int,
        alpha: float,
    ) -> "ScalingContext":
        """Create a scaling context for the given node weights.

        Args:
            weights: Positive node weights σ_v of the relevant nodes inside ``Q.Λ``.
            num_candidate_nodes: ``|VQ|`` — all nodes inside ``Q.Λ``, not just the
                weighted ones (the paper's formula uses the full count).
            alpha: The scaling parameter α (> 0).

        Raises:
            SolverError: If α or |VQ| is non-positive, or no node has positive weight
                (there is nothing to scale — callers should have short-circuited to an
                empty result already).
        """
        sigma_max = max(weights.values(), default=0.0)
        return ScalingContext.from_sigma_max(sigma_max, num_candidate_nodes, alpha)

    @staticmethod
    def from_sigma_max(
        sigma_max: float,
        num_candidate_nodes: int,
        alpha: float,
    ) -> "ScalingContext":
        """Create a scaling context from the precomputed σmax aggregate.

        The dense-substrate path uses this: :class:`~repro.core.dense.DenseInstance`
        already carries σmax, so no weight scan is needed. ``build`` delegates
        here, guaranteeing both paths derive the identical θ.

        Raises:
            SolverError: As in :meth:`build`.
        """
        if alpha <= 0:
            raise SolverError(f"scaling parameter alpha must be positive, got {alpha}")
        if num_candidate_nodes <= 0:
            raise SolverError("the query region contains no nodes")
        if sigma_max <= 0:
            raise SolverError("no node has positive weight; nothing to scale")
        theta = alpha * sigma_max / num_candidate_nodes
        return ScalingContext(
            alpha=alpha,
            sigma_max=sigma_max,
            num_candidate_nodes=num_candidate_nodes,
            theta=theta,
        )

    # ------------------------------------------------------------------ scaling
    def scale(self, weight: float) -> int:
        """Return ``σ̂ = ⌊σ / θ⌋`` for one weight."""
        if weight <= 0:
            return 0
        return int(math.floor(weight / self.theta))

    def scale_weights(self, weights: Mapping[int, float]) -> Dict[int, int]:
        """Scale a whole node-weight map; zero results are kept (the node stays known)."""
        return {node_id: self.scale(weight) for node_id, weight in weights.items()}

    def scale_array(self, weights: np.ndarray) -> np.ndarray:
        """Scale a position-indexed σ vector to ``σ̂`` in one vectorised pass.

        Bit-equivalent to mapping :meth:`scale` over the entries: both compute
        ``⌊σ / θ⌋`` with one IEEE-754 double division per weight and clamp
        non-positive weights to 0.

        Returns:
            An int64 array aligned with ``weights``.
        """
        values = np.asarray(weights, dtype=np.float64)
        scaled = np.where(values > 0.0, np.floor(values / self.theta), 0.0)
        return scaled.astype(np.int64)

    def unscale(self, scaled_weight: int) -> float:
        """Return ``θ · ŝ``, the guaranteed lower bound on the original weight."""
        return self.theta * scaled_weight

    # ------------------------------------------------------------------ bounds (Lemma 5)
    def max_scaled_node_weight(self) -> int:
        """Return ``σ̂max = ⌊|VQ| / α⌋`` (the scaled weight of the heaviest node)."""
        return int(math.floor(self.num_candidate_nodes / self.alpha))

    def lower_bound(self) -> int:
        """Lemma 5's lower bound on the optimal scaled region weight: ``⌊|VQ|/α⌋``."""
        return self.max_scaled_node_weight()

    def upper_bound(self) -> int:
        """Lemma 5's upper bound: ``|VQ| · ⌊|VQ|/α⌋``."""
        return self.num_candidate_nodes * self.max_scaled_node_weight()

    def num_buckets(self) -> int:
        """Number of distinct scaled values a single node weight can take (≈ |VQ|/α).

        This is the quantity that actually controls tuple-array sizes; experiments run
        at a different dataset scale than the paper should choose α so that this
        matches the paper's effective resolution (see "Deviations from the paper"
        in ``docs/ARCHITECTURE.md``).
        """
        return self.max_scaled_node_weight() + 1

    @staticmethod
    def alpha_for_buckets(num_candidate_nodes: int, buckets: int) -> float:
        """Return the α that yields roughly ``buckets`` scaled values per node weight.

        Convenience for scale-matched parameter sweeps: ``α = |VQ| / buckets``.
        """
        if buckets < 1:
            raise SolverError(f"buckets must be >= 1, got {buckets}")
        if num_candidate_nodes < 1:
            raise SolverError("num_candidate_nodes must be >= 1")
        return num_candidate_nodes / buckets
