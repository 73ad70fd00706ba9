"""Tests for node-weight scaling (Section 4.1, Theorem 2, Lemma 5, Example 2)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.scaling import ScalingContext
from repro.exceptions import SolverError


class TestPaperExample2:
    def test_theta_matches_example_2(self):
        # Figure 2 weights, α = 0.15, |VQ| = 6 -> θ = 0.15 * 0.4 / 6 = 0.01.
        weights = {1: 0.2, 2: 0.3, 3: 0.4, 4: 0.2, 5: 0.2, 6: 0.4}
        scaling = ScalingContext.build(weights, num_candidate_nodes=6, alpha=0.15)
        assert scaling.theta == pytest.approx(0.01)
        scaled = scaling.scale_weights(weights)
        assert scaled == {1: 20, 2: 30, 3: 40, 4: 20, 5: 20, 6: 40}

    def test_example_3_region_tuple_scaled_weight(self):
        # Example 3: the optimal region {v2,v4,v5,v6} has scaled weight 110.
        weights = {2: 0.3, 4: 0.2, 5: 0.2, 6: 0.4}
        scaling = ScalingContext.build(
            {1: 0.2, 2: 0.3, 3: 0.4, 4: 0.2, 5: 0.2, 6: 0.4}, 6, alpha=0.15
        )
        assert sum(scaling.scale(w) for w in weights.values()) == 110


class TestValidation:
    def test_alpha_must_be_positive(self):
        with pytest.raises(SolverError):
            ScalingContext.build({1: 0.5}, 1, alpha=0.0)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_non_finite_alpha_rejected(self, alpha):
        with pytest.raises(SolverError):
            ScalingContext.build({1: 0.5}, 1, alpha=alpha)
        with pytest.raises(SolverError):
            ScalingContext.from_sigma_max(0.5, 1, alpha)

    def test_candidate_count_must_be_positive(self):
        with pytest.raises(SolverError):
            ScalingContext.build({1: 0.5}, 0, alpha=0.5)

    def test_all_zero_weights_rejected(self):
        with pytest.raises(SolverError):
            ScalingContext.build({1: 0.0}, 1, alpha=0.5)

    def test_alpha_whose_scaled_weights_overflow_int64_rejected(self):
        # Lemma 5's bound |VQ|·⌊|VQ|/α⌋ must stay below 2^62: at 2^61 the
        # heaviest node scales exactly, at 2^62 the context is refused. The
        # 929-node case used to wrap a scaled weight to -2^63 with only a
        # numpy RuntimeWarning; the last α makes |VQ|/α infinite.
        accepted = ScalingContext.from_sigma_max(1.0, 1, 2.0 ** -61)
        assert accepted.scale_array(np.array([1.0])).tolist() == [2 ** 61]
        with pytest.raises(SolverError):
            ScalingContext.from_sigma_max(1.0, 1, 2.0 ** -62)
        with pytest.raises(SolverError):
            ScalingContext.from_sigma_max(0.5, 929, 1e-17)
        with pytest.raises(SolverError):
            ScalingContext.build({1: 0.5}, 1, alpha=5e-324)

    def test_alpha_for_buckets(self):
        assert ScalingContext.alpha_for_buckets(640, 64) == pytest.approx(10.0)
        with pytest.raises(SolverError):
            ScalingContext.alpha_for_buckets(10, 0)
        with pytest.raises(SolverError):
            ScalingContext.alpha_for_buckets(0, 4)


class TestBounds:
    def test_lemma5_bounds(self):
        weights = {i: 0.1 * (i + 1) for i in range(10)}
        scaling = ScalingContext.build(weights, 10, alpha=0.5)
        assert scaling.lower_bound() == math.floor(10 / 0.5)
        assert scaling.upper_bound() == 10 * math.floor(10 / 0.5)

    def test_max_node_scales_to_lower_bound(self):
        weights = {1: 0.25, 2: 1.0}
        scaling = ScalingContext.build(weights, 2, alpha=0.4)
        assert scaling.scale(1.0) == scaling.max_scaled_node_weight()


class TestTheorem2Property:
    @settings(max_examples=80, deadline=None)
    @given(
        weights=st.lists(st.floats(0.01, 10.0, allow_nan=False), min_size=1, max_size=30),
        alpha=st.floats(0.05, 0.95),
        extra_nodes=st.integers(0, 20),
    )
    def test_scaled_optimum_preserves_weight(self, weights, alpha, extra_nodes):
        """The Theorem 2 machinery: σ - θ < θ·σ̂ <= σ for every node.

        Summed over any region this yields the paper's (1-α) preservation bound; the
        per-node inequality is the invariant the proof relies on.
        """
        weight_map = {i: w for i, w in enumerate(weights)}
        num_candidates = len(weights) + extra_nodes
        scaling = ScalingContext.build(weight_map, num_candidates, alpha)
        for sigma in weights:
            scaled = scaling.scale(sigma)
            assert scaling.theta * scaled <= sigma + 1e-12
            assert sigma - scaling.theta < scaling.theta * scaled + 1e-12

    @settings(max_examples=50, deadline=None)
    @given(
        weights=st.lists(st.floats(0.01, 10.0, allow_nan=False), min_size=2, max_size=20),
        alpha=st.floats(0.05, 0.9),
    )
    def test_region_weight_lower_bound(self, weights, alpha):
        """A whole region's unscaled weight is at least (1-α) of the true weight.

        Using the whole node set as the "region": Σ θ·σ̂ >= Σ σ - |VQ|·θ = Σ σ - α·σmax
        >= (1-α)·Σ σ because Σ σ >= σmax. This is exactly Theorem 2's argument.
        """
        weight_map = {i: w for i, w in enumerate(weights)}
        scaling = ScalingContext.build(weight_map, len(weights), alpha)
        total = sum(weights)
        reconstructed = sum(scaling.theta * scaling.scale(w) for w in weights)
        assert reconstructed >= (1 - alpha) * total - 1e-9
        assert reconstructed <= total + 1e-9
