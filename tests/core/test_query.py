"""Tests for the LCMSR query type."""

from __future__ import annotations

import math

import pytest

from repro.core.query import LCMSRQuery
from repro.exceptions import QueryError
from repro.network.subgraph import Rectangle


class TestValidation:
    def test_create_normalises_keywords(self):
        query = LCMSRQuery.create(["Cafe", " cafe ", "BAR"], delta=5.0)
        assert query.keywords == ("bar", "cafe")

    def test_empty_keywords_rejected(self):
        with pytest.raises(QueryError):
            LCMSRQuery.create([], delta=5.0)
        with pytest.raises(QueryError):
            LCMSRQuery.create(["   "], delta=5.0)

    def test_negative_delta_rejected(self):
        with pytest.raises(QueryError):
            LCMSRQuery.create(["cafe"], delta=-1.0)

    @pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf])
    def test_non_finite_delta_rejected(self, delta):
        # Every length test is False under a NaN budget, so a solver would
        # answer a single node as if it were a region.
        with pytest.raises(QueryError):
            LCMSRQuery.create(["cafe"], delta=delta)

    def test_invalid_k_rejected(self):
        with pytest.raises(QueryError):
            LCMSRQuery.create(["cafe"], delta=1.0, k=0)

    def test_zero_delta_allowed(self):
        # A zero length constraint is legal: the answer is a single node.
        query = LCMSRQuery.create(["cafe"], delta=0.0)
        assert query.delta == 0.0


class TestDerivation:
    def test_with_region(self):
        region = Rectangle(0, 0, 10, 10)
        query = LCMSRQuery.create(["cafe"], delta=5.0).with_region(region)
        assert query.region is region
        assert query.with_region(None).region is None

    def test_with_k(self):
        query = LCMSRQuery.create(["cafe"], delta=5.0).with_k(4)
        assert query.k == 4

    def test_frozen(self):
        query = LCMSRQuery.create(["cafe"], delta=5.0)
        with pytest.raises(AttributeError):
            query.delta = 1.0  # type: ignore[misc]
