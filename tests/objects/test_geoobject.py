"""Tests for the geo-textual object model."""

from __future__ import annotations

import math

import pytest

from repro.exceptions import DatasetError
from repro.objects.geoobject import GeoTextualObject


class TestCreation:
    def test_create_counts_term_frequencies(self):
        obj = GeoTextualObject.create(1, 0.0, 0.0, ["Cafe", "cafe", "coffee"])
        assert obj.keywords == {"cafe": 2, "coffee": 1}

    def test_create_lowercases_and_strips(self):
        obj = GeoTextualObject.create(1, 0, 0, ["  Pizza ", "PIZZA", ""])
        assert set(obj.terms) == {"pizza"}
        assert obj.keywords == {"pizza": 2}

    def test_empty_description_allowed(self):
        obj = GeoTextualObject.create(1, 0, 0, [])
        assert obj.terms == ()
        assert not obj.contains_any(["anything"])

    def test_negative_rating_rejected(self):
        with pytest.raises(DatasetError):
            GeoTextualObject.create(1, 0, 0, ["x"], rating=-1.0)

    def test_non_positive_frequency_rejected(self):
        with pytest.raises(DatasetError):
            GeoTextualObject(1, 0, 0, {"cafe": 0})

    @pytest.mark.parametrize("x, y, rating", [
        (math.nan, 0.0, 1.0),
        (0.0, math.inf, 1.0),
        (-math.inf, 0.0, 1.0),
        (0.0, 0.0, math.nan),
        (0.0, 0.0, math.inf),
    ])
    def test_non_finite_coordinate_or_rating_rejected(self, x, y, rating):
        with pytest.raises(DatasetError, match="non-finite"):
            GeoTextualObject.create(1, x, y, ["cafe"], rating=rating)


class TestAccessors:
    def test_location(self):
        obj = GeoTextualObject.create(3, 12.5, -7.25, ["bar"])
        assert obj.location() == (12.5, -7.25)

    def test_contains_any(self):
        obj = GeoTextualObject.create(1, 0, 0, ["cafe", "bakery"])
        assert obj.contains_any(["restaurant", "bakery"])
        assert not obj.contains_any(["restaurant", "pizza"])
        assert not obj.contains_any([])

    def test_frozen(self):
        obj = GeoTextualObject.create(1, 0, 0, ["cafe"])
        with pytest.raises(AttributeError):
            obj.x = 5.0  # type: ignore[misc]
