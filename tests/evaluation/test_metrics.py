"""Tests for the evaluation metrics."""

from __future__ import annotations

import pytest

from repro.evaluation.metrics import average_relative_ratio, mean, relative_ratio


class TestMean:
    def test_empty(self):
        assert mean([]) == 0.0

    def test_values(self):
        assert mean([1.0, 2.0, 3.0]) == pytest.approx(2.0)


class TestRelativeRatio:
    def test_normal_case(self):
        assert relative_ratio(4.5, 5.0) == pytest.approx(0.9)

    def test_zero_reference(self):
        assert relative_ratio(0.0, 0.0) == 1.0
        assert relative_ratio(3.0, 0.0) == 1.0

    def test_candidate_can_exceed_reference(self):
        assert relative_ratio(6.0, 5.0) == pytest.approx(1.2)

    def test_average(self):
        assert average_relative_ratio([1.0, 2.0], [2.0, 2.0]) == pytest.approx(0.75)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            average_relative_ratio([1.0], [1.0, 2.0])

