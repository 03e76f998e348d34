"""Tests for the exact cost-effectiveness reference and power-of-two rounding.

The fractions live in ``tests/oracles.py`` (the kernels compare integer
exponents); :data:`INFINITE_EFFECTIVENESS` is the library's sentinel.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    cost_effectiveness,
    round_up_to_power_of_two,
    rounded_cost_effectiveness,
)
from repro.core.fastaug import INFINITE_EFFECTIVENESS


class TestCostEffectiveness:
    def test_simple_ratio(self):
        assert cost_effectiveness(6, 3) == Fraction(2)
        assert cost_effectiveness(1, 4) == Fraction(1, 4)

    def test_zero_uncovered(self):
        assert cost_effectiveness(0, 5) == Fraction(0)

    def test_zero_weight_is_infinite(self):
        assert cost_effectiveness(3, 0) is INFINITE_EFFECTIVENESS

    def test_negative_arguments_rejected(self):
        with pytest.raises(ValueError):
            cost_effectiveness(-1, 2)
        with pytest.raises(ValueError):
            cost_effectiveness(1, -2)


class TestInfinitySentinel:
    def test_compares_greater_than_any_fraction(self):
        assert INFINITE_EFFECTIVENESS > Fraction(10 ** 9)
        assert not (INFINITE_EFFECTIVENESS < Fraction(1, 10 ** 9))
        assert INFINITE_EFFECTIVENESS >= Fraction(5)
        assert Fraction(5) < INFINITE_EFFECTIVENESS or INFINITE_EFFECTIVENESS > Fraction(5)

    def test_equal_only_to_itself(self):
        assert INFINITE_EFFECTIVENESS == INFINITE_EFFECTIVENESS
        assert INFINITE_EFFECTIVENESS != Fraction(3)
        assert not (INFINITE_EFFECTIVENESS > INFINITE_EFFECTIVENESS)
        assert INFINITE_EFFECTIVENESS <= INFINITE_EFFECTIVENESS

    def test_usable_as_max_and_dict_key(self):
        values = [Fraction(3), INFINITE_EFFECTIVENESS, Fraction(7)]
        assert max(values) is INFINITE_EFFECTIVENESS
        assert {INFINITE_EFFECTIVENESS: "x"}[INFINITE_EFFECTIVENESS] == "x"

    def test_repr(self):
        assert "INFINITE" in repr(INFINITE_EFFECTIVENESS)


class TestRounding:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (Fraction(1), Fraction(2)),
            (Fraction(3, 2), Fraction(2)),
            (Fraction(2), Fraction(4)),
            (Fraction(5), Fraction(8)),
            (Fraction(1, 2), Fraction(1)),
            (Fraction(1, 3), Fraction(1, 2)),
            (Fraction(3, 7), Fraction(1, 2)),
        ],
    )
    def test_known_values(self, value, expected):
        assert round_up_to_power_of_two(value) == expected

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            round_up_to_power_of_two(Fraction(0))
        with pytest.raises(ValueError):
            round_up_to_power_of_two(Fraction(-3))

    @given(
        numerator=st.integers(min_value=1, max_value=10 ** 6),
        denominator=st.integers(min_value=1, max_value=10 ** 6),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_strictly_greater_but_at_most_double(self, numerator, denominator):
        value = Fraction(numerator, denominator)
        rounded = round_up_to_power_of_two(value)
        # The property the approximation analysis needs: rho~ / 2 <= rho < rho~.
        assert rounded > value
        assert rounded <= 2 * value
        # The result is a power of two.
        assert rounded.numerator == 1 or rounded.denominator == 1
        num = rounded.numerator if rounded >= 1 else rounded.denominator
        assert num & (num - 1) == 0


class TestRoundedCostEffectiveness:
    def test_zero_weight_stays_infinite(self):
        assert rounded_cost_effectiveness(4, 0) is INFINITE_EFFECTIVENESS

    def test_zero_coverage_is_zero(self):
        assert rounded_cost_effectiveness(0, 7) == Fraction(0)

    def test_regular_value(self):
        assert rounded_cost_effectiveness(3, 2) == Fraction(2)

    def test_candidates_with_equal_rounded_values_may_differ_exactly(self):
        # 5/4 and 6/4 both round to 2: the symmetry breaking has to choose.
        assert rounded_cost_effectiveness(5, 4) == rounded_cost_effectiveness(6, 4) == Fraction(2)
