import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tentlab.rationals import (
    ONE,
    BinaryExpansion,
    One,
    format_rational,
    multiplicative_order_of_two,
    parse_rational,
    rational_to_binary,
)


def naive_expansion(q: Fraction):
    """Independent oracle: digit-by-digit long division with cycle detection."""
    den = q.denominator
    seen = {}
    digits = []
    r = q.numerator
    while r not in seen:
        seen[r] = len(digits)
        d, r = divmod(2 * r, den)
        digits.append(d)
    start = seen[r]
    return tuple(digits[:start]), tuple(digits[start:])


def partial_sum(pre, per, repeats):
    total = Fraction(0)
    scale = Fraction(1, 2)
    for d in list(pre) + list(per) * repeats:
        total += d * scale
        scale /= 2
    return total, scale


class TestCodecExamples:
    def test_two_thirds(self):
        b = rational_to_binary(Fraction(2, 3))
        assert b.preperiod == () and b.period == (1, 0)

    def test_one_third(self):
        b = rational_to_binary(Fraction(1, 3))
        assert b.preperiod == () and b.period == (0, 1)

    def test_half_terminates(self):
        b = rational_to_binary(Fraction(1, 2))
        assert b.preperiod == (1,) and b.period == (0,)

    def test_value_examples(self):
        assert BinaryExpansion([0], [1, 0]).value() == Fraction(1, 3)
        assert BinaryExpansion([], [0]).value() == 0
        # 0.1(01) = 1/2 + 1/6; the constructor canonicalizes it to 0.(10)
        assert BinaryExpansion([1], [0, 1]).value() == Fraction(2, 3)

    def test_parse_format(self):
        assert str(rational_to_binary(Fraction(1, 3))) == "0.(01)"
        assert BinaryExpansion.parse("0.1(01)") == rational_to_binary(Fraction(2, 3))
        assert format_rational(Fraction(2, 3)) == "2/3"
        assert parse_rational("2/3") == Fraction(2, 3)
        assert parse_rational("5") == 5
        with pytest.raises(ValueError):
            parse_rational("2/3/4")
        with pytest.raises(ZeroDivisionError):
            parse_rational("1/0")


class TestCanonicalization:
    def test_all_ones_period_carries(self):
        assert BinaryExpansion([0], [1]).value() == Fraction(1, 2)
        assert BinaryExpansion([0], [1]) == BinaryExpansion([1], [0])
        assert BinaryExpansion([0, 1, 1], [1]).value() == Fraction(1, 2)

    def test_value_one_rejected(self):
        with pytest.raises(ValueError):
            BinaryExpansion([], [1])
        with pytest.raises(ValueError):
            BinaryExpansion([1, 1], [1])
        with pytest.raises(ValueError):
            rational_to_binary(Fraction(1))

    def test_period_minimized(self):
        assert BinaryExpansion([], [0, 1, 0, 1]).period == (0, 1)
        assert BinaryExpansion([], [1, 0, 1, 0, 1, 0]).period == (1, 0)

    def test_preperiod_absorbed(self):
        # 0.1(01) and 0.(10) are the same digit stream
        assert BinaryExpansion([1], [0, 1]) == BinaryExpansion([], [1, 0])
        assert BinaryExpansion([1, 0], [0]).preperiod == (1,)

    def test_bad_digits_rejected(self):
        with pytest.raises(ValueError):
            BinaryExpansion([2], [0])
        with pytest.raises(ValueError):
            BinaryExpansion([], [])

    def test_unit_markers(self):
        assert One() is ONE
        assert repr(ONE) == "ONE"
        with pytest.raises(ValueError, match="ONE marker"):
            BinaryExpansion([1], [1])


class TestAgainstNaiveOracle:
    def test_small_denominators_exhaustive(self):
        for q in range(1, 120):
            for p in range(q):
                x = Fraction(p, q)
                pre, per = naive_expansion(x)
                b = rational_to_binary(x)
                assert b.preperiod == pre and b.period == per, x
                assert b.value() == x

    def test_random_denominators(self):
        rng = random.Random(42)
        for _ in range(400):
            q = rng.randrange(1, 5000)
            x = Fraction(rng.randrange(0, q), q)
            pre, per = naive_expansion(x)
            b = rational_to_binary(x)
            assert (b.preperiod, b.period) == (pre, per)

    def test_partial_sum_sandwich(self):
        rng = random.Random(9)
        for _ in range(200):
            q = rng.randrange(2, 3000)
            x = Fraction(rng.randrange(0, q), q)
            b = rational_to_binary(x)
            approx, tail = partial_sum(b.preperiod, b.period, 3)
            value = b.value()
            assert approx <= value <= approx + 2 * tail


class TestRoundTrip:
    def test_seeded_bulk(self):
        rng = random.Random(0)
        for _ in range(10_000):
            q = rng.randrange(1, 10**6 + 1)
            x = Fraction(rng.randrange(0, q), q)
            assert rational_to_binary(x).value() == x

    @settings(max_examples=200)
    @given(st.fractions(min_value=0, max_value=1, max_denominator=10**6))
    def test_hypothesis(self, x):
        if x == 1:
            return
        b = rational_to_binary(x)
        assert b.value() == x

    @settings(max_examples=200)
    @given(st.fractions(min_value=0, max_value=1, max_denominator=3000))
    def test_canonical_invariants(self, x):
        if x == 1:
            return
        b = rational_to_binary(x)
        per = b.period
        assert per and set(per) != {1}
        for d in range(1, len(per)):
            if len(per) % d == 0:
                assert per != per[: d] * (len(per) // d)
        if b.preperiod:
            assert b.preperiod[-1] != per[-1]


class TestMultiplicativeOrder:
    def test_against_brute_force(self):
        for m in range(3, 600, 2):
            order = multiplicative_order_of_two(m)
            assert pow(2, order, m) == 1
            assert all(pow(2, d, m) != 1 for d in range(1, order))

    def test_rejects_even(self):
        with pytest.raises(ValueError):
            multiplicative_order_of_two(6)
