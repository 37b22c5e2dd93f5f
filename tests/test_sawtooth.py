from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tentlab.limits import DepthLimitError
from tentlab.piecewise import PiecewiseLinearMap, constant_plm
from tentlab.sawtooth import (
    CONSTANT_TWO_THIRDS,
    CONSTANT_ZERO,
    NOT_A_SOLUTION,
    SAWTOOTH,
    Classification,
    classify_solution,
    linearity_probe,
    sawtooth,
    sawtooth_breakpoints,
    sawtooth_eval,
    secant_slopes,
    verify_commutation,
)
from tentlab.tent import preimage_set, tent
from conftest import random_unit_fraction

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


def reference_eval(k, x):
    """Literal triangle-wave formula, as an independent oracle."""
    y = k * x
    whole = y.numerator // y.denominator
    frac = y - whole
    return frac if whole % 2 == 0 else 1 - frac


class TestEval:
    def test_examples(self):
        assert sawtooth_eval(1, THIRD) == THIRD
        assert sawtooth_eval(3, THIRD) == 1
        assert sawtooth_eval(3, HALF) == HALF

    def test_endpoint_parity(self):
        for k in range(1, 20):
            assert sawtooth_eval(k, Fraction(1)) == (k % 2)
            assert sawtooth_eval(k, Fraction(0)) == 0

    def test_one_tooth_is_identity(self, rng):
        for _ in range(100):
            x = random_unit_fraction(rng)
            assert sawtooth_eval(1, x) == x

    def test_two_teeth_is_the_tent(self, rng):
        for _ in range(300):
            x = random_unit_fraction(rng)
            assert sawtooth_eval(2, x) == tent(x)

    @settings(max_examples=150)
    @given(
        st.integers(1, 50),
        st.fractions(min_value=0, max_value=1, max_denominator=997),
    )
    def test_matches_reference_formula(self, k, x):
        assert sawtooth_eval(k, x) == reference_eval(k, x)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            sawtooth_eval(0, HALF)
        with pytest.raises(ValueError):
            sawtooth_eval(3, Fraction(9, 8))


class TestBreakpoints:
    def test_examples(self):
        assert sawtooth_breakpoints(1).breakpoints == ((0, 0), (1, 1))
        assert sawtooth_breakpoints(2).breakpoints == ((0, 0), (HALF, 1), (1, 0))
        assert sawtooth_breakpoints(3).breakpoints == (
            (0, 0),
            (THIRD, 1),
            (Fraction(2, 3), 0),
            (1, 1),
        )

    def test_agrees_with_eval(self, rng):
        for k in (1, 2, 3, 7, 12):
            m = sawtooth_breakpoints(k)
            for _ in range(150):
                x = random_unit_fraction(rng, 840)
                assert m(x) == sawtooth_eval(k, x), (k, x)


class TestCommutation:
    def test_family_commutes(self, rng):
        for k in range(1, 65):
            samples = [random_unit_fraction(rng, 600) for _ in range(40)]
            assert verify_commutation(sawtooth(k), samples).ok, k

    def test_identity_commutes(self, rng):
        samples = [random_unit_fraction(rng) for _ in range(20)]
        assert verify_commutation(lambda x: x, samples).ok

    def test_constant_half_fails_at_zero(self):
        report = verify_commutation(lambda x: HALF, [Fraction(0)])
        assert not report.ok
        assert report.witnesses[0][0] == 0

    def test_grid_invariance(self):
        # sawtooths map the fixed-point preimage sets into themselves
        for n in range(1, 9):
            grid = set(preimage_set(n, "F").points)
            for k in range(1, 17):
                assert {sawtooth_eval(k, x) for x in grid} <= grid, (n, k)


class TestClassification:
    def test_round_trip(self):
        for k in range(1, 65):
            assert classify_solution(sawtooth_breakpoints(k)) == Classification(
                SAWTOOTH, k
            )

    def test_constants(self):
        assert classify_solution(constant_plm(Fraction(0))).tag == CONSTANT_ZERO
        assert (
            classify_solution(constant_plm(Fraction(2, 3))).tag == CONSTANT_TWO_THIRDS
        )
        assert classify_solution(constant_plm(HALF)).tag == NOT_A_SOLUTION

    def test_tent_as_plm(self):
        plm = PiecewiseLinearMap(((Fraction(0), Fraction(0)), (HALF, Fraction(1)), (Fraction(1), Fraction(0))))
        assert classify_solution(plm) == Classification(SAWTOOTH, 2)

    def test_redundant_breakpoints_still_classify(self):
        plm = PiecewiseLinearMap(
            (
                (Fraction(0), Fraction(0)),
                (Fraction(1, 4), HALF),
                (HALF, Fraction(1)),
                (Fraction(1), Fraction(0)),
            )
        )
        assert classify_solution(plm) == Classification(SAWTOOTH, 2)

    def test_perturbations_fall_out(self):
        eps = Fraction(1, 2**10)
        for k in (1, 2, 3, 5, 16, 64):
            base = sawtooth_breakpoints(k).breakpoints
            for i, (x, y) in enumerate(base):
                for delta in (eps, -eps):
                    new_y = y + delta
                    if not 0 <= new_y <= 1:
                        continue
                    pts = list(base)
                    pts[i] = (x, new_y)
                    got = classify_solution(PiecewiseLinearMap(tuple(pts)))
                    assert got.tag == NOT_A_SOLUTION, (k, i, delta)
                if 0 < i < len(base) - 1:
                    pts = list(base)
                    pts[i] = (x + eps, y)
                    got = classify_solution(PiecewiseLinearMap(tuple(pts)))
                    assert got.tag == NOT_A_SOLUTION, (k, i, "x")


class TestSecantSlopes:
    def test_examples(self):
        assert secant_slopes(sawtooth(1), 1) == [1, 1]
        assert secant_slopes(sawtooth(2), 1) == [2, -2]
        assert secant_slopes(sawtooth(3), 1) == [1, 1]

    def test_slope_bound_attained(self):
        # the steepest dyadic secant of the k-tooth sawtooth is exactly k
        for k in range(1, 17):
            peak = Fraction(0)
            for n in range(1, 13):
                slopes = secant_slopes(sawtooth(k), n)
                peak = max(peak, max(abs(t) for t in slopes))
                assert all(abs(t) <= k for t in slopes)
            assert peak == k


class TestProbe:
    def test_identity_certifies_start(self):
        result = linearity_probe(sawtooth(1), (1, 0), 20)
        assert result.outcome == "linear"
        assert (result.depth, result.index) == (1, 0)
        assert result.trace == ((1, 0, 1),)

    def test_tent_left_half(self):
        result = linearity_probe(sawtooth(2), (1, 0), 20)
        assert result.outcome == "linear"
        assert (result.depth, result.index) == (1, 0)

    def test_three_teeth_descends(self):
        result = linearity_probe(sawtooth(3), (1, 0), 20)
        assert result.outcome == "linear"
        lo, hi = result.interval
        assert 0 <= lo and hi <= THIRD
        assert result.slope == 3

    def test_zero_start_slope_rejected(self):
        with pytest.raises(ValueError):
            linearity_probe(sawtooth(4), (1, 0), 20)

    def test_interval_inside_one_piece(self):
        for k in range(1, 17):
            for start in ((1, 0), (1, 1)):
                if secant_slopes(sawtooth(k), 1)[start[1]] == 0:
                    continue
                result = linearity_probe(sawtooth(k), start, 14)
                assert result.outcome == "linear", (k, start)
                lo, hi = result.interval
                # no tooth boundary strictly inside the certified interval
                assert (lo * k).numerator // (lo * k).denominator == (
                    ((hi * k).numerator - 1) // (hi * k).denominator
                ) or (hi * k).denominator == 1, (k, start)

    def test_trace_slope_growth(self):
        for k in (3, 5, 7, 11, 13, 15):
            for start in ((1, 0), (1, 1)):
                if secant_slopes(sawtooth(k), 1)[start[1]] == 0:
                    continue
                result = linearity_probe(sawtooth(k), start, 14)
                previous = None
                for _, _, slope in result.trace:
                    if previous is not None:
                        assert abs(slope) >= abs(previous)
                        assert slope * previous > 0
                        if slope != previous:
                            assert abs(slope) - abs(previous) >= THIRD
                    previous = slope

    def test_budget_exhaustion_reports_trace(self):
        # five teeth need slope 5; a budget of two levels runs out mid-descent
        result = linearity_probe(sawtooth(5), (1, 0), 2)
        assert result.outcome == "trace"
        assert result.depth == 2
        assert abs(result.slope) > 1

    def test_depth_guard(self, monkeypatch):
        # the defect scan below a settled interval visits 2**(budget - p) points
        with pytest.raises(DepthLimitError, match="^linearity_probe"):
            linearity_probe(sawtooth(3), (1, 0), 60)
        monkeypatch.setenv("TENTLAB_MAX_DEPTH", "1")
        with pytest.raises(DepthLimitError):
            linearity_probe(sawtooth(5), (1, 0), 2)

    def test_smooth_evaluator_descends_to_budget(self):
        # x**2 is nowhere linear: the midpoint defect never vanishes, so the
        # probe descends into ever-steeper halves until the budget is gone
        result = linearity_probe(lambda x: x * x, (1, 1), 12)
        assert result.outcome == "trace"
        assert result.depth == 12
        slopes = [abs(t) for _, _, t in result.trace]
        assert slopes == sorted(slopes)
        assert slopes[-1] > slopes[0]
