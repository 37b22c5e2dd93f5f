import importlib
import random
from collections import Counter
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
    ProbeResult,
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
# the package re-exports the function sawtooth under the module's name
sawtooth_module = importlib.import_module("tentlab.sawtooth")


def reference_eval(k, x):
    """Literal triangle-wave formula, as an independent oracle."""
    y = k * x
    whole = y.numerator // y.denominator
    frac = y - whole
    return frac if whole % 2 == 0 else 1 - frac


def _reference_value(g, num, depth):
    return g(Fraction(num, 1 << depth))


def _reference_slope(g, depth, index):
    return (1 << depth) * (
        _reference_value(g, index + 1, depth) - _reference_value(g, index, depth)
    )


def _off_secant(a, b, mid):
    """Whether a + b != 2*mid, by cross-multiplication."""
    an, ad = a.numerator, a.denominator
    bn, bd = b.numerator, b.denominator
    mn, md = mid.numerator, mid.denominator
    return (an * bd + bn * ad) * md != 2 * mn * ad * bd


def _scan_for_defect(g, p, k, budget):
    """Shallowest strict sub-interval of I(p, k) with nonzero midpoint defect,
    one Fraction evaluation per grid point."""
    prev = [_reference_value(g, k, p), _reference_value(g, k + 1, p)]
    for level in range(p + 1, budget + 1):
        count = 1 << (level - p)
        base = k << (level - p)
        cur = [None] * (count + 1)
        cur[0::2] = prev
        for i in range(1, count, 2):
            cur[i] = _reference_value(g, base + i, level)
        if level >= p + 2:
            half = k << (level - 1 - p)
            for i in range(len(prev) - 1):
                if _off_secant(prev[i], prev[i + 1], cur[2 * i + 1]):
                    return (level - 1, half + i)
        prev = cur
    return None


def reference_linearity_probe(g, start, depth_budget=20):
    """The probe on Fraction values throughout, as an independent oracle."""
    p, k = start
    if p < 0 or not (0 <= k < (1 << p)):
        raise ValueError(f"bad start interval ({p}, {k})")
    if depth_budget < p:
        raise ValueError("depth budget below start depth")
    t = _reference_slope(g, p, k)
    if t == 0:
        raise ValueError("start interval has zero secant slope")
    trace = [(p, k, t)]
    while True:
        if p >= depth_budget:
            return ProbeResult("trace", p, k, t, tuple(trace), depth_budget)
        gl = _reference_value(g, k, p)
        gr = _reference_value(g, k + 1, p)
        gm = _reference_value(g, 2 * k + 1, p + 1)
        if _off_secant(gl, gr, gm):
            t_left = (1 << (p + 1)) * (gm - gl)
            t_right = (1 << (p + 1)) * (gr - gm)
            if abs(t_left) == abs(t_right):
                raise ValueError(
                    "halves of equal absolute slope under a nonzero defect: "
                    "the evaluator cannot commute with the tent map"
                )
            if abs(t_left) > abs(t_right):
                k, t_new = 2 * k, t_left
            else:
                k, t_new = 2 * k + 1, t_right
            if t_new * t < 0 or abs(t_new) <= abs(t):
                raise ValueError(
                    "refined slope failed to grow with matching sign: "
                    "the evaluator cannot commute with the tent map"
                )
            p += 1
            t = t_new
            trace.append((p, k, t))
            continue
        found = _scan_for_defect(g, p, k, depth_budget)
        if found is None:
            return ProbeResult("linear", p, k, t, tuple(trace), depth_budget)
        q, s = found
        for j in range(p + 1, q + 1):
            kj = s >> (q - j)
            tj = _reference_slope(g, j, kj)
            trace.append((j, kj, tj))
            if tj != t:
                raise ValueError(
                    "slope changed across a defect-free refinement chain: "
                    "the evaluator cannot commute with the tent map"
                )
        p, k = q, s


def probe_outcome(probe, g, start, budget):
    """A probe's result, or the type and message of the exception it raised."""
    try:
        return probe(g, start, budget)
    except ValueError as exc:
        return (type(exc), str(exc))


# evaluators whose values are not dyadic, read as Fraction numerators
NON_DYADIC = {
    "x/3": lambda x: x / 3,
    "(x*x + x)/3": lambda x: (x * x + x) / 3,
    "1 - x**3": lambda x: 1 - x**3,
    "sawtooth_5/3": lambda x: sawtooth_eval(5, x) / 3,
}


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

    def test_evaluator_rejects_tooth_count_when_built(self):
        for k in (0, -3):
            with pytest.raises(ValueError, match=f"^tooth count must be >= 1, got {k}$"):
                sawtooth(k)


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

    @staticmethod
    def generic(k):
        # a plain callable: verify_commutation goes through tent and g
        return lambda x: sawtooth_eval(k, x)

    def test_int_path_matches_generic(self):
        rng = random.Random(7)
        for k in range(1, 65):
            samples = [Fraction(0), Fraction(1), HALF]
            samples += [random_unit_fraction(rng, 2000) for _ in range(40)]
            got = verify_commutation(sawtooth(k), samples)
            assert got == verify_commutation(self.generic(k), samples), k

    def test_witnesses_match_generic(self, monkeypatch):
        fold = sawtooth_module._fold

        def broken(k, num, den):
            # every g but the tent (k = 2) sends 1/3 to 0: not a solution
            return 0 if k != 2 and 3 * num == den else fold(k, num, den)

        monkeypatch.setattr(sawtooth_module, "_fold", broken)
        samples = [Fraction(j, 12) for j in range(13)] + [Fraction(5, 18), Fraction(1, 3)]
        for k in (1, 3, 4, 7):
            got = verify_commutation(sawtooth(k), samples)
            assert not got.ok and got == verify_commutation(self.generic(k), samples), k

    @pytest.mark.parametrize("x", [Fraction(-1, 3), Fraction(4, 3), Fraction(-1), Fraction(2)])
    def test_out_of_range_message(self, x):
        for g in (sawtooth(5), self.generic(5)):
            with pytest.raises(ValueError) as err:
                verify_commutation(g, [HALF, x])
            assert str(err.value) == f"x must lie in [0, 1], got {x}"

    def test_non_fraction_samples_take_the_generic_path(self, monkeypatch):
        seen = []

        def counting(x):
            seen.append(x)
            return tent(x)

        monkeypatch.setattr(sawtooth_module, "tent", counting)
        samples = [0, Fraction(1, 3), 1, True]
        got = verify_commutation(sawtooth(3), samples)
        # tent(x), then tent(g(x)), for the three non-Fraction samples only
        assert seen == [0, 0, 1, 1, True, 1]
        assert got == verify_commutation(self.generic(3), samples)

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


class TestIntReader:
    """The numerator-row probe against the Fraction reference probe."""

    def test_probe_matches_reference(self):
        for k in range(1, 17):
            g = sawtooth(k)
            for p in range(4):
                for i in range(1 << p):
                    for budget in (p, p + 3, 12):
                        got = probe_outcome(linearity_probe, g, (p, i), budget)
                        want = probe_outcome(reference_linearity_probe, g, (p, i), budget)
                        assert got == want, (k, (p, i), budget)
        for name, g in NON_DYADIC.items():
            for p in range(3):
                for i in range(1 << p):
                    got = probe_outcome(linearity_probe, g, (p, i), 10)
                    assert got == probe_outcome(reference_linearity_probe, g, (p, i), 10), (name, (p, i))
                    if isinstance(got, ProbeResult):
                        assert all(type(t) is Fraction for _, _, t in got.trace), (name, (p, i))

    def test_sawtooth_scan_matches_fraction_scan(self):
        # every start of depth <= 5 and every budget, so scans that find a
        # defect, at every index, are compared as well as those that do not.
        # A budget-b scan is the budget-12 scan cut to candidate depths < b.
        found = 0
        for k in range(1, 65):
            g = sawtooth(k)
            for p in range(6):
                for i in range(1 << p):
                    deepest = _scan_for_defect(g, p, i, 12)
                    for budget in range(p, 13):
                        want = deepest if deepest and deepest[0] < budget else None
                        got = sawtooth_module._scan_for_defect(g, p, i, budget)
                        assert got == want, (k, (p, i), budget)
                        found += got is not None
        assert found > 0

    def test_sawtooth_probe_matches_reference_to_depth_14(self):
        for k in range(1, 33):
            g = sawtooth(k)
            for start in ((1, 0), (1, 1)):
                got = probe_outcome(linearity_probe, g, start, 14)
                assert got == probe_outcome(reference_linearity_probe, g, start, 14), (k, start)

    def test_sawtooth_reader_matches_generic_reader(self):
        for k in (3, 5, 6, 7):
            generic = lambda x, g=sawtooth(k): g(x)  # noqa: E731
            got = linearity_probe(sawtooth(k), (1, 0), 20)
            assert got == linearity_probe(generic, (1, 0), 20), k

    def test_secant_slopes_match_fraction_differences(self):
        for k in range(1, 17):
            for n in range(9):
                values = [sawtooth_eval(k, Fraction(j, 1 << n)) for j in range((1 << n) + 1)]
                want = [(1 << n) * (b - a) for a, b in zip(values, values[1:])]
                assert secant_slopes(sawtooth(k), n) == want, (k, n)
                assert secant_slopes(lambda x, g=sawtooth(k): g(x), n) == want, (k, n)
        for name, g in NON_DYADIC.items():
            for n in range(9):
                values = [g(Fraction(j, 1 << n)) for j in range((1 << n) + 1)]
                want = [(1 << n) * (b - a) for a, b in zip(values, values[1:])]
                got = secant_slopes(g, n)
                assert got == want and all(type(t) is Fraction for t in got), (name, n)


def flaky(changes):
    """The identity, except that from read ``n`` on, the point x reads ``y``
    for each ``x: (n, y)`` in changes (reads counted per point, from 1)."""
    reads = Counter()

    def g(x):
        reads[x] += 1
        n, y = changes.get(x, (0, None))
        return y if n and reads[x] >= n else x

    return g


class TestRefusals:
    """An evaluator with one value per point cannot reach the probe's
    refusals; one whose value at a point changes between reads can."""

    @pytest.mark.parametrize(
        "changes, budget, message",
        [
            # g(1) turns to 0, so the halves have slopes 1 and -1
            (
                {Fraction(1): (2, Fraction(0))},
                4,
                "halves of equal absolute slope under a nonzero defect",
            ),
            # g(1) turns to -1 and g(1/2) is 0: the steeper half has slope -2
            (
                {Fraction(1): (2, Fraction(-1)), HALF: (1, Fraction(0))},
                4,
                "refined slope failed to grow with matching sign",
            ),
            # g(1) turns to 1/2 and g(1/2) is 0: the steeper half has slope 1
            (
                {Fraction(1): (2, HALF), HALF: (1, Fraction(0))},
                4,
                "refined slope failed to grow with matching sign",
            ),
            # a defect at 1/8 sends the probe down the chain [0, 1/2],
            # [0, 1/4]; by then g(1/2) reads 1, so [0, 1/2] has slope 2
            (
                {Fraction(1, 8): (1, Fraction(0)), HALF: (3, Fraction(1))},
                3,
                "slope changed across a defect-free refinement chain",
            ),
        ],
    )
    def test_changing_evaluator_is_refused(self, changes, budget, message):
        # every case starts on [0, 1], where the identity has slope 1
        want = (ValueError, f"{message}: the evaluator cannot commute with the tent map")
        assert probe_outcome(linearity_probe, flaky(changes), (0, 0), budget) == want
        assert probe_outcome(reference_linearity_probe, flaky(changes), (0, 0), budget) == want
