import hashlib
import itertools
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from tentlab import conjugacy
from tentlab.conjugacy import (
    ConjugacyIterate,
    DensityReport,
    _binomial_prefix,
    _certified_terms,
    _ordinates,
    _pieces,
    _quotient_bounds,
    _term,
    conjugacy_value,
    conjugate_point,
    density_probe,
    graph_length,
    h_step,
    identity_iterate,
    iterate_to,
    slope_measure,
)
from tentlab.limits import DepthLimitError
from tentlab.tent import address_to_point, grid_points, skew_tent, tent

F = Fraction
VS = (F(1, 4), F(1, 3), F(7, 10))


class TestIterates:
    def test_half_vertex_is_fixed(self):
        cur = identity_iterate(F(1, 2))
        for _ in range(6):
            cur = h_step(cur)
            assert all(
                y == cur.abscissa(k) for k, y in enumerate(cur.ordinates)
            )

    def test_first_step_example(self):
        cur = h_step(identity_iterate(F(1, 4)))
        assert cur.breakpoints() == ((0, 0), (F(1, 2), F(1, 4)), (1, 1))

    def test_second_step_example(self):
        cur = h_step(h_step(identity_iterate(F(1, 4))))
        assert cur.ordinates[1] == F(1, 16)
        assert conjugacy_value(2, F(1, 4), F(1, 4)) == F(1, 16)

    def test_iterates_are_strictly_increasing(self):
        for v in VS:
            cur = iterate_to(8, v)
            for a, b in zip(cur.ordinates, cur.ordinates[1:]):
                assert a < b

    def test_vertex_hit_at_half(self):
        for v in VS:
            for n in range(1, 8):
                assert conjugacy_value(n, F(1, 2), v) == v

    def test_table_matches_recursive_evaluator(self):
        for v in VS:
            cur = iterate_to(6, v)
            cache = {}
            for k, y in enumerate(cur.ordinates):
                assert conjugacy_value(6, cur.abscissa(k), v, cache) == y

    def test_explicit_guard(self, monkeypatch):
        monkeypatch.setenv("TENTLAB_MAX_DEPTH", "4")
        with pytest.raises(DepthLimitError):
            iterate_to(5, F(1, 4))

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            iterate_to(-1, F(1, 4))

    def test_matches_h_step_folds(self):
        for v in VS + (F(1, 2), F(99, 100)):
            cur = identity_iterate(v)
            for n in range(11):
                assert iterate_to(n, v) == cur, (v, n)
                cur = h_step(cur)


class TestStabilization:
    def test_grid_points_stop_moving(self):
        for v in VS:
            cache = {}
            for n in range(1, 11):
                for x in grid_points(n):
                    base = conjugacy_value(n, x, v, cache)
                    for m in range(n, n + 11):
                        assert conjugacy_value(m, x, v, cache) == base, (v, n, x, m)

    def test_semiconjugacy_on_grid(self):
        for v in VS:
            cache = {}
            for n in range(1, 11):
                for x in grid_points(n):
                    assert skew_tent(
                        conjugacy_value(n, x, v, cache), v
                    ) == conjugacy_value(n, tent(x), v, cache)


class TestConjugatePoint:
    def test_examples(self):
        v = F(1, 4)
        assert conjugate_point((1,), v) == 1
        assert conjugate_point((0, 1), v) == v
        assert conjugate_point((0, 0, 1), v) == v * v

    def test_matches_iterates_at_reversed_tent_address(self):
        for v in VS:
            cache = {}
            for length in range(1, 13):
                for word in itertools.product((0, 1), repeat=length):
                    tent_point = address_to_point(tuple(reversed(word)), F(0))
                    assert conjugate_point(word, v) == conjugacy_value(
                        length, tent_point, v, cache
                    ), (word, v)


class TestGraphLength:
    def test_identity_diagonal(self):
        assert abs(graph_length(0, F(1, 4), "explicit") - math.sqrt(2)) < 1e-15

    def test_two_segment_example(self):
        expected = math.sqrt(5) / 4 + math.sqrt(13) / 4
        assert abs(graph_length(1, F(1, 4), "explicit") - expected) < 1e-15

    def test_half_vertex_stays_diagonal(self):
        assert abs(graph_length(1, F(1, 2), "aggregate") - math.sqrt(2)) < 1e-15
        assert abs(graph_length(9, F(1, 2), "aggregate") - math.sqrt(2)) < 1e-15

    def test_modes_agree(self):
        for v in VS:
            for n in range(0, 13):
                explicit = graph_length(n, v, "explicit")
                aggregate = graph_length(n, v, "aggregate")
                assert abs(explicit - aggregate) <= 1e-12 * max(explicit, aggregate)

    def test_monotone_and_bounded(self):
        for v in (F(1, 4), F(7, 10)):
            lengths = [graph_length(n, v, "explicit") for n in range(0, 15)]
            for a, b in zip(lengths, lengths[1:]):
                assert a < b <= 2.0

    def test_aggregate_monotone_to_depth_1000(self):
        checkpoints = [0, 1, 2, 5, 10, 25, 50, 100, 200, 400, 700, 1000]
        for v in (F(1, 4), F(7, 10)):
            lengths = [graph_length(n, v, "aggregate") for n in checkpoints]
            for a, b in zip(lengths, lengths[1:]):
                assert a < b <= 2.0

    def test_aggregate_reaches_large_depth(self):
        near = graph_length(200, F(1, 4), "aggregate")
        assert 2 - 0.02 < near <= 2.0


class TestSlopeMeasure:
    def test_half_vertex_all_slopes_one(self):
        for n in (1, 5, 9):
            assert slope_measure(n, F(1, 2), F(1)) == 1

    def test_first_step(self):
        assert slope_measure(1, F(1, 4), F(1)) == F(1, 2)

    def test_second_step(self):
        # pieces have |slope| 1/4, 3/4, 3/4, 9/4: one of four meets the bar
        assert slope_measure(2, F(1, 4), F(1)) == F(1, 4)

    def test_modes_agree_exactly(self):
        for v in VS:
            for n in range(0, 13):
                for threshold in (F(1, 2), F(1), F(3, 2)):
                    assert slope_measure(n, v, threshold, "explicit") == slope_measure(
                        n, v, threshold, "aggregate"
                    )

    def test_binomial_tail_at_depth_400(self):
        measure = slope_measure(400, F(1, 4), F(1))
        assert measure < F(5, 1000)
        assert measure > 0

    def test_profile_invariants(self):
        for v in VS:
            for n in (0, 1, 4, 9):
                for mode in ("explicit", "aggregate"):
                    den, stream = _pieces(n, v, mode, "test")
                    pieces = list(stream)
                    assert den == v.denominator**n
                    assert sum(c for c, _ in pieces) == 1 << n
                    # slopes average to 1: the rises add up to h(1) - h(0)
                    assert sum(c * s for c, s in pieces) == den << n

    def test_profile_matches_explicit_heights(self):
        for v in VS:
            for n in (1, 4, 8):
                den, stream = _pieces(n, v, "explicit", "test")
                explicit = sorted(s for _, s in stream)
                den_agg, stream = _pieces(n, v, "aggregate", "test")
                profile = sorted(s for c, s in stream for _ in range(c))
                assert den_agg == den
                assert explicit == profile

    def test_aggregate_matches_fraction_filter(self):
        for v in VS + (F(1, 2), F(99, 100)):
            for n in list(range(15)) + [200]:
                slopes = reference_slope_classes(n, v)
                steepest = max(s for _, s in slopes)
                # every class slope is a threshold on the >= boundary
                crossings = [s for _, s in slopes][:: max(1, n // 12)]
                for threshold in crossings + [F(0), F(-1), steepest + F(1, 10**9), F(10**9)]:
                    expected = Fraction(
                        sum(c for c, s in slopes if s >= threshold), 1 << n
                    )
                    assert slope_measure(n, v, threshold) == expected, (v, n, threshold)
                    if n <= 10:
                        assert slope_measure(n, v, threshold, "explicit") == expected

    def test_pieces_checks_eagerly(self, monkeypatch):
        with pytest.raises(ValueError, match="vertex"):
            _pieces(3, F(1), "aggregate", "test")
        with pytest.raises(ValueError, match="nonnegative"):
            _pieces(-1, F(1, 4), "explicit", "test")
        with pytest.raises(ValueError, match="mode"):
            _pieces(3, F(1, 4), "bogus", "test")
        monkeypatch.setenv("TENTLAB_MAX_DEPTH", "4")
        with pytest.raises(DepthLimitError, match=r"^graph_length\[aggregate\]"):
            graph_length(5, F(1, 4))
        with pytest.raises(DepthLimitError, match=r"^slope_measure\[aggregate\]"):
            slope_measure(5, F(1, 4), F(1))
        with pytest.raises(DepthLimitError, match="^iterate_to"):
            slope_measure(5, F(1, 4), F(1), "explicit")


def reference_binomial_prefix(n, m):
    """sum of C(n, b) for b < m, one class per step: the tail before Pascal pairs."""
    total, count = 0, 1
    for b in range(m):
        total += count
        count = count * (n - b) // (b + 1)
    return total


def test_binomial_prefix_matches_single_steps():
    for n in range(65):
        for m in range(n + 2):
            assert _binomial_prefix(n, m) == reference_binomial_prefix(n, m), (n, m)
    for m in (0, 1, 2, 1845, 3690, 3691, 5000, 5001):
        assert _binomial_prefix(10_000, m) == reference_binomial_prefix(10_000, m), m


# sha256 of str(slope_measure(10_000, v, threshold)) as computed with the
# one-class-per-step tail, before the Pascal pairs went in
PINNED_DEEP_MEASURES = {
    (F(1, 4), F(1, 2)): "6f5888aaea43b1c71d9d42e783538f6a39b6e91ae1a377346b5f54ae1b13290b",
    (F(1, 4), F(1)): "f8264e8d94946c5224e319387cfb4cfa0d92d18348626d08b440553b6f133bc9",
    (F(1, 4), F(2)): "f8264e8d94946c5224e319387cfb4cfa0d92d18348626d08b440553b6f133bc9",
    (F(1, 3), F(1, 2)): "17069421832a594f553b195553e5f639e35cc8cec2dc827c0203e3e32aa25d1b",
    (F(1, 3), F(1)): "70ed277c78fad1fa4b730ec3436bcaaf2e683495590cf5a9ca67b9aa44ec9110",
    (F(1, 3), F(2)): "4c5b890c9811b7b529a70601cefe8565916b24e0e46d7273a2588f1318321dc0",
    (F(7, 10), F(1, 2)): "c1250629c9b48da7fe7b0c5ce69cceced31e1d662023b6cd01921fd4ef7c1f96",
    (F(7, 10), F(1)): "c1250629c9b48da7fe7b0c5ce69cceced31e1d662023b6cd01921fd4ef7c1f96",
    (F(7, 10), F(2)): "5b4c084afed6a3ab104d3fd444bdd32b303769c36fed3b217cd5071ca31df4d3",
    (F(1, 2), F(1, 2)): "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
    (F(1, 2), F(1)): "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
    (F(1, 2), F(2)): "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
    (F(99, 100), F(1, 2)): "bde362a740cf6a1551f9222d1d59abe2e0a62b1a0dda1c1abbcb671b2494f2f6",
    (F(99, 100), F(1)): "bde362a740cf6a1551f9222d1d59abe2e0a62b1a0dda1c1abbcb671b2494f2f6",
    (F(99, 100), F(2)): "bde362a740cf6a1551f9222d1d59abe2e0a62b1a0dda1c1abbcb671b2494f2f6",
}


@pytest.mark.parametrize("v, threshold", PINNED_DEEP_MEASURES)
def test_slope_measure_pinned_at_guard_depth(v, threshold):
    measure = str(slope_measure(10_000, v, threshold))
    assert hashlib.sha256(measure.encode()).hexdigest() == PINNED_DEEP_MEASURES[(v, threshold)]


def reference_slope_classes(n, v):
    """The binomial slope profile in Fractions: (C(n, a), (2v)**a (2(1-v))**(n-a))."""
    return [
        (math.comb(n, a), (2 * v) ** a * (2 * (1 - v)) ** (n - a)) for a in range(n + 1)
    ]


# graph_length(n, v, mode).hex() as computed by the earlier Fraction
# implementations (per-mode loops, then one Fraction piece walk); the integer
# walk must reproduce them bit for bit.
PINNED_LENGTHS = {
    (F(1, 4), 14, "explicit"): "0x1.bf06a32d19ee4p+0",
    (F(1, 4), 14, "aggregate"): "0x1.bf06a32d19ee4p+0",
    (F(1, 4), 200, "aggregate"): "0x1.fff553201c7a3p+0",
    (F(1, 4), 1200, "aggregate"): "0x1.fffffffffffffp+0",
    (F(1, 3), 14, "explicit"): "0x1.9b0080ccb6d40p+0",
    (F(1, 3), 14, "aggregate"): "0x1.9b0080ccb6d41p+0",
    (F(1, 3), 200, "aggregate"): "0x1.fc9c6b33e5cb8p+0",
    (F(1, 3), 1200, "aggregate"): "0x1.fffffff2eaa51p+0",
    (F(7, 10), 14, "explicit"): "0x1.a9a7bd7982c1ap+0",
    (F(7, 10), 14, "aggregate"): "0x1.a9a7bd7982c1ap+0",
    (F(7, 10), 200, "aggregate"): "0x1.ff41a37c17c59p+0",
    (F(7, 10), 1200, "aggregate"): "0x1.ffffffffff380p+0",
    (F(1, 2), 14, "explicit"): "0x1.6a09e667f3bcdp+0",
    (F(1, 2), 14, "aggregate"): "0x1.6a09e667f3bcdp+0",
    (F(1, 2), 1200, "aggregate"): "0x1.6a09e667f3bccp+0",
    (F(99, 100), 14, "explicit"): "0x1.feb396e4cadafp+0",
    (F(99, 100), 14, "aggregate"): "0x1.feb396e4cadafp+0",
    (F(99, 100), 1200, "aggregate"): "0x1.fffffffffffffp+0",
    # the aggregate guard depth, read before the certified quotients went in
    (F(1, 4), 10_000, "aggregate"): "0x1.fffffffffffffp+0",
    (F(1, 3), 10_000, "aggregate"): "0x1.fffffffffffffp+0",
    (F(7, 10), 10_000, "aggregate"): "0x1.fffffffffffffp+0",
    (F(1, 2), 10_000, "aggregate"): "0x1.6a09e667f3bccp+0",
    (F(99, 100), 10_000, "aggregate"): "0x1.fffffffffffffp+0",
}


@pytest.mark.parametrize("v, n, mode", PINNED_LENGTHS)
def test_graph_length_float_bytes_pinned(v, n, mode):
    assert graph_length(n, v, mode).hex() == PINNED_LENGTHS[(v, n, mode)]


def reference_explicit_graph_length(n, v):
    """Explicit graph length as one ``_term`` per dyadic piece, the walk that
    the per-slope-class sum must reproduce bit for bit."""
    den, pieces = _pieces(n, v, "explicit", "graph_length")
    den2 = den * den
    return math.fsum(_term(count, den2 + s * s, den2, -n) for count, s in pieces)


@pytest.mark.parametrize(
    "v, depths",
    [(v, range(17)) for v in VS + (F(1, 1000), F(5, 7), F(2, 5))] + [(F(1, 3), [18])],
)
def test_explicit_graph_length_matches_per_piece_sum(v, depths):
    for n in depths:
        assert graph_length(n, v, "explicit").hex() == reference_explicit_graph_length(n, v).hex(), n


def test_explicit_graph_length_honours_piece_counts(monkeypatch):
    # every explicit piece has count 1 today; classes are keyed by the whole
    # (count, slope_num) pair, so a stream with other counts still sums per pair
    pairs = [(1, 5), (3, 5), (1, 5), (2, 7)]
    monkeypatch.setattr(conjugacy, "_pieces", lambda *args: (4, iter(pairs)))
    expected = math.fsum(_term(count, 16 + s * s, 16, -2) for count, s in pairs)
    assert graph_length(2, F(1, 4), "explicit").hex() == expected.hex()


def certified_and_reference_terms(n, v, stride=1):
    """Hex of every ``stride``-th aggregate term two ways: ``_certified_terms``
    and ``_term`` on the exact radicand."""
    den, pieces = _pieces(n, v, "aggregate", "graph_length")
    pieces = list(itertools.islice(pieces, 0, None, stride))
    den2 = den * den
    expected = [_term(count, den2 + s * s, den2, -n).hex() for count, s in pieces]
    return [t.hex() for t in _certified_terms(n, den, pieces)], expected


SWEEP_DEPTHS = (*range(41), 100, 200, 1200)


@pytest.mark.parametrize("q", range(2, 24))
def test_certified_terms_match_exact_radicands(q):
    for p in range(1, q):
        if math.gcd(p, q) == 1:
            for n in SWEEP_DEPTHS:
                got, expected = certified_and_reference_terms(n, F(p, q))
                assert got == expected, (p, q, n)


@pytest.mark.parametrize("v", [F(1, 4), F(1, 3), F(7, 10), F(1, 2), F(99, 100)])
def test_certified_terms_match_at_guard_depth(v):
    got, expected = certified_and_reference_terms(10_000, v, stride=97)
    assert got == expected


def test_certified_terms_fall_back_to_exact_quotient(monkeypatch):
    # one class of v = 5/16 at n = 16 has bounds that round apart
    calls = []
    exact = conjugacy._sqrt_parts

    def counted(num, den):
        calls.append(num)
        return exact(num, den)

    monkeypatch.setattr(conjugacy, "_sqrt_parts", counted)
    got, expected = certified_and_reference_terms(16, F(5, 16))
    assert calls and got == expected


def test_quotient_bounds_enclose_radicand_quotient():
    cases = []
    # 64-bit tops (all ones, a lone top bit, arbitrary) over low bits that are
    # all ones or all zeros (an exact truncation), at d2 = 2*(sa - sb) from
    # -130 to 128
    tops = ((1 << 64) - 1, 1 << 63, 0xB504F333F9DE6484)
    for sb in (0, 64, 100):
        for diff in (-65, -64, -1, 0, 63, 64):
            sa = sb + diff
            if sa < 0:
                continue
            for den_top, s_top in itertools.product(tops, repeat=2):
                for ones in (True, False):
                    s_low = (1 << sa) - 1 if ones else 0
                    den_low = (1 << sb) - 1 if ones else 0
                    cases.append(((s_top << sa) | s_low, (den_top << sb) | den_low))
    cases += [(1, 1 << 200), (3, 5), ((1 << 70) + 1, 7)]
    seen = set()
    for s, den in cases:
        sb = max(den.bit_length() - 64, 0)
        b = den >> sb
        e2, lo_num, lo_den, hi_num, hi_den = _quotient_bounds(s, sb, b, b + (sb > 0))
        den2 = den * den
        quotient = F(den2 + s * s, den2) / F(2) ** e2
        assert F(lo_num, lo_den) <= quotient <= F(hi_num, hi_den), (s, den)
        seen.add(2 * (max(s.bit_length() - 64, 0) - sb))
        (term,) = _certified_terms(0, den, [(1, s)])
        assert term.hex() == _term(1, den2 + s * s, den2, 0).hex(), (s, den)
    assert {-130, -128, 0, 126, 128} <= seen


def reference_graph_length(n, v):
    """L_n as an 80-digit Decimal sum over the binomial classes."""
    p, q = v.numerator, v.denominator
    r = q - p
    with localcontext() as ctx:
        ctx.prec = 80
        den = Decimal(q**n)
        total = sum(
            math.comb(n, a) * (1 + (Decimal((p**a * r ** (n - a)) << n) / den) ** 2).sqrt()
            for a in range(n + 1)
        )
        return total / (1 << n)


@pytest.mark.parametrize("v", [F(1, 4), F(1, 3), F(7, 10), F(99, 100)])
def test_graph_length_within_two_ulps_of_decimal_sum(v):
    # the fsum of per-term doubles is not the double nearest L_n; today's
    # error stays within 2 ulps (the worst seen on a wider grid is ~1.4)
    for n in (1, 8, 40, 200, 1200):
        length = graph_length(n, v)
        error = abs(Decimal(length) - reference_graph_length(n, v))
        assert error <= 2 * Decimal(math.ulp(length)), (n, error / Decimal(math.ulp(length)))


def reference_density_probe(v, depth):
    """(points, max_gap) from the union of the skew tent's preimages of 1, each
    level walked as a set of numerators over q**i and lifted to q**depth."""
    p, q = v.numerator, v.denominator
    r = q - p
    top = q**depth
    level, den = {1}, 1
    seen = {top}
    for _ in range(depth):
        den *= q
        level = {p * y for y in level} | {den - r * y for y in level}
        lift = top // den
        seen.update(y * lift for y in level)
    pts = sorted(seen)
    gaps = [pts[0]] + [b - a for a, b in zip(pts, pts[1:])] + [top - pts[-1]]
    return len(pts), F(max(gaps), top)


class TestDensity:
    def test_dyadic_vertex(self):
        report = density_probe(F(1, 2), 3)
        assert report.max_gap == F(1, 8)

    def test_depth_one(self):
        for v in (F(1, 4), F(2, 3)):
            report = density_probe(v, 1)
            assert report.points == 2
            assert report.max_gap == max(v, 1 - v)

    def test_gaps_shrink(self):
        previous = density_probe(F(1, 4), 7).max_gap
        current = density_probe(F(1, 4), 8).max_gap
        assert current < previous

    def test_points_are_iterated_preimages(self):
        v = F(1, 3)
        report = density_probe(v, 5)
        # every point reaches 1 within depth steps under the skew tent
        seen = {F(1)}
        level = {F(1)}
        for _ in range(5):
            level = {v * y for y in level} | {1 - (1 - v) * y for y in level}
            seen |= level
        assert report.points == len(seen)

    def test_depth_guard(self):
        with pytest.raises(DepthLimitError):
            density_probe(F(1, 4), 17)

    def test_matches_reference_walk(self):
        for v in VS + (F(1, 2), F(99, 100), F(2, 3), F(1, 1000)):
            for depth in range(17):
                report = density_probe(v, depth)
                expected = reference_density_probe(v, depth)
                assert (report.points, report.max_gap) == expected, (v, depth)

    def test_matches_fraction_sets(self):
        for v in VS + (F(1, 2), F(99, 100), F(2, 3)):
            level = {F(1)}
            seen = set(level)
            for depth in range(10):
                pts = sorted(seen)
                gaps = [pts[0]] + [b - a for a, b in zip(pts, pts[1:])] + [1 - pts[-1]]
                report = density_probe(v, depth)
                assert (report.points, report.max_gap) == (len(pts), max(gaps)), (v, depth)
                level = {v * y for y in level} | {1 - (1 - v) * y for y in level}
                seen |= level


def reference_ordinates(n, v):
    """The n-th iterate's numerators over q**n, rebuilt on every call: the
    builder behind the cached ordinate table."""
    p, q = v.numerator, v.denominator
    r = q - p
    ys, den = [0, 1], 1
    for _ in range(n):
        den *= q
        ys = [p * y for y in ys] + [den - r * y for y in reversed(ys[:-1])]
    return ys, den


def reference_diagnostics(n, v):
    """What ``DIAGNOSTICS`` return at (n, v), all from ``reference_ordinates``."""
    ys, den = reference_ordinates(n, v)
    slopes = [(y1 - y0) << n for y0, y1 in zip(ys, ys[1:])]
    den2 = den * den
    length = math.fsum(_term(1, den2 + s * s, den2, -n) for s in slopes)
    measures = tuple(
        F(sum(s * t.denominator >= t.numerator * den for s in slopes), 1 << n)
        for t in THRESHOLDS
    )
    gap = F(max(b - a for a, b in zip(ys, ys[1:])), den)
    return (
        ConjugacyIterate(n=n, v=v, ordinates=tuple(F(y, den) for y in ys)),
        length.hex(),
        measures,
        DensityReport(v=v, depth=n, points=len(ys) - 1, max_gap=gap),
    )


THRESHOLDS = (F(1, 2), F(1), F(2))
DIAGNOSTICS = (
    iterate_to,
    lambda n, v: graph_length(n, v, "explicit").hex(),
    lambda n, v: tuple(slope_measure(n, v, t, "explicit") for t in THRESHOLDS),
    lambda n, v: density_probe(v, n),
)


class TestOrdinateCache:
    @pytest.mark.parametrize("a, b", itertools.combinations(VS, 2))
    def test_interleaved_vertices_match_uncached_builder(self, a, b):
        expected = {(n, v): reference_diagnostics(n, v) for n in range(13) for v in (a, b)}
        # each vertex's four diagnostics in turn, then a vertex switch at every call
        for n in range(13):
            for v in (a, b):
                for i, diagnostic in enumerate(DIAGNOSTICS):
                    assert diagnostic(n, v) == expected[(n, v)][i], (n, v, i)
        for n in range(13):
            for i, diagnostic in enumerate(DIAGNOSTICS):
                for v in (b, a):
                    assert diagnostic(n, v) == expected[(n, v)][i], (n, v, i)

    def test_depth_guard_runs_before_the_cached_table(self, monkeypatch):
        v = F(1, 4)
        iterate_to(5, v)
        graph_length(5, v, "explicit")
        density_probe(v, 5)
        monkeypatch.setenv("TENTLAB_MAX_DEPTH", "4")
        with pytest.raises(DepthLimitError, match="^iterate_to"):
            iterate_to(5, v)
        with pytest.raises(DepthLimitError, match="^iterate_to"):
            slope_measure(5, v, F(1), "explicit")
        with pytest.raises(DepthLimitError, match="^iterate_to"):
            graph_length(5, v, "explicit")
        with pytest.raises(DepthLimitError, match="^density_probe"):
            density_probe(v, 5)

    def test_float_vertex_fails_after_equal_fraction_is_cached(self):
        # 0.25 == F(1, 4) and hashes alike, so a cache keyed on v would hit
        iterate_to(3, F(1, 4))
        with pytest.raises(AttributeError, match="numerator"):
            _ordinates(3, 0.25)

    def test_explicit_stream_matches_generator_expression(self):
        for v in VS + (F(1, 2), F(99, 100)):
            for n in range(13):
                ys, den = reference_ordinates(n, v)
                got_den, stream = _pieces(n, v, "explicit", "test")
                assert got_den == den
                assert list(stream) == [(1, (y1 - y0) << n) for y0, y1 in zip(ys, ys[1:])], (v, n)
