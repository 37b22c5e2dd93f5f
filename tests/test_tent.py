import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tentlab.limits import DepthLimitError
from tentlab.rationals import ONE, format_rational, rational_to_binary
from tentlab.sawtooth import sawtooth_eval
from tentlab.tent import (
    PreimageSet,
    _fold,
    _fold_row,
    address_to_point,
    grid_points,
    inverse_branch,
    new_grid_points,
    preimage_set,
    skew_tent,
    tent,
    tent_digits,
)
from conftest import random_unit_fraction

THIRD = Fraction(1, 3)
TWO_THIRDS = Fraction(2, 3)


def to_unit(x):
    return ONE if x == 1 else rational_to_binary(x)


def from_unit(u):
    return Fraction(1) if u is ONE else u.value()


def reference_closed_form_points(n, kind):
    """The closed forms on Fractions, sorted, kept as the slow reference."""
    scale = Fraction(1, 1 << (n - 1))
    if kind == "A":
        return [k * scale for k in range((1 << (n - 1)) + 1)]
    thirds = (THIRD, TWO_THIRDS)
    shifted = [(k + kappa) * scale for k in range(1 << (n - 1)) for kappa in thirds]
    if kind == "B":
        return sorted(shifted)
    zeros = [k * scale for k in range(1 << (n - 1))]
    return sorted(zeros + shifted + [Fraction(1)])


def reference_iterated_points(n, kind):
    """The inverse-branch pullback on Fractions, kept as the slow reference."""
    current = {"A": {Fraction(0)}, "B": {TWO_THIRDS}, "F": {Fraction(0), TWO_THIRDS}}[kind]
    for _ in range(n):
        current = {inverse_branch(0, y) for y in current} | {
            inverse_branch(1, y) for y in current
        }
    return sorted(current)


class TestTent:
    def test_examples(self):
        assert tent(Fraction(1, 2)) == 1
        assert tent(TWO_THIRDS) == TWO_THIRDS
        assert tent(Fraction(3, 4)) == Fraction(1, 2)

    def test_domain(self):
        with pytest.raises(ValueError):
            tent(Fraction(3, 2))
        with pytest.raises(ValueError):
            tent(Fraction(-1, 2))

    def test_fixed_points_in_depth_one_set(self):
        f1 = preimage_set(1, "F").points
        assert [x for x in f1 if tent(x) == x] == [0, TWO_THIRDS]

    @settings(max_examples=100)
    @given(st.fractions(min_value=0, max_value=1, max_denominator=999))
    def test_range(self, x):
        assert 0 <= tent(x) <= 1


class TestTentDigits:
    def test_examples(self):
        two_thirds = rational_to_binary(TWO_THIRDS)
        assert tent_digits(two_thirds) == two_thirds
        quarter = rational_to_binary(Fraction(1, 4))
        assert tent_digits(quarter) == rational_to_binary(Fraction(1, 2))
        three_quarters = rational_to_binary(Fraction(3, 4))
        assert tent_digits(three_quarters) == rational_to_binary(Fraction(1, 2))

    def test_endpoints(self):
        assert tent_digits(ONE).value() == 0
        assert tent_digits(rational_to_binary(Fraction(1, 2))) is ONE

    def test_agrees_with_arithmetic(self, rng):
        for _ in range(3000):
            x = random_unit_fraction(rng, 10**5)
            through_digits = tent_digits(to_unit(x))
            assert from_unit(through_digits) == tent(x), x


class TestSkewTent:
    def test_examples(self):
        v = Fraction(1, 4)
        assert skew_tent(v, v) == 1
        assert skew_tent(Fraction(1), Fraction(2, 5)) == 0
        assert skew_tent(Fraction(1, 2), v) == TWO_THIRDS

    def test_vertex_validation(self):
        with pytest.raises(ValueError):
            skew_tent(Fraction(1, 2), Fraction(1))


class TestInverseBranches:
    def test_examples(self):
        assert inverse_branch(1, Fraction(0)) == 1
        assert inverse_branch(0, Fraction(1)) == Fraction(1, 2)
        assert inverse_branch(1, Fraction(1)) == Fraction(1, 2)
        assert inverse_branch(0, Fraction(1), v=Fraction(1, 4)) == Fraction(1, 4)

    def test_sections_of_the_map(self, rng):
        v = Fraction(2, 7)
        for _ in range(300):
            y = random_unit_fraction(rng)
            assert tent(inverse_branch(0, y)) == y
            assert tent(inverse_branch(1, y)) == y
            assert skew_tent(inverse_branch(0, y, v), v) == y
            assert skew_tent(inverse_branch(1, y, v), v) == y

    def test_branch_ranges(self, rng):
        for _ in range(200):
            y = random_unit_fraction(rng)
            assert 0 <= inverse_branch(0, y) <= Fraction(1, 2)
            assert Fraction(1, 2) <= inverse_branch(1, y) <= 1


class TestAddresses:
    def test_examples(self):
        assert address_to_point((1,), Fraction(0)) == 1
        assert address_to_point((1, 0), Fraction(0)) == Fraction(1, 2)
        assert address_to_point((1, 0), Fraction(0), v=Fraction(1, 3)) == Fraction(1, 3)

    def test_collision_makes_addresses_non_unique(self):
        # both branches send 1 to 1/2, so two words of one length share a point
        assert address_to_point((1, 0), Fraction(0)) == address_to_point(
            (1, 1), Fraction(0)
        )

    def test_surjectivity_onto_grid(self):
        for n in range(1, 9):
            points = {
                address_to_point(w, Fraction(0))
                for w in itertools.product((0, 1), repeat=n)
            }
            assert points == set(grid_points(n))

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            address_to_point((), Fraction(0))


class TestPreimageSets:
    def test_json_matches_fraction_formatting(self):
        for n in range(1, 13):
            for kind in ("A", "B", "F"):
                for method in ("closed_form", "iterated"):
                    ps = preimage_set(n, kind, method)
                    expected = [format_rational(p) for p in ps.points]
                    assert ps.to_json_dict() == {"n": n, "kind": kind, "points": expected}

    def test_examples(self):
        assert preimage_set(2, "A").points == (0, Fraction(1, 2), 1)
        assert preimage_set(1, "B").points == (THIRD, TWO_THIRDS)
        assert preimage_set(2, "F").points == (
            0,
            Fraction(1, 6),
            THIRD,
            Fraction(1, 2),
            TWO_THIRDS,
            Fraction(5, 6),
            1,
        )

    def test_sizes(self):
        for n in range(1, 10):
            assert len(preimage_set(n, "A").points) == 2 ** (n - 1) + 1
            assert len(preimage_set(n, "B").points) == 2**n
            assert len(preimage_set(n, "F").points) == 3 * 2 ** (n - 1) + 1

    def test_methods_agree(self):
        for n in range(1, 13):
            for kind in "ABF":
                closed = preimage_set(n, kind, "closed_form")
                iterated = preimage_set(n, kind, "iterated")
                assert closed.points == iterated.points, (n, kind)

    @pytest.mark.parametrize("kind", ["A", "B", "F"])
    def test_lattice_generators_match_fraction_references(self, kind):
        for n in range(1, 13):
            sets = preimage_set(n, kind, "closed_form"), preimage_set(n, kind, "iterated")
            assert all(s.den == 3 << (n - 1) and s.points is s.points for s in sets)
            closed, iterated = (s.points for s in sets)
            assert list(closed) == reference_closed_form_points(n, kind), (n, kind)
            assert list(iterated) == reference_iterated_points(n, kind), (n, kind)
            assert all(type(p) is Fraction for p in closed + iterated)

    def test_union_decomposition(self):
        for n in range(1, 13):
            a = set(preimage_set(n, "A").points)
            b = set(preimage_set(n, "B").points)
            assert a | b == set(preimage_set(n, "F").points)
            assert a.isdisjoint(b)

    def test_grid_is_forward_invariant(self):
        for n in range(1, 13):
            a = set(preimage_set(n, "A").points)
            assert {tent(x) for x in a} <= a

    def test_tent_lowers_depth_by_one(self):
        for n in range(2, 13):
            a_n = preimage_set(n, "A").points
            a_prev = set(preimage_set(n - 1, "A").points)
            assert {tent(x) for x in a_n} == a_prev

    def test_points_actually_map_to_targets(self):
        for n in range(1, 8):
            for x in preimage_set(n, "B").points:
                y = x
                for _ in range(n):
                    y = tent(y)
                assert y == TWO_THIRDS

    def test_depth_guard(self, monkeypatch):
        with pytest.raises(DepthLimitError):
            preimage_set(21, "A")
        monkeypatch.setenv("TENTLAB_MAX_DEPTH", "22")
        assert len(preimage_set(21, "A").points) == 2**20 + 1

    def test_serialization(self):
        doc = preimage_set(1, "B").to_json_dict()
        assert doc == {"n": 1, "kind": "B", "points": ["1/3", "2/3"]}

    def test_invariant_enforcement(self):
        with pytest.raises(ValueError):
            PreimageSet(n=1, kind="A", den=3, numerators=(0,))
        with pytest.raises(ValueError):
            PreimageSet(n=1, kind="Z", den=3, numerators=(0, 3))

    @pytest.mark.parametrize(
        "fields, message",
        [
            ((2, "A", 6, (0, 3)), "must have 3 points"),
            ((2, "A", 6, (0, 3, 6, 9)), "must have 3 points"),
            ((2, "A", 6, (0, 6, 3)), "strictly increasing"),
            ((2, "A", 6, (0, 3, 3)), "strictly increasing"),
            ((2, "A", 6, (-3, 0, 3)), r"lie in \[0, 1\]"),
            ((2, "A", 6, (0, 3, 7)), r"lie in \[0, 1\]"),
            ((1, "B", 4, (1, 2)), "denominator at depth 1 must be 3"),
            ((1, "B", 6, (2, 4)), "denominator at depth 1 must be 3"),
            ((1, "G", 3, (1, 2)), "kind must be one of"),
            ((0, "A", 3, (0,)), "depth must be positive"),
            ((-1, "F", 3, (0,)), "depth must be positive"),
        ],
    )
    def test_invalid_constructions(self, fields, message):
        n, kind, den, numerators = fields
        with pytest.raises(ValueError, match=message):
            PreimageSet(n=n, kind=kind, den=den, numerators=numerators)


def test_new_grid_points():
    assert new_grid_points(1) == (1,)
    assert new_grid_points(2) == (Fraction(1, 2),)
    assert set(new_grid_points(3)) == {Fraction(1, 4), Fraction(3, 4)}
    for n in range(2, 10):
        assert len(new_grid_points(n)) == 2 ** (n - 2)
    for n in range(2, 15):
        # the points of grid n that grid n - 1 lacks, by set difference
        prev = set(grid_points(n - 1))
        assert new_grid_points(n) == tuple(p for p in grid_points(n) if p not in prev), n


def test_fold_matches_sawtooth_and_tent():
    for k in range(1, 20):
        for den in range(1, 40):
            for start, stop in ((0, den + 1), (1, den), (den // 3, den + 1), (den, den + 1)):
                for step in (1, 2, 3):
                    folds = [_fold(k, j, den) for j in range(start, stop, step)]
                    row = _fold_row(k, den, start, stop, step)
                    assert row == folds, (k, den, start, stop, step)
            for j in range(den + 1):
                assert Fraction(_fold(k, j, den), den) == sawtooth_eval(k, Fraction(j, den))
    for n in range(1, 9):
        den = 3 << (n - 1)
        for j in range(den + 1):
            # the tent on lattice numerators is the 2-tooth fold
            assert _fold(2, j, den) == tent(Fraction(j, den)) * den, (n, j)
