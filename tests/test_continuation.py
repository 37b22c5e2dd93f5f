from dataclasses import FrozenInstanceError, asdict
from fractions import Fraction
from functools import lru_cache

import pytest

from tentlab import continuation
from tentlab.commutants import (
    CommutingTable,
    _lattice_table,
    brute_force_commuting,
    validate_commuting_table,
)
from tentlab.continuation import (
    ContinuationProblem,
    ContinuationVerdict,
    _restriction_row,
    constant_table,
    continuable_audit,
    continuable_from_point,
    enumerate_continuable,
    is_tent_continuable,
    sawtooth_matches,
    sawtooth_restriction,
    solve_k0,
)
from tentlab.limits import DepthLimitError
from tentlab.rationals import TWO_THIRDS, ZERO
from tentlab.sawtooth import sawtooth_eval
from tentlab.tent import _fold, grid_points, new_grid_points

F = Fraction


@lru_cache(maxsize=None)
def reference_sawtooth_tables(n):
    """Every sawtooth restriction built from ``sawtooth_eval``, k = 1..2**n."""
    grid = grid_points(n)
    return tuple(
        CommutingTable(n, ZERO, {x: sawtooth_eval(k, x) for x in grid})
        for k in range(1, (1 << n) + 1)
    )


def reference_continuable(n):
    """Distinct restrictions and constants, deduplicated and sorted on ``key()``."""
    tables = {}
    constants = [constant_table(n, c) for c in (ZERO, TWO_THIRDS)]
    for table in [*reference_sawtooth_tables(n), *constants]:
        tables.setdefault(table.key(), table)
    return [tables[key] for key in sorted(tables)]


def reference_is_tent_continuable(t):
    """The exhaustive scan over the constants and k = 1..2**n, kept as the reference."""
    values = dict(t.values)
    grid = grid_points(t.n)
    for c in (ZERO, TWO_THIRDS):
        if values == {x: c for x in grid}:
            return ContinuationVerdict(continuable=True, constant=c)
    for k, table in enumerate(reference_sawtooth_tables(t.n), start=1):
        if values == table.values:
            return ContinuationVerdict(continuable=True, witness_k=k)
    return ContinuationVerdict(continuable=False)


def reference_rows(n):
    """Restriction rows of every k = 1..2**n, and those with the two constants."""
    size = (1 << (n - 1)) + 1
    sawtooths = {_restriction_row(n, k) for k in range(1, (1 << n) + 1)}
    return sawtooths, sawtooths | {(0,) * size, (1 << n,) * size}


def all_problems(n):
    return [
        ContinuationProblem(n, alpha, beta)
        for alpha in new_grid_points(n)
        for beta in grid_points(n)
    ]


class TestProblemValidation:
    def test_alpha_must_be_newest_level(self):
        with pytest.raises(ValueError):
            ContinuationProblem(3, F(1, 2), F(0))  # depth-2 point, not newest at 3
        with pytest.raises(ValueError):
            ContinuationProblem(2, F(0), F(0))

    def test_beta_must_be_on_grid(self):
        with pytest.raises(ValueError):
            ContinuationProblem(2, F(1, 2), F(1, 3))

    def test_parameters(self):
        prob = ContinuationProblem(3, F(3, 4), F(1, 4))
        assert prob.s == 1 and prob.p == 1
        prob = ContinuationProblem(1, F(1), F(1))
        assert prob.s == 0 and prob.p == 1

    def test_derived_parameters_are_not_fields(self):
        read = ContinuationProblem(3, F(3, 4), F(1, 4))
        assert (read.s, read.p) == (1, 1)
        fresh = ContinuationProblem(3, F(3, 4), F(1, 4))
        assert read == fresh and hash(read) == hash(fresh)
        assert repr(read) == repr(fresh) == (
            "ContinuationProblem(n=3, alpha=Fraction(3, 4), beta=Fraction(1, 4))"
        )
        assert asdict(read) == asdict(fresh) == {"n": 3, "alpha": F(3, 4), "beta": F(1, 4)}
        with pytest.raises(FrozenInstanceError):
            read.n = 4


class TestProblemErrors:
    """Type and message of each rejection, as the Fraction comparisons gave them."""

    @pytest.mark.parametrize(
        "n, alpha, beta, message",
        [
            (0, F(1), F(0), "depth must be positive, got 0"),
            (-2, F(1), F(0), "depth must be positive, got -2"),
            (3, F(5, 4), F(0), "alpha and beta must lie in [0, 1]"),
            (3, F(-1, 4), F(0), "alpha and beta must lie in [0, 1]"),
            (3, F(1, 4), F(5, 4), "alpha and beta must lie in [0, 1]"),
            (3, F(1, 4), F(-1, 4), "alpha and beta must lie in [0, 1]"),
            (1, 1, 2, "alpha and beta must lie in [0, 1]"),
            (1, F(0), F(0), "alpha must be an odd numerator over 2**0, got 0"),
            (1, 0, 0, "alpha must be an odd numerator over 2**0, got 0"),
            (3, F(1, 2), F(0), "alpha must be an odd numerator over 2**2, got 1/2"),
            (3, F(1, 8), F(0), "alpha must be an odd numerator over 2**2, got 1/8"),
            (3, F(1), F(0), "alpha must be an odd numerator over 2**2, got 1"),
            (3, F(1, 4), F(1, 3), "beta must lie on the depth-3 grid, got 1/3"),
            (3, F(1, 4), F(1, 8), "beta must lie on the depth-3 grid, got 1/8"),
            (2, F(1, 2), TWO_THIRDS, "beta must lie on the depth-2 grid, got 2/3"),
        ],
    )
    def test_message(self, n, alpha, beta, message):
        with pytest.raises(ValueError) as err:
            ContinuationProblem(n, alpha, beta)
        assert type(err.value) is ValueError and str(err.value) == message

    def test_restriction_missing_beta(self, monkeypatch):
        # the k+1 restriction misses beta wherever the k restriction hits it
        monkeypatch.setattr(
            continuation, "sawtooth_restriction", lambda n, k: sawtooth_restriction(n, k + 1)
        )
        with pytest.raises(AssertionError) as err:
            continuable_from_point(ContinuationProblem(3, F(3, 4), F(1, 4)))
        assert str(err.value) == (
            "solver produced k=3 but the restriction misses beta at alpha=3/4"
        )


class TestSolver:
    def test_examples(self):
        sol = solve_k0(ContinuationProblem(2, F(1, 2), F(1, 2)))
        assert sol.k0 == 1 and sol.classes == {1, 3} and sol.modulus == 4
        sol = solve_k0(ContinuationProblem(3, F(3, 4), F(1, 4)))
        assert sol.k0 == 3 and sol.classes == {3, 5}
        sol = solve_k0(ContinuationProblem(2, F(1, 2), F(0)))
        assert sol.k0 == 0 and sol.classes == {0}
        assert sol.smallest_witness() == 4

    def test_self_paired_endpoints(self):
        # beta = 0 and beta = 1 give single residue classes
        for n in (2, 3, 4):
            alpha = new_grid_points(n)[0]
            assert len(solve_k0(ContinuationProblem(n, alpha, F(0))).classes) == 1
            assert len(solve_k0(ContinuationProblem(n, alpha, F(1))).classes) == 1

    def test_congruence_defines_k0(self):
        for prob in all_problems(4):
            sol = solve_k0(prob)
            assert (sol.k0 * (2 * prob.s + 1) - prob.p) % sol.modulus == 0


class TestMatches:
    def test_examples(self):
        assert sawtooth_matches(ContinuationProblem(2, F(1, 2), F(1, 2)), 3)
        assert not sawtooth_matches(ContinuationProblem(2, F(1, 2), F(1, 2)), 2)
        assert sawtooth_matches(ContinuationProblem(3, F(3, 4), F(1, 4)), 5)

    def test_plus_minus_law_exhaustive(self):
        for n in range(2, 7):
            for prob in all_problems(n):
                sol = solve_k0(prob)
                for k in range(1, (1 << (n + 2)) + 1):
                    expected = k % sol.modulus in sol.classes
                    assert sawtooth_matches(prob, k) == expected, (prob, k)


class TestRestrictions:
    def test_restriction_periodicity(self):
        # the restriction depends on the tooth count only through +/-k mod 2**n
        for n in (2, 3, 4, 5):
            modulus = 1 << n
            for k in range(1, modulus + 1):
                base = sawtooth_restriction(n, k)
                for other in (k + modulus, modulus - k if k < modulus else modulus):
                    if other >= 1:
                        assert (
                            sawtooth_restriction(n, other).values == base.values
                        ), (n, k, other)

    def test_restrictions_commute(self):
        for n in (1, 2, 3, 6):
            for k in range(1, (1 << n) + 1):
                validate_commuting_table(sawtooth_restriction(n, k))

    def test_restriction_is_read_only(self):
        table = sawtooth_restriction(3, 5)
        expected = dict(table.values)
        with pytest.raises(TypeError):
            table.values[F(1, 4)] = F(2, 3)
        with pytest.raises(TypeError):
            del table.values[F(0)]
        assert sawtooth_restriction(3, 5).values == expected

    def test_rows_match_the_sawtooth_fold(self):
        # each row is the fold of tent over 3 * 2**(n-1), read at the grid's
        # numerators; held here against the fold over 2**(n-1), times 3
        for n in range(1, 11):
            half = 1 << (n - 1)
            for k in range(1, (1 << n) + 3):
                folded = tuple(3 * _fold(k, i, half) for i in range(half + 1))
                assert _restriction_row(n, k) == folded, (n, k)

    def test_grid_values_stay_on_grid(self):
        for n in (2, 4, 6):
            grid = set(grid_points(n))
            for k in (1, 3, 2 ** n - 1, 2 ** n):
                assert set(sawtooth_restriction(n, k).values.values()) <= grid


class TestContinuableFromPoint:
    def test_examples(self):
        t = continuable_from_point(ContinuationProblem(2, F(1, 2), F(1, 2)))
        assert dict(t.values) == {F(0): F(0), F(1, 2): F(1, 2), F(1): F(1)}
        t = continuable_from_point(ContinuationProblem(2, F(1, 2), F(0)))
        assert dict(t.values) == {F(0): F(0), F(1, 2): F(0), F(1): F(0)}
        t = continuable_from_point(ContinuationProblem(2, F(1, 2), F(1)))
        assert dict(t.values) == {F(0): F(0), F(1, 2): F(1), F(1): F(0)}

    def test_existence_everywhere(self):
        for n in range(2, 9):
            for prob in all_problems(n):
                table = continuable_from_point(prob)
                assert table.values[prob.alpha] == prob.beta

    def test_produced_tables_commute(self):
        for n in range(2, 7):
            seen = set()
            for prob in all_problems(n):
                table = continuable_from_point(prob)
                if table.key() not in seen:
                    seen.add(table.key())
                    validate_commuting_table(table)


class TestIsContinuable:
    def test_witnesses(self):
        verdict = is_tent_continuable(sawtooth_restriction(3, 1))
        assert verdict.continuable and verdict.witness_k == 1
        verdict = is_tent_continuable(constant_table(1, TWO_THIRDS))
        assert verdict.continuable and verdict.constant == TWO_THIRDS

    def test_oracle_decides_spec_edge_case(self):
        table = CommutingTable(2, ZERO, {F(0): F(0), F(1): F(0), F(1, 2): F(1)})
        validate_commuting_table(table)
        verdict = is_tent_continuable(table)
        assert verdict.continuable and verdict.witness_k == 2

    def test_commuting_but_not_continuable(self):
        table = CommutingTable(
            2, TWO_THIRDS, {F(0): F(2, 3), F(1): F(1, 3), F(1, 2): F(1, 6)}
        )
        validate_commuting_table(table)
        assert not is_tent_continuable(table).continuable

    def test_agrees_with_enumeration(self):
        keys = {t.key() for t in enumerate_continuable(4)}
        for t in brute_force_commuting(4):
            assert is_tent_continuable(t).continuable == (t.key() in keys)


class TestDecisionAtAlpha:
    """The one-restriction decision gives the verdict of the exhaustive scan."""

    @staticmethod
    def assert_same(table):
        assert is_tent_continuable(table) == reference_is_tent_continuable(table), table

    def test_oracle_tables(self):
        for n in range(1, 5):
            for t in brute_force_commuting(n):
                self.assert_same(t)
                self.assert_same(CommutingTable(t.n, t.x0, dict(t.values)))

    def test_sawtooth_restrictions(self):
        for n in range(1, 9):
            for k in range(1, (1 << n) + 3):
                self.assert_same(sawtooth_restriction(n, k))

    def test_constants(self):
        for n in range(1, 9):
            for c in (ZERO, TWO_THIRDS):
                self.assert_same(constant_table(n, c))
                assert is_tent_continuable(constant_table(n, c)).constant == c

    def test_off_grid_value_at_alpha(self):
        for n in (1, 2, 3, 5):
            alpha = F(1, 1 << (n - 1))
            for beta in (F(1, 5), TWO_THIRDS):
                values = {x: beta if x == alpha else ZERO for x in grid_points(n)}
                table = CommutingTable(n, ZERO, values)
                self.assert_same(table)
                assert not is_tent_continuable(table).continuable

    def test_missing_value_at_alpha(self):
        table = CommutingTable(2, ZERO, {F(0): F(0), F(1): F(0)})
        self.assert_same(table)
        assert not is_tent_continuable(table).continuable


class TestEnumerate:
    def test_depth_one(self):
        tables = enumerate_continuable(1)
        got = sorted(tuple(sorted(t.values.items())) for t in tables)
        assert got == sorted(
            [
                ((F(0), F(0)), (F(1), F(0))),
                ((F(0), F(0)), (F(1), F(1))),
                ((F(0), F(2, 3)), (F(1), F(2, 3))),
            ]
        )

    def test_counts(self):
        for n in range(1, 9):
            tables = enumerate_continuable(n)
            assert len(tables) == 2 ** (n - 1) + 2
            for t in tables:
                validate_commuting_table(t)

    def test_single_point_determination(self):
        # grid-valued continuable tables are pinned by one newest-level value
        for n in range(2, 9):
            grid = set(grid_points(n))
            grid_valued = [
                t
                for t in enumerate_continuable(n)
                if set(t.values.values()) <= grid
            ]
            assert len(grid_valued) == 2 ** (n - 1) + 1
            for alpha in new_grid_points(n):
                seen = {}
                for t in grid_valued:
                    val = t.values[alpha]
                    assert val not in seen, (n, alpha)
                    seen[val] = t

    def test_depth_guard(self):
        with pytest.raises(DepthLimitError):
            enumerate_continuable(11)


class TestAudit:
    def test_report_shape(self):
        report = continuable_audit(2)
        assert report == {
            "n": 2,
            "distinct_restrictions": 4,
            "sawtooth_restriction_count": 3,
            "with_constants": 4,
            "claimed": 2,
            "matches_claim": False,
        }

    def test_claim_never_matches_the_enumeration(self):
        for n in range(1, 9):
            report = continuable_audit(n)
            assert report["claimed"] == 2 ** (n - 1)
            assert report["distinct_restrictions"] == report["claimed"] + 2
            assert not report["matches_claim"]

    def test_counts_match_the_built_tables(self):
        for n in range(1, 9):
            report = continuable_audit(n)
            sawtooth_keys = {sawtooth_restriction(n, k).key() for k in range(1, (1 << n) + 1)}
            assert report["sawtooth_restriction_count"] == len(sawtooth_keys)
            assert report["distinct_restrictions"] == len(enumerate_continuable(n))
            assert report["with_constants"] == report["distinct_restrictions"]


class TestLatticeRows:
    def test_restrictions_match_sawtooth_eval(self):
        for n in range(1, 9):
            for k, table in enumerate(reference_sawtooth_tables(n), start=1):
                got = sawtooth_restriction(n, k)
                assert list(got.values.items()) == list(table.values.items()), (n, k)

    def test_enumeration_matches_reference(self):
        for n in range(1, 9):
            got = enumerate_continuable(n)
            expected = reference_continuable(n)
            # equal tables in equal order, items in grid order
            assert [(t.n, t.x0, list(t.values.items())) for t in got] == [
                (t.n, t.x0, sorted(t.values.items())) for t in expected
            ], n

    def test_audit_matches_reference(self):
        for n in range(1, 9):
            sawtooth_keys = {t.key() for t in reference_sawtooth_tables(n)}
            distinct = len(reference_continuable(n))
            assert continuable_audit(n) == {
                "n": n,
                "distinct_restrictions": distinct,
                "sawtooth_restriction_count": len(sawtooth_keys),
                "with_constants": distinct,
                "claimed": 1 << (n - 1),
                "matches_claim": distinct == 1 << (n - 1),
            }

    def test_rows_of_one_k_per_class_match_every_k(self):
        for n in range(1, 11):
            sawtooths, rows = continuation._rows(n)
            assert (sawtooths, rows) == reference_rows(n), n
            assert type(sawtooths) is frozenset and type(rows) is frozenset
            assert len(sawtooths) == 2 ** (n - 1) + 1
            assert len(rows) == 2 ** (n - 1) + 2
            assert continuation._rows(n) is continuation._rows(n)

    def test_enumeration_and_audit_match_every_k(self):
        for n in range(1, 11):
            sawtooths, rows = reference_rows(n)
            got = enumerate_continuable(n)
            assert [t.values.row for t in got] == sorted(rows), n
            assert got == [_lattice_table(n, row) for row in sorted(rows)], n
            assert continuable_audit(n) == {
                "n": n,
                "distinct_restrictions": len(rows),
                "sawtooth_restriction_count": len(sawtooths),
                "with_constants": len(rows),
                "claimed": 1 << (n - 1),
                "matches_claim": len(rows) == 1 << (n - 1),
            }, n

    @pytest.mark.parametrize("n", [0, -1])
    def test_depth_must_be_positive(self, n):
        with pytest.raises(ValueError, match=f"depth must be positive, got {n}"):
            enumerate_continuable(n)
        with pytest.raises(ValueError, match=f"depth must be positive, got {n}"):
            continuable_audit(n)
