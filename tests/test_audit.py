"""The audit's residue, continuation and commutation claims against their
Fraction-bound versions, kept here as references.

The references call the audited functions through the ``audit`` module, as
the audit does, so a fault injected there reaches both.
"""

from fractions import Fraction

import pytest

from tentlab import audit, continuation
from tentlab.commutants import _lattice_table
from tentlab.continuation import (
    ContinuationProblem,
    ContinuationSolution,
    sawtooth_matches,
    sawtooth_restriction,
)
from tentlab.rationals import format_rational
from tentlab.sawtooth import CommutationReport
from tentlab.tent import grid_points, new_grid_points, tent

F = Fraction


def reference_residue_claims():
    """One ``sawtooth_matches`` call on Fractions per (n, alpha, beta, k)."""
    failures = []
    for n in range(2, 7):
        for alpha in new_grid_points(n):
            for beta in grid_points(n):
                prob = ContinuationProblem(n, alpha, beta)
                sol = audit.solve_k0(prob)
                for k in range(1, (1 << (n + 2)) + 1):
                    if sawtooth_matches(prob, k) != (k % sol.modulus in sol.classes):
                        failures.append(
                            {"n": n, "alpha": format_rational(alpha), "k": k}
                        )
    return [
        audit._claim(
            "matching-tooth-residues",
            "a sawtooth hits (alpha, beta) iff its tooth count lies in the "
            "+/-k0 residue classes mod 2**n",
            "equivalence for n = 2..6, k up to 4 * 2**n",
            {"failures": failures},
            audit.CONFIRMED if not failures else audit.REFUTED,
        )
    ]


def reference_continuation_claims():
    """Existence and uniqueness read through ``values[alpha]`` lookups."""
    existence_failures = []
    uniqueness_failures = []
    for n in range(2, 9):
        for alpha in new_grid_points(n):
            for beta in grid_points(n):
                table = audit.continuable_from_point(ContinuationProblem(n, alpha, beta))
                if table.values[alpha] != beta:
                    existence_failures.append({"n": n, "alpha": format_rational(alpha)})
        audit.validate_commuting_table(
            audit.continuable_from_point(
                ContinuationProblem(n, new_grid_points(n)[0], grid_points(n)[0])
            )
        )
        grid_valued = [
            t
            for t in audit.enumerate_continuable(n)
            if all(j % 3 == 0 for j in t.values.row)
        ]
        for alpha in new_grid_points(n):
            seen: dict = {}
            for t in grid_valued:
                other = seen.get(t.values[alpha])
                if other is not None and other.values != t.values:
                    uniqueness_failures.append({"n": n, "alpha": format_rational(alpha)})
                seen[t.values[alpha]] = t
    audits = [audit.continuable_audit(n) for n in range(1, 9)]
    claims_ok = all(a["matches_claim"] for a in audits)
    return [
        audit._claim(
            "pointwise-continuation",
            "for every newest-level alpha and grid beta some continuable table "
            "sends alpha to beta",
            "existence for n = 2..8",
            {"failures": existence_failures},
            audit.CONFIRMED if not existence_failures else audit.REFUTED,
        ),
        audit._claim(
            "continuation-uniqueness",
            "grid-valued continuable tables agreeing at one newest-level point "
            "are identical",
            "uniqueness for n = 2..8",
            {"failures": uniqueness_failures},
            audit.CONFIRMED if not uniqueness_failures else audit.REFUTED,
        ),
        audit._claim(
            "continuable-count",
            "claimed 2**(n-1) continuable tables vs the enumerated restrictions",
            [{"n": a["n"], "claimed": a["claimed"]} for a in audits],
            audits,
            audit.CONFIRMED if claims_ok else audit.REFUTED,
        ),
    ]


def reference_verify_commutation(g, samples):
    """g(f(x)) == f(g(x)) on Fractions, through ``tent`` and g."""
    witnesses = []
    for x in samples:
        after = g(tent(x))
        before = tent(g(x))
        if after != before:
            witnesses.append((x, after, before))
    return CommutationReport(ok=not witnesses, witnesses=tuple(witnesses))


def _failures(claims):
    return [claim["computed"]["failures"] for claim in claims[:2]]


class TestResidues:
    def test_matches_reference(self):
        assert audit._residue_claims() == reference_residue_claims()

    def test_shifted_k0_fails_alike(self, monkeypatch):
        faulty = {(3, F(1, 4), F(1, 2)), (5, F(3, 16), F(0)), (5, F(3, 16), F(1, 16))}
        solve = continuation.solve_k0

        def shifted(prob):
            sol = solve(prob)
            if (prob.n, prob.alpha, prob.beta) not in faulty:
                return sol
            k0 = (sol.k0 + 1) % sol.modulus
            return ContinuationSolution(k0, sol.modulus, frozenset({k0, -k0 % sol.modulus}))

        monkeypatch.setattr(audit, "solve_k0", shifted)
        got = audit._residue_claims()
        assert got == reference_residue_claims()
        failures = got[0]["computed"]["failures"]
        assert got[0]["verdict"] == audit.REFUTED
        assert [f["alpha"] for f in failures][0] == "1/4"
        assert {f["n"] for f in failures} == {3, 5}

    def test_dropped_class_fails_alike(self, monkeypatch):
        faulty = {(2, F(1, 2), F(1, 2)), (4, F(5, 8), F(3, 8)), (6, F(7, 32), F(9, 32))}
        solve = continuation.solve_k0

        def dropped(prob):
            sol = solve(prob)
            if (prob.n, prob.alpha, prob.beta) not in faulty:
                return sol
            return ContinuationSolution(sol.k0, sol.modulus, frozenset({sol.k0}))

        monkeypatch.setattr(audit, "solve_k0", dropped)
        got = audit._residue_claims()
        assert got == reference_residue_claims()
        failures = got[0]["computed"]["failures"]
        assert got[0]["verdict"] == audit.REFUTED
        # the -k0 class alone goes missing: 4 tooth counts per faulty problem
        assert len(failures) == 12
        assert {f["n"] for f in failures} == {2, 4, 6}
        deepest = [f["k"] for f in failures if f["n"] == 6]
        assert deepest == sorted(deepest) and len({k % 64 for k in deepest}) == 1


class TestContinuation:
    def test_matches_reference(self):
        assert audit._continuation_claims() == reference_continuation_claims()

    def test_wrong_restriction_fails_alike(self, monkeypatch):
        faulty = {(2, F(1, 2), F(1)), (6, F(5, 32), F(3, 32)), (6, F(31, 32), F(0))}
        point = continuation.continuable_from_point

        def wrong(prob):
            if (prob.n, prob.alpha, prob.beta) not in faulty:
                return point(prob)
            # k + 1 is never in the +/-k0 classes of the least witness k
            k = continuation.solve_k0(prob).smallest_witness()
            return sawtooth_restriction(prob.n, k + 1)

        monkeypatch.setattr(audit, "continuable_from_point", wrong)
        got = audit._continuation_claims()
        assert got == reference_continuation_claims()
        assert _failures(got) == [
            [{"n": 2, "alpha": "1/2"}, {"n": 6, "alpha": "5/32"}, {"n": 6, "alpha": "31/32"}],
            [],
        ]

    def test_colliding_tables_fail_alike(self, monkeypatch):
        enumerate_continuable = continuation.enumerate_continuable

        def with_collision(n):
            tables = enumerate_continuable(n)
            if n != 3:
                return tables
            # agrees with the constant 0 at the newest points 1/4 and 3/4; its
            # repeat is compared with the last table seen, and agrees with it
            collision = _lattice_table(3, (0, 0, 3, 0, 0))
            return [*tables, collision, collision]

        monkeypatch.setattr(audit, "enumerate_continuable", with_collision)
        got = audit._continuation_claims()
        assert got == reference_continuation_claims()
        assert _failures(got) == [[], [{"n": 3, "alpha": "1/4"}, {"n": 3, "alpha": "3/4"}]]


class TestSawtoothCommutation:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_reference(self, seed, monkeypatch):
        got = audit._sawtooth_commutation_claim(seed)
        monkeypatch.setattr(audit, "verify_commutation", reference_verify_commutation)
        assert got == audit._sawtooth_commutation_claim(seed)
