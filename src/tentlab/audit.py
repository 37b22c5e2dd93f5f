"""One-shot audit of every desk-checkable claim the package implements.

Each claim is recomputed from scratch and reported as claimed value vs
computed value with a verdict: ``confirmed``, ``refuted_at_this_n`` (the
computation disagrees at the audited sizes), or ``not_desk_checkable`` (a
limit statement; monotone finite-size bounds are printed instead).  Refuted
claims are expected output, not failures: the point of the audit is to show
exactly which counts survive enumeration.

The product oracle's rows are computed once per process and shared: the
encoding, fiber and count claims all read the same cached scan.  The residue
claim groups the tooth counts k by their fold at alpha = i / 2**(n-1) once per
alpha; for each beta = p / 2**(n-1) it compares the group of p, as a set, with
the k in the classes ``solve_k0`` returns.  The continuation claim compares row
slot i with 3p.  They still call ``solve_k0`` and ``continuable_from_point``
for every (alpha, beta).  The bijection claim's
fibers come from a level-by-level walk over the encodings that counts a
conflicting level's whole subtree at once; only the round trip of each
enumerated table goes through ``psi_from_pair``.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .commutants import (
    audit_counts,
    brute_force_commuting,
    check_psi_tilde,
    count_extension_argument,
    count_recursion,
    pair_fiber_stats,
    pair_from_psi,
    psi_from_pair,
    validate_commuting_table,
)
from .conjugacy import conjugacy_value, graph_length, slope_measure
from .continuation import (
    ContinuationProblem,
    continuable_audit,
    continuable_from_point,
    enumerate_continuable,
    solve_k0,
)
from .rationals import format_rational
from .sawtooth import _fold, sawtooth, verify_commutation
from .tent import grid_points, new_grid_points, preimage_set

CONFIRMED = "confirmed"
REFUTED = "refuted_at_this_n"
NOT_DESK_CHECKABLE = "not_desk_checkable"


def _claim(cid: str, description: str, claimed, computed, verdict: str) -> dict:
    return {
        "id": cid,
        "description": description,
        "claimed": claimed,
        "computed": computed,
        "verdict": verdict,
    }


def _preimage_claims(depth: int) -> list[dict]:
    mismatches = []
    union_fails = []
    for n in range(1, depth + 1):
        closed = {}
        for kind in ("A", "B", "F"):
            closed[kind] = preimage_set(n, kind, "closed_form").numerators
            if closed[kind] != preimage_set(n, kind, "iterated").numerators:
                mismatches.append({"n": n, "kind": kind})
        if set(closed["A"]) | set(closed["B"]) != set(closed["F"]):
            union_fails.append(n)
    return [
        _claim(
            "preimage-closed-forms",
            "closed-form grids for the preimage sets equal branch-pullback "
            "enumeration, and the fixed-point set splits as the union of the "
            "zero and two-thirds preimages",
            f"exact equality for n = 1..{depth}",
            {"mismatches": mismatches, "union_failures": union_fails},
            CONFIRMED if not (mismatches or union_fails) else REFUTED,
        )
    ]


def _sawtooth_commutation_claim(seed: int) -> dict:
    rng = random.Random(seed)
    failures = []
    for k in range(1, 65):
        samples = [Fraction(rng.randrange(0, 1201), 1200) for _ in range(64)]
        report = verify_commutation(sawtooth(k), samples)
        if not report.ok:
            failures.append(k)
    return _claim(
        "sawtooth-commutation",
        "every k-tooth sawtooth commutes with the tent map",
        "exact commutation for all k",
        {"k_range": [1, 64], "failures": failures},
        CONFIRMED if not failures else REFUTED,
    )


def _encoding_claims(max_n: int) -> list[dict]:
    bound = min(max_n, 3)
    property_failures = []
    round_trip_failures = []
    for n in range(1, bound + 1):
        for table in brute_force_commuting(n):
            encoding = pair_from_psi(table)
            if check_psi_tilde(encoding):
                property_failures.append(table.to_json_dict())
            if psi_from_pair(encoding).values != table.values:
                round_trip_failures.append(table.to_json_dict())
    stats = [pair_fiber_stats(n) for n in range(1, bound + 1)]
    claims = [
        _claim(
            "word-encoding-properties",
            "every commuting table encodes as a word map satisfying length "
            "preservation, prefix consistency and the pinned all-zero prefix, "
            "and decodes back to itself",
            "encode/decode round trip for every enumerated table",
            {
                "tables_checked": True,
                "property_failures": property_failures,
                "round_trip_failures": round_trip_failures,
            },
            CONFIRMED
            if not (property_failures or round_trip_failures)
            else REFUTED,
        ),
        _claim(
            "word-encoding-bijection",
            "claimed one-to-one correspondence between commuting tables and "
            "encoding pairs",
            "every fiber a singleton, no conflicting pairs",
            stats,
            CONFIRMED if all(s["bijective"] for s in stats) else REFUTED,
        ),
    ]
    return claims


def _count_claims(max_n: int, workers: int) -> list[dict]:
    per_n = [audit_counts(n, workers=workers) for n in range(1, max_n + 1)]
    count_ok = all(r["formula"] == r["brute_force"] for r in per_n)
    recursion_rows = [
        {
            "n": n,
            "recursion_8": count_recursion(n),
            "extension_argument": count_extension_argument(n),
        }
        for n in range(1, max(max_n, 3) + 1)
    ]
    recursion_ok = all(
        row["recursion_8"] == row["extension_argument"] for row in recursion_rows
    )
    return [
        _claim(
            "commutant-count",
            "closed-form count of commuting tables vs exhaustive enumeration",
            [{"n": r["n"], "formula": r["formula"]} for r in per_n],
            per_n,
            CONFIRMED if count_ok else REFUTED,
        ),
        _claim(
            "count-recursion-consistency",
            "the claimed per-level recursion factor 8*(2**n - 1) vs the "
            "2 * 4**(2**n - 1) extensions its own construction provides",
            "factors agree at every level",
            recursion_rows,
            CONFIRMED if recursion_ok else REFUTED,
        ),
    ]


def _residue_claims() -> list[dict]:
    failures = []
    for n in range(2, 7):
        top = 1 << (n + 2)
        for alpha in new_grid_points(n):
            # the k = 1..top that send alpha to each fold value p
            hits: dict[int, set[int]] = {}
            for k in range(1, top + 1):
                hits.setdefault(_fold(k, alpha.numerator, alpha.denominator), set()).add(k)
            for beta in grid_points(n):
                prob = ContinuationProblem(n, alpha, beta)
                sol = solve_k0(prob)
                matches = {
                    k for c in sol.classes for k in range(c or sol.modulus, top + 1, sol.modulus)
                }
                failures += [
                    {"n": n, "alpha": format_rational(alpha), "k": k}
                    for k in sorted(hits[prob.p] ^ matches)
                ]
    return [
        _claim(
            "matching-tooth-residues",
            "a sawtooth hits (alpha, beta) iff its tooth count lies in the "
            "+/-k0 residue classes mod 2**n",
            "equivalence for n = 2..6, k up to 4 * 2**n",
            {"failures": failures},
            CONFIRMED if not failures else REFUTED,
        )
    ]


def _continuation_claims() -> list[dict]:
    existence_failures = []
    uniqueness_failures = []
    for n in range(2, 9):
        for alpha in new_grid_points(n):
            for beta in grid_points(n):
                prob = ContinuationProblem(n, alpha, beta)
                if continuable_from_point(prob).values.row[alpha.numerator] != 3 * prob.p:
                    existence_failures.append({"n": n, "alpha": format_rational(alpha)})
        validate_commuting_table(
            continuable_from_point(
                ContinuationProblem(n, new_grid_points(n)[0], grid_points(n)[0])
            )
        )
        # the value j / (3 * 2**(n-1)) is dyadic iff 3 divides j
        rows = [t.values.row for t in enumerate_continuable(n)]
        grid_valued = [row for row in rows if all(j % 3 == 0 for j in row)]
        for alpha in new_grid_points(n):
            i = alpha.numerator
            seen: dict = {}
            for row in grid_valued:
                if seen.get(row[i], row) != row:
                    uniqueness_failures.append({"n": n, "alpha": format_rational(alpha)})
                seen[row[i]] = row
    audits = [continuable_audit(n) for n in range(1, 9)]
    claims_ok = all(a["matches_claim"] for a in audits)
    return [
        _claim(
            "pointwise-continuation",
            "for every newest-level alpha and grid beta some continuable table "
            "sends alpha to beta",
            "existence for n = 2..8",
            {"failures": existence_failures},
            CONFIRMED if not existence_failures else REFUTED,
        ),
        _claim(
            "continuation-uniqueness",
            "grid-valued continuable tables agreeing at one newest-level point "
            "are identical",
            "uniqueness for n = 2..8",
            {"failures": uniqueness_failures},
            CONFIRMED if not uniqueness_failures else REFUTED,
        ),
        _claim(
            "continuable-count",
            "claimed 2**(n-1) continuable tables vs the enumerated restrictions",
            [{"n": a["n"], "claimed": a["claimed"]} for a in audits],
            audits,
            CONFIRMED if claims_ok else REFUTED,
        ),
    ]


def _conjugacy_claims() -> list[dict]:
    stabilization_failures = []
    for v in (Fraction(1, 4), Fraction(1, 3), Fraction(7, 10)):
        cache: dict = {}
        for n in range(1, 7):
            for x in grid_points(n):
                base = conjugacy_value(n, x, v, cache)
                if any(
                    conjugacy_value(m, x, v, cache) != base for m in range(n, n + 7)
                ):
                    stabilization_failures.append(
                        {"v": format_rational(v), "n": n, "x": format_rational(x)}
                    )
    lengths = {n: graph_length(n, Fraction(1, 4), "aggregate") for n in (10, 50, 100, 200)}
    monotone = all(
        lengths[a] < lengths[b] <= 2.0 for a, b in ((10, 50), (50, 100), (100, 200))
    )
    measures = {
        n: float(slope_measure(n, Fraction(1, 4), Fraction(1)))
        for n in (50, 100, 200, 400)
    }
    shrinking = all(
        measures[a] > measures[b] for a, b in ((50, 100), (100, 200), (200, 400))
    )
    return [
        _claim(
            "iterate-stabilization",
            "grid points stop moving once the iterate resolves their depth",
            "exact stabilization, three vertex choices, n = 1..6",
            {"failures": stabilization_failures},
            CONFIRMED if not stabilization_failures else REFUTED,
        ),
        _claim(
            "graph-length-limit",
            "the conjugacy graph length tends to 2 (limit claim)",
            "limit = 2",
            {
                "lower_bounds": {str(n): length for n, length in lengths.items()},
                "monotone_and_bounded": monotone,
            },
            NOT_DESK_CHECKABLE,
        ),
        _claim(
            "flat-slope-measure",
            "the conjugacy derivative vanishes almost everywhere (limit claim)",
            "measure of steep pieces tends to 0",
            {
                "steep_measure_at": {str(n): m for n, m in measures.items()},
                "shrinking": shrinking,
            },
            NOT_DESK_CHECKABLE,
        ),
    ]


def claims_audit(max_n: int = 3, seed: int = 0, workers: int = 1) -> dict:
    """Recompute every audited claim and report verdicts side by side."""
    if max_n < 1 or max_n > 3:
        raise ValueError("audit enumeration depth must be between 1 and 3")
    claims: list[dict] = []
    claims += _preimage_claims(12)
    claims.append(_sawtooth_commutation_claim(seed))
    claims += _encoding_claims(max_n)
    claims += _count_claims(max_n, workers)
    claims += _residue_claims()
    claims += _continuation_claims()
    claims += _conjugacy_claims()
    verdicts = [c["verdict"] for c in claims]
    return {
        "max_n": max_n,
        "seed": seed,
        "claims": claims,
        "confirmed": verdicts.count(CONFIRMED),
        "refuted_at_this_n": verdicts.count(REFUTED),
        "not_desk_checkable": verdicts.count(NOT_DESK_CHECKABLE),
    }
