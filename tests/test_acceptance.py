"""Acceptance suite: every criterion at its stated tolerance, one per test.

Each test prints one `[PASS] ...` line (visible with `pytest -s` or in the
captured output) so a run doubles as a checklist.  Stated runtime budgets are
asserted; unstated ones are not.
"""

import itertools
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from tentlab.commutants import (
    AddressConflict,
    audit_counts,
    brute_force_commuting,
    commutant_count_formula,
    enumerate_psi_tilde,
    psi_from_pair,
    validate_commuting_table,
)
from tentlab.conjugacy import (
    conjugacy_value,
    conjugate_point,
    graph_length,
    slope_measure,
)
from tentlab.continuation import (
    ContinuationProblem,
    continuable_audit,
    continuable_from_point,
    enumerate_continuable,
    solve_k0,
    sawtooth_matches,
)
from tentlab.piecewise import PiecewiseLinearMap, constant_plm
from tentlab.rationals import ONE, rational_to_binary
from tentlab.sawtooth import (
    NOT_A_SOLUTION,
    SAWTOOTH,
    classify_solution,
    linearity_probe,
    sawtooth,
    sawtooth_breakpoints,
    secant_slopes,
)
from tentlab.tent import (
    address_to_point,
    grid_points,
    new_grid_points,
    preimage_set,
    skew_tent,
    tent,
    tent_digits,
)

F = Fraction
GOLDEN = Path(__file__).parent / "golden"


def _passed(number, detail):
    print(f"[PASS] acceptance {number}: {detail}")


def test_01_preimage_closed_forms():
    started = time.time()
    for n in range(1, 13):
        for kind in "ABF":
            closed = preimage_set(n, kind, "closed_form")
            iterated = preimage_set(n, kind, "iterated")
            assert closed.points == iterated.points, (n, kind)
    elapsed = time.time() - started
    assert elapsed < 2.0, f"budget 2s exceeded: {elapsed:.2f}s"
    _passed(1, f"closed forms equal iterated pullback, n=1..12, {elapsed:.2f}s")


def test_02_digit_dynamics():
    rng = random.Random(0)
    samples = []
    for _ in range(10_000):
        den = rng.randrange(1, 10**6 + 1)
        samples.append(F(rng.randrange(0, den), den))
    started = time.time()
    for x in samples:
        through_digits = tent_digits(rational_to_binary(x))
        image = tent(x)
        if image == 1:
            assert through_digits is ONE, x
        else:
            assert through_digits == rational_to_binary(image), x
    elapsed = time.time() - started
    assert elapsed < 2.0, f"budget 2s exceeded: {elapsed:.2f}s"
    _passed(2, f"digit tent == arithmetic tent on 10^4 rationals, {elapsed:.2f}s")


def test_03_sawtooth_commutation():
    rng = random.Random(1)
    started = time.time()
    for k in range(1, 65):
        g = sawtooth(k)
        for _ in range(1000):
            den = rng.randrange(1, 2001)
            x = F(rng.randrange(0, den + 1), den)
            assert g(tent(x)) == tent(g(x)), (k, x)
    elapsed = time.time() - started
    assert elapsed < 5.0, f"budget 5s exceeded: {elapsed:.2f}s"
    _passed(3, f"exact commutation, k=1..64 x 10^3 samples, {elapsed:.2f}s")


def test_04_classification_round_trip():
    for k in range(1, 65):
        got = classify_solution(sawtooth_breakpoints(k))
        assert got.tag == SAWTOOTH and got.k == k
    assert classify_solution(constant_plm(F(0))).tag == "constant_zero"
    assert classify_solution(constant_plm(F(2, 3))).tag == "constant_two_thirds"
    assert classify_solution(constant_plm(F(1, 2))).tag == NOT_A_SOLUTION
    eps = F(1, 2**10)
    perturbed = 0
    for k in range(1, 65):
        base = sawtooth_breakpoints(k).breakpoints
        for i, (x, y) in enumerate(base):
            for delta in (eps, -eps):
                new_y = y + delta
                if not 0 <= new_y <= 1:
                    continue
                pts = list(base)
                pts[i] = (x, new_y)
                verdict = classify_solution(PiecewiseLinearMap(tuple(pts)))
                assert verdict.tag == NOT_A_SOLUTION, (k, i, delta)
                perturbed += 1
    _passed(4, f"round trip k=1..64, constants, {perturbed} perturbations rejected")


def test_05_commutant_counts():
    started = time.time()
    oracle = {n: brute_force_commuting(n) for n in (1, 2, 3)}
    elapsed = time.time() - started
    assert elapsed < 10.0, f"budget 10s exceeded: {elapsed:.2f}s"
    assert len(oracle[1]) == 4 == commutant_count_formula(1)
    assert len(oracle[2]) == 7  # hand-derived; the enumeration run confirms
    report = audit_counts(2)
    assert report["formula"] == 32 and report["brute_force"] == 7
    assert report["agree"] is False  # discrepancy marked, not reconciled
    for n, tables in oracle.items():
        for t in tables:
            validate_commuting_table(t)
    oracle_keys = {n: {t.key() for t in oracle[n]} for n in oracle}
    decoded = 0
    for n in (1, 2, 3):
        for encoding in enumerate_psi_tilde(n):
            try:
                table = psi_from_pair(encoding)
            except AddressConflict:
                continue
            decoded += 1
            assert table.key() in oracle_keys[n], n
    _passed(
        5,
        f"counts 4/7/{len(oracle[3])} vs formula 4/32/768, audit marks the "
        f"discrepancy, {decoded} decoded encodings all in the oracle set, "
        f"{elapsed:.2f}s",
    )


def test_06_residue_law():
    started = time.time()
    checked = 0
    for n in range(2, 7):
        for alpha in new_grid_points(n):
            for beta in grid_points(n):
                prob = ContinuationProblem(n, alpha, beta)
                solution = solve_k0(prob)
                for k in range(1, (1 << (n + 2)) + 1):
                    expected = k % solution.modulus in solution.classes
                    assert sawtooth_matches(prob, k) == expected, (prob, k)
                    checked += 1
    elapsed = time.time() - started
    assert elapsed < 10.0, f"budget 10s exceeded: {elapsed:.2f}s"
    _passed(6, f"residue law exhaustive, {checked} (n,alpha,beta,k) cases, {elapsed:.2f}s")


def test_07_pointwise_continuation():
    for n in range(2, 9):
        grid = grid_points(n)
        validated = set()
        for alpha in new_grid_points(n):
            for beta in grid:
                table = continuable_from_point(ContinuationProblem(n, alpha, beta))
                assert table.values[alpha] == beta
                if table.key() not in validated:
                    validated.add(table.key())
                    validate_commuting_table(table)
        grid_set = set(grid)
        grid_valued = [
            t for t in enumerate_continuable(n) if set(t.values.values()) <= grid_set
        ]
        for alpha in new_grid_points(n):
            values_seen = {}
            for t in grid_valued:
                val = t.values[alpha]
                assert val not in values_seen, (n, alpha)
                values_seen[val] = t
        report = continuable_audit(n)
        print(
            f"  continuable count n={n}: enumerated {report['distinct_restrictions']} "
            f"vs claimed {report['claimed']}"
        )
    _passed(7, "existence + single-point uniqueness, n=2..8, counts printed above")


def test_08_conjugacy_stabilization():
    for v in (F(1, 4), F(1, 3), F(7, 10)):
        cache = {}
        for n in range(1, 11):
            for x in grid_points(n):
                base = conjugacy_value(n, x, v, cache)
                for m in range(n, n + 11):
                    assert conjugacy_value(m, x, v, cache) == base, (v, n, x, m)
                assert skew_tent(base, v) == conjugacy_value(n, tent(x), v, cache)
        for length in range(1, 13):
            for word in itertools.product((0, 1), repeat=length):
                tent_point = address_to_point(tuple(reversed(word)), F(0))
                assert conjugate_point(word, v) == conjugacy_value(
                    length, tent_point, v, cache
                )
    _passed(8, "stabilization, grid semiconjugacy, address agreement (3 vertices)")


def test_09_length_diagnostic():
    for v in (F(1, 4), F(1, 3), F(7, 10)):
        previous = 0.0
        for n in range(0, 15):
            length = graph_length(n, v, "aggregate")
            assert previous < length <= 2.0, (v, n)
            previous = length
        for n in range(0, 13):
            explicit = graph_length(n, v, "explicit")
            aggregate = graph_length(n, v, "aggregate")
            assert abs(explicit - aggregate) <= 1e-12 * max(explicit, aggregate)
    deep = graph_length(200, F(1, 4), "aggregate")
    assert deep > 2 - 0.02
    started = time.time()
    graph_length(10_000, F(99, 100), "aggregate")
    elapsed = time.time() - started
    assert elapsed < 1.0, f"budget 1s exceeded at the guard depth: {elapsed:.2f}s"
    _passed(
        9,
        f"length increasing, bounded by 2, modes agree; n=200 gives {deep:.5f}; "
        f"n=10000 in {elapsed:.2f}s",
    )


def test_10_slope_measure_diagnostic():
    for v in (F(1, 4), F(1, 3), F(7, 10)):
        for n in range(0, 13):
            for threshold in (F(1, 2), F(1), F(3, 2)):
                assert slope_measure(n, v, threshold, "aggregate") == slope_measure(
                    n, v, threshold, "explicit"
                )
    tail = slope_measure(400, F(1, 4), F(1))
    assert tail < F(5, 1000)
    _passed(10, f"aggregate == explicit exactly (n<=12); n=400 tail {float(tail):.2e}")


def test_11_linearity_probe():
    probes = 0
    for k in range(1, 17):
        pieces = sawtooth_breakpoints(k).breakpoints
        for start_index in (0, 1):
            if secant_slopes(sawtooth(k), 1)[start_index] == 0:
                continue
            probes += 1
            result = linearity_probe(sawtooth(k), (1, start_index), 20)
            assert result.outcome == "linear", (k, start_index)
            lo, hi = result.interval
            inside = any(
                x0 <= lo and hi <= x1
                for (x0, _), (x1, _) in zip(pieces, pieces[1:])
            )
            assert inside, (k, start_index, lo, hi)
            previous = None
            for _, _, slope in result.trace:
                if previous is not None:
                    assert abs(slope) >= abs(previous), (k, start_index)
                    if slope != previous:
                        assert abs(slope) - abs(previous) >= F(1, 3), (k, start_index)
                previous = slope
    _passed(11, f"{probes} probes certified linear within depth 20, slopes grow by >= 1/3")


def test_12_cli_determinism():
    def invoke(*argv):
        return subprocess.run(
            [sys.executable, "-m", "tentlab", *argv], capture_output=True, text=True
        )

    cp = invoke("preimages", "--n", "3", "--kind", "A")
    assert cp.stdout == (GOLDEN / "preimages_n3_A.json").read_text()
    assert cp.stdout == invoke("preimages", "--n", "3", "--kind", "A").stdout

    first = invoke("commutants", "audit", "--n", "2", "--workers", "1")
    second = invoke("commutants", "audit", "--n", "2", "--workers", "2")
    assert first.returncode == second.returncode == 1
    assert first.stdout == second.stdout == (GOLDEN / "commutants_audit_n2.json").read_text()

    cp = invoke("conjugacy", "length", "--v", "1/4", "--n", "8", "--mode", "aggregate")
    assert cp.stdout == (GOLDEN / "conjugacy_length_v14_n8.json").read_text()
    assert (
        cp.stdout
        == invoke("conjugacy", "length", "--v", "1/4", "--n", "8", "--mode", "aggregate").stdout
    )
    _passed(12, "golden files byte-identical across runs and worker counts")
