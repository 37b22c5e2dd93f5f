"""Sawtooth solutions of the commutation equation with the tent map.

For each k >= 1 the k-tooth sawtooth is the period-2 triangle wave evaluated
at kx: it rises 0 -> 1 on [0, 1/k], falls back on the next tooth, and so on.
These maps commute exactly with the tent map, and together with the constants
0 and 2/3 they exhaust the continuous solutions; :func:`classify_solution`
decides membership by exact breakpoint comparison.

The module also carries the dyadic refinement probe: starting from a dyadic
interval with nonzero secant slope it either descends into halves of strictly
larger absolute slope (when the midpoint leaves the secant) or scans deeper
dyadic sub-intervals for a defect, certifying linearity on the sampled grid
when none exists down to the depth budget.  Everything here is exact rational
arithmetic; no floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable, Iterable

from .limits import check_depth
from .piecewise import PiecewiseLinearMap
from .rationals import (
    TWO_THIRDS,
    UNIT,
    ZERO,
    dyadic_fraction,
    format_rational,
    fraction_from_reduced,
)
from .tent import tent

Evaluator = Callable[[Fraction], Fraction]

CONSTANT_ZERO = "constant_zero"
CONSTANT_TWO_THIRDS = "constant_two_thirds"
SAWTOOTH = "sawtooth"
NOT_A_SOLUTION = "not_a_solution"

_SECANT_DEPTH_BOUND = 20


def sawtooth_eval(k: int, x: Fraction) -> Fraction:
    """Value of the k-tooth sawtooth: the triangle wave at kx, exactly."""
    if k < 1:
        raise ValueError(f"tooth count must be >= 1, got {k}")
    den = x.denominator
    if x.numerator < 0 or x.numerator > den:
        raise ValueError(f"argument out of [0, 1]: {x}")
    # kx = num/den; the fractional part is rem/den, complemented on odd teeth.
    whole, rem = divmod(k * x.numerator, den)
    num = rem if whole % 2 == 0 else den - rem
    g = gcd(num, den)
    return fraction_from_reduced(num // g, den // g)


def sawtooth(k: int) -> Evaluator:
    """The k-tooth sawtooth as an exact evaluator."""

    def g(x: Fraction) -> Fraction:
        return sawtooth_eval(k, x)

    return g


def sawtooth_breakpoints(k: int) -> PiecewiseLinearMap:
    """Breakpoint form: zeros at even multiples of 1/k, ones at odd multiples."""
    if k < 1:
        raise ValueError(f"tooth count must be >= 1, got {k}")
    pts = []
    for t in range(k + 1):
        pts.append((Fraction(t, k), ZERO if t % 2 == 0 else UNIT))
    return PiecewiseLinearMap(tuple(pts))


@dataclass(frozen=True)
class CommutationReport:
    ok: bool
    witnesses: tuple[tuple[Fraction, Fraction, Fraction], ...]


def verify_commutation(g: Evaluator, samples: Iterable[Fraction]) -> CommutationReport:
    """Check g(f(x)) == f(g(x)) exactly on the samples; witnesses are failures."""
    witnesses = []
    for x in samples:
        after = g(tent(x))
        before = tent(g(x))
        if after != before:
            witnesses.append((x, after, before))
    return CommutationReport(ok=not witnesses, witnesses=tuple(witnesses))


@dataclass(frozen=True)
class Classification:
    tag: str
    k: int | None = None


def classify_solution(plm: PiecewiseLinearMap) -> Classification:
    """Decide which continuous commuting map (if any) a breakpoint list is.

    Comparison is exact on canonical breakpoints, never by sampling, so a
    single perturbed breakpoint is enough to fall out of the family.
    """
    c = plm.canonical()
    pts = c.breakpoints
    if len(pts) == 2 and pts[0][1] == pts[1][1]:
        y = pts[0][1]
        if y == 0:
            return Classification(CONSTANT_ZERO)
        if y == TWO_THIRDS:
            return Classification(CONSTANT_TWO_THIRDS)
        return Classification(NOT_A_SOLUTION)
    if pts[0] == (ZERO, ZERO) and pts[1][1] == 1 and pts[1][0].numerator == 1:
        k = pts[1][0].denominator
        if c.breakpoints == sawtooth_breakpoints(k).breakpoints:
            return Classification(SAWTOOTH, k)
    return Classification(NOT_A_SOLUTION)


def secant_slopes(g: Evaluator, n: int) -> list[Fraction]:
    """Secant slopes of g over the 2**n dyadic intervals, scaled exactly."""
    if n < 0:
        raise ValueError(f"depth must be nonnegative, got {n}")
    check_depth(n, _SECANT_DEPTH_BOUND, "secant_slopes")
    denom = 1 << n
    values = [g(Fraction(j, denom)) for j in range(denom + 1)]
    return [denom * (values[j + 1] - values[j]) for j in range(denom)]


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of the dyadic refinement probe.

    ``outcome`` is "linear" when every midpoint defect inside the final
    interval vanished down to the budget (linearity certified on that grid),
    or "trace" when the budget ran out while slopes were still growing.  The
    trace lists every interval visited as (depth, index, slope).
    """

    outcome: str
    depth: int
    index: int
    slope: Fraction
    trace: tuple[tuple[int, int, Fraction], ...]
    budget: int

    @property
    def interval(self) -> tuple[Fraction, Fraction]:
        return (
            Fraction(self.index, 1 << self.depth),
            Fraction(self.index + 1, 1 << self.depth),
        )

    def to_json_dict(self) -> dict:
        return {
            "outcome": self.outcome,
            "depth": self.depth,
            "index": self.index,
            "slope": format_rational(self.slope),
            "budget": self.budget,
            "trace": [
                [p, k, format_rational(t)] for p, k, t in self.trace
            ],
        }


def _value(g: Evaluator, num: int, depth: int) -> Fraction:
    return g(dyadic_fraction(num, depth))


def _slope(g: Evaluator, depth: int, index: int) -> Fraction:
    return (1 << depth) * (_value(g, index + 1, depth) - _value(g, index, depth))


def _off_secant(a: Fraction, b: Fraction, mid: Fraction) -> bool:
    """Whether a + b != 2*mid, by cross-multiplication (no Fraction churn)."""
    an, ad = a.numerator, a.denominator
    bn, bd = b.numerator, b.denominator
    mn, md = mid.numerator, mid.denominator
    return (an * bd + bn * ad) * md != 2 * mn * ad * bd


def _scan_for_defect(g: Evaluator, p: int, k: int, budget: int):
    """Shallowest strict sub-interval of I(p, k) with nonzero midpoint defect.

    Candidate depths run p+1 .. budget-1 (their midpoints live at depth
    <= budget); within a depth the smallest index wins.  Returns (depth,
    index) or None.  Levels are materialized one at a time so each grid point
    is evaluated once.
    """
    # Values are carried as (numerator, denominator) pairs: the defect test
    # cross-multiplies integers, never building intermediate Fractions.
    left = _value(g, k, p)
    right = _value(g, k + 1, p)
    prev = [(left.numerator, left.denominator), (right.numerator, right.denominator)]
    for level in range(p + 1, budget + 1):
        count = 1 << (level - p)
        base = k << (level - p)
        cur: list = [None] * (count + 1)
        cur[0::2] = prev
        for i in range(1, count, 2):
            v = g(dyadic_fraction(base + i, level))
            cur[i] = (v.numerator, v.denominator)
        if level >= p + 2:
            half = k << (level - 1 - p)
            for i in range(len(prev) - 1):
                an, ad = prev[i]
                bn, bd = prev[i + 1]
                mn, md = cur[2 * i + 1]
                if (an * bd + bn * ad) * md != 2 * mn * ad * bd:
                    return (level - 1, half + i)
        prev = cur
    return None


def linearity_probe(
    g: Evaluator, start: tuple[int, int], depth_budget: int = 20
) -> ProbeResult:
    """Refine from a dyadic interval with nonzero slope until linear or out of budget.

    ``depth_budget`` is the deepest dyadic interval level examined (grid
    points go one level further for midpoints).  The evaluator must commute
    with the tent map on every dyadic it is asked about; a tie between the two
    halves' absolute slopes under a nonzero defect is impossible for such
    evaluators and is reported loudly rather than resolved.
    """
    p, k = start
    if p < 0 or not (0 <= k < (1 << p)):
        raise ValueError(f"bad start interval ({p}, {k})")
    if depth_budget < p:
        raise ValueError("depth budget below start depth")
    check_depth(depth_budget, _SECANT_DEPTH_BOUND, "linearity_probe")
    t = _slope(g, p, k)
    if t == 0:
        raise ValueError("start interval has zero secant slope")
    trace = [(p, k, t)]
    while True:
        if p >= depth_budget:
            return ProbeResult("trace", p, k, t, tuple(trace), depth_budget)
        gl = _value(g, k, p)
        gr = _value(g, k + 1, p)
        gm = _value(g, 2 * k + 1, p + 1)
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
            tj = _slope(g, j, kj)
            trace.append((j, kj, tj))
            if tj != t:
                raise ValueError(
                    "slope changed across a defect-free refinement chain: "
                    "the evaluator cannot commute with the tent map"
                )
        p, k = q, s
