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
when none exists down to the depth budget.  The probe and
:func:`secant_slopes` read an evaluator one dyadic level at a time, as one
flat row of numerators over ``2**L``: a sawtooth through the int fold of
``tent``, any other evaluator as ``g(Fraction(j, 2**L)) * 2**L`` (a
``Fraction`` when the value is not dyadic).  Neighbours a and b of level L
then have secant slope ``b - a``, and a midpoint m of level L+1 lies on
their secant iff ``a + b == m``.  :func:`verify_commutation` reads a
sawtooth and the tent (the 2-tooth fold) through the same fold at a
Fraction sample ``j / d``.  Everything is exact; no floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Callable, Iterable

from .limits import check_depth
from .piecewise import PiecewiseLinearMap
from .rationals import TWO_THIRDS, UNIT, ZERO, format_rational
from .tent import _fold, _fold_row, tent

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
    return Fraction(_fold(k, x.numerator, den), den)


class _Sawtooth:
    """The k-tooth sawtooth as an evaluator that exposes k to the probe's reader."""

    __slots__ = ("k",)

    def __init__(self, k: int):
        if k < 1:
            raise ValueError(f"tooth count must be >= 1, got {k}")
        self.k = k

    def __call__(self, x: Fraction) -> Fraction:
        return sawtooth_eval(self.k, x)


def sawtooth(k: int) -> Evaluator:
    """The k-tooth sawtooth as an exact evaluator."""
    return _Sawtooth(k)


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
    k = g.k if isinstance(g, _Sawtooth) else None
    witnesses = []
    for x in samples:
        if k is None or not isinstance(x, Fraction):
            after, before = g(tent(x)), tent(g(x))
        elif 0 <= x.numerator <= x.denominator:
            j, d = x.numerator, x.denominator
            after, before = _fold(k, _fold(2, j, d), d), _fold(2, _fold(k, j, d), d)
            if after != before:
                after, before = Fraction(after, d), Fraction(before, d)
        else:
            raise ValueError(f"x must lie in [0, 1], got {x}")
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
    values = _read(g, n, 0, (1 << n) + 1)
    return [Fraction(b - a) for a, b in zip(values, values[1:])]


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


def _read(g: Evaluator, level: int, lo: int, hi: int, step: int = 1) -> list:
    """g at j / 2**level for j in range(lo, hi, step), as numerators over 2**level.

    A sawtooth is read through the int fold over 2**level, so its row is
    ints; any other evaluator is called on the reduced Fraction and its value
    scaled by 2**level, an integral Fraction read as its int numerator.
    """
    den = 1 << level
    if isinstance(g, _Sawtooth):
        return _fold_row(g.k, den, lo, hi, step)
    scaled = (g(Fraction(j, den)) * den for j in range(lo, hi, step))
    return [
        y.numerator if isinstance(y, Fraction) and y.denominator == 1 else y
        for y in scaled
    ]


def _slope(g: Evaluator, depth: int, index: int) -> Fraction:
    a, b = _read(g, depth, index, index + 2)
    return Fraction(b - a)


def _scan_for_defect(g: Evaluator, p: int, k: int, budget: int):
    """Shallowest strict sub-interval of I(p, k) with nonzero midpoint defect.

    Candidate depths run p+1 .. budget-1 (their midpoints live at depth
    <= budget); within a depth the smallest index wins.  Returns (depth,
    index) or None.  Levels are read one at a time so each grid point is
    evaluated once; a midpoint m between neighbours a and b of the level
    above is off their secant iff a + b != m.
    """
    prev = _read(g, p, k, k + 2)
    for level in range(p + 1, budget + 1):
        base = k << (level - p)
        # the odd points of this level
        mids = _read(g, level, base + 1, base + (1 << (level - p)), 2)
        if level >= p + 2 and list(map(add, prev, prev[1:])) != mids:
            i = next(i for i, s in enumerate(map(add, prev, prev[1:])) if s != mids[i])
            return (level - 1, (k << (level - 1 - p)) + i)
        cur = prev + mids
        cur[0::2] = map(add, prev, prev)
        cur[1::2] = mids
        prev = cur
    return None


def linearity_probe(
    g: Evaluator, start: tuple[int, int], depth_budget: int = 20
) -> ProbeResult:
    """Refine from a dyadic interval with nonzero slope until linear or out of budget.

    ``depth_budget`` is the deepest dyadic interval level examined (grid
    points go one level further for midpoints).  The evaluator must commute
    with the tent map on every dyadic it is asked about.  If it also gives
    one value per point, the halves' slopes sum to twice the parent's, so a
    defect leaves one half strictly steeper with the parent's sign, and a
    defect-free chain keeps its slope.  The three "cannot commute" refusals
    guard against evaluators whose value at a point changes between reads;
    they are reported loudly rather than resolved.
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
        gl, gr = _read(g, p, k, k + 2)
        (gm,) = _read(g, p + 1, 2 * k + 1, 2 * k + 2)
        if gl + gr != gm:
            t_left, t_right = gm - 2 * gl, 2 * gr - gm
            if abs(t_left) == abs(t_right):
                raise ValueError(
                    "halves of equal absolute slope under a nonzero defect: "
                    "the evaluator cannot commute with the tent map"
                )
            if abs(t_left) > abs(t_right):
                k, t_new = 2 * k, Fraction(t_left)
            else:
                k, t_new = 2 * k + 1, Fraction(t_right)
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
