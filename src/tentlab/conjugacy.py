"""Piecewise linear iterates of the conjugacy between the tent and a skew tent.

Starting from the identity, one step sends h to ``v*h(2x)`` on the left half
and ``1 - (1-v)*h(2-2x)`` on the right; the iterates pin down the conjugacy on
ever finer dyadic grids (a point of the depth-n grid never moves again after
step n).  Both diagnostics, graph length and the measure of steep pieces,
are sums over the ``2**n`` dyadic pieces of the n-th iterate, and ``_pieces``
is the one walk over them.  It yields ``(count, slope)`` pairs, read off the
breakpoint table in explicit mode or taken from the binomial profile (slope
``(2v)**a (2(1-v))**(n-a)``, ``C(n, a)`` times) in aggregate mode, which stays
meaningful at depths (n in the thousands) where no table could exist.  Slopes
rather than rises are carried: the threshold test then compares against the
threshold itself, not against ``threshold / 2**n``, and a piece's length
``2**-n * sqrt(1 + slope**2)`` leaves its factor ``2**-n`` to ``_term`` as an
exponent shift, so floating point enters only in the final guarded summation.

Everything exact stays exact: tables, slope measures and gap statistics are
Fractions; only graph length (an honest irrational) is returned as a float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .limits import check_depth
from .rationals import HALF, UNIT, ZERO, dyadic_fraction
from .tent import inverse_branch

_EXPLICIT_BOUND = 24
_AGGREGATE_BOUND = 10_000
_DENSITY_BOUND = 16


def _check_vertex(v: Fraction) -> None:
    if not (0 < v < 1):
        raise ValueError(f"vertex abscissa must lie in (0, 1), got {v}")


@dataclass(frozen=True)
class ConjugacyIterate:
    """The n-th iterate as exact ordinates on the dyadic grid k / 2**n."""

    n: int
    v: Fraction
    ordinates: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.ordinates) != (1 << self.n) + 1:
            raise ValueError("iterate needs 2**n + 1 ordinates")
        if self.ordinates[0] != 0 or self.ordinates[-1] != 1:
            raise ValueError("iterate must fix 0 and 1")

    def abscissa(self, k: int) -> Fraction:
        return dyadic_fraction(k, self.n)

    def breakpoints(self) -> tuple[tuple[Fraction, Fraction], ...]:
        return tuple(
            (self.abscissa(k), y) for k, y in enumerate(self.ordinates)
        )


def identity_iterate(v: Fraction) -> ConjugacyIterate:
    _check_vertex(v)
    return ConjugacyIterate(n=0, v=v, ordinates=(ZERO, UNIT))


def h_step(cur: ConjugacyIterate) -> ConjugacyIterate:
    """One refinement step; the new grid is twice as fine."""
    check_depth(cur.n + 1, _EXPLICIT_BOUND, "h_step")
    v = cur.v
    w = 1 - v
    old = cur.ordinates
    half = 1 << cur.n
    new = [v * y for y in old]
    new.extend(1 - w * old[(half << 1) - k] for k in range(half + 1, (half << 1) + 1))
    return ConjugacyIterate(n=cur.n + 1, v=v, ordinates=tuple(new))


def iterate_to(n: int, v: Fraction) -> ConjugacyIterate:
    check_depth(n, _EXPLICIT_BOUND, "iterate_to")
    cur = identity_iterate(v)
    for _ in range(n):
        cur = h_step(cur)
    return cur


def conjugacy_value(m: int, x: Fraction, v: Fraction, cache: dict | None = None) -> Fraction:
    """h_m(x) by unfolding the recursion at one point (no table).

    A shared ``cache`` dict makes grid sweeps linear instead of quadratic.
    """
    _check_vertex(v)
    if not (0 <= x <= 1):
        raise ValueError(f"argument out of [0, 1]: {x}")
    if m < 0:
        raise ValueError(f"iterate index must be nonnegative, got {m}")
    if cache is None:
        cache = {}

    def rec(depth: int, point: Fraction) -> Fraction:
        if depth == 0:
            return point
        key = (depth, point)
        got = cache.get(key)
        if got is None:
            if point <= HALF:
                got = v * rec(depth - 1, 2 * point)
            else:
                got = 1 - (1 - v) * rec(depth - 1, 2 - 2 * point)
            cache[key] = got
        return got

    return rec(m, x)


def conjugate_point(word: Sequence[int], v: Fraction) -> Fraction:
    """Skew-tent address of a word, first letter outermost.

    Equals the stabilized iterate value at the tent address of the reversed
    word: the conjugacy sends branch-by-branch pullbacks of 0 on the tent side
    to the same pullbacks on the skew side.
    """
    if not word:
        raise ValueError("address words must be nonempty")
    _check_vertex(v)
    x = ZERO
    for bit in reversed(word):
        x = inverse_branch(bit, x, v)
    return x


def _pieces(n: int, v: Fraction, mode: str, caller: str):
    """(count, slope) over the pieces of the n-th iterate, lazily.

    Explicit mode reads each piece's slope off the breakpoint table; aggregate
    mode runs the binomial recurrence: slope ``(2v)**a (2(1-v))**(n-a)`` with
    multiplicity ``C(n, a)``.  Arguments and depth guards are checked here,
    before the first piece is asked for.
    """
    _check_vertex(v)
    if n < 0:
        raise ValueError(f"iterate index must be nonnegative, got {n}")
    if mode == "explicit":
        ys = iterate_to(n, v).ordinates
        scale = 1 << n
        return ((1, (y1 - y0) * scale) for y0, y1 in zip(ys, ys[1:]))
    if mode != "aggregate":
        raise ValueError(f"mode must be 'explicit' or 'aggregate', got {mode!r}")
    check_depth(n, _AGGREGATE_BOUND, f"{caller}[aggregate]")

    def binomial():
        w = 1 - v
        ratio = v / w
        count, slope = 1, (2 * w) ** n
        yield count, slope
        for a in range(n):
            slope *= ratio
            count = count * (n - a) // (a + 1)
            yield count, slope

    return binomial()


def _sqrt_parts(fr: Fraction) -> tuple[float, int]:
    """sqrt(fr) as (mantissa, e) with sqrt = mantissa * 2**e, overflow-safe."""
    e2 = fr.numerator.bit_length() - fr.denominator.bit_length()
    e2 -= e2 & 1
    if e2 >= 0:
        scaled = Fraction(fr.numerator, fr.denominator << e2)
    else:
        scaled = Fraction(fr.numerator << -e2, fr.denominator)
    return math.sqrt(scaled), e2 // 2


def _term(count: int, fr: Fraction, shift: int) -> float:
    """count * sqrt(fr) * 2**shift as a float, exponents tracked outside the
    mantissas."""
    root, e = _sqrt_parts(fr)
    drop = max(count.bit_length() - 53, 0)
    return math.ldexp((count >> drop) * root, e + drop + shift)


def graph_length(n: int, v: Fraction, mode: str = "aggregate") -> float:
    """Length of the n-th iterate's graph.

    Each piece of width ``2**-n`` and slope s has length
    ``2**-n * sqrt(1 + s**2)``; explicit mode takes the slopes from the
    breakpoint table, aggregate mode from the binomial profile and reaches
    depths no table could.  Radicands are exact; floats enter only at the
    final fsum.
    """
    return math.fsum(
        _term(count, 1 + slope * slope, -n)
        for count, slope in _pieces(n, v, mode, "graph_length")
    )


def slope_measure(
    n: int, v: Fraction, threshold: Fraction, mode: str = "aggregate"
) -> Fraction:
    """Exact measure of the dyadic pieces where the iterate is at least as
    steep as the threshold."""
    pieces = _pieces(n, v, mode, "slope_measure")
    return Fraction(sum(count for count, slope in pieces if slope >= threshold), 1 << n)


@dataclass(frozen=True)
class DensityReport:
    v: Fraction
    depth: int
    points: int
    max_gap: Fraction


def density_probe(v: Fraction, depth: int) -> DensityReport:
    """Union of the skew tent's preimages of 1 down to the given depth.

    The largest gap (endpoints included) shrinking with depth is the
    desk-scale trace of the density of that union.
    """
    _check_vertex(v)
    if depth < 0:
        raise ValueError(f"depth must be nonnegative, got {depth}")
    check_depth(depth, _DENSITY_BOUND, "density_probe")
    level = {UNIT}
    seen = set(level)
    w = 1 - v
    for _ in range(depth):
        level = {v * y for y in level} | {1 - w * y for y in level}
        seen |= level
    pts = sorted(seen)
    gaps = [pts[0]] + [b - a for a, b in zip(pts, pts[1:])] + [1 - pts[-1]]
    return DensityReport(v=v, depth=depth, points=len(pts), max_gap=max(gaps))
