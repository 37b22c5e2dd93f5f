"""Piecewise linear iterates of the conjugacy between the tent and a skew tent.

Starting from the identity, one step sends h to ``v*h(2x)`` on the left half
and ``1 - (1-v)*h(2-2x)`` on the right; the iterates pin down the conjugacy on
ever finer dyadic grids (a point of the depth-n grid never moves again after
step n).  ``h_step`` is that step on Fractions, kept as the one-step reference.

With ``v = p/q`` in lowest terms and ``r = q - p``, all the n-th iterate
carries lies on the lattice ``N / q**n``: its ordinates, its piece slopes
(``2**n`` times a rise) and the skew tent's preimages of 1 down to depth n.
So the hot paths run on integer numerators over ``den = q**n``, and Fractions
are built only for returned values.

Both diagnostics, graph length and the measure of steep pieces, are sums over
the ``2**n`` dyadic pieces of the n-th iterate, and ``_pieces`` is the one
walk over them.  It yields ``(count, slope_num)`` pairs over ``den``, read off
the ordinates in explicit mode or taken from the binomial profile (slope
``(2v)**a (2(1-v))**(n-a)``, ``C(n, a)`` times) in aggregate mode, which stays
meaningful at depths (n in the thousands) where no table could exist.  A
piece's length ``2**-n * sqrt(1 + slope**2)`` leaves its factor ``2**-n`` to
``_term`` as an exponent shift.  Floating point enters per term, not only at
the final sum: ``_term`` floors each piece count to 53 bits and rounds each
term up to three times (the radicand's division, the square root, the
product with the count), and graph length is the ``fsum`` of those doubles,
so it need not be the double nearest the true length.  The exact radicand
``den**2 + slope_num**2`` has ~2n log2(q) bits, of which ~55 reach the double,
so aggregate mode (``_certified_terms``) bounds each quotient by 64-bit
truncations of ``slope_num`` and ``den`` instead: when both bounds round to
one double, that is the double of the exact quotient, and otherwise the exact
quotient is formed; either way the terms are ``_term``'s.  The explicit stream
has ``2**n`` pieces but at most ``n + 1`` distinct slopes, so explicit graph
length computes one double per distinct ``(count, slope_num)`` pair and hands
it to ``fsum`` once per piece: the same doubles as a per-piece walk, and
``fsum`` rounds their exact sum once, whatever their order.  The aggregate slope
measure skips the walk: the slope is monotone in ``a``, so it bisects for
the threshold crossing and sums a binomial tail.

Everything exact stays exact: tables, slope measures and gap statistics are
Fractions; only graph length (an honest irrational) is returned as a float.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from operator import sub
from typing import Sequence

from .limits import check_depth
from .rationals import HALF, UNIT, ZERO
from .tent import _check_vertex, inverse_branch

_EXPLICIT_BOUND = 24
_AGGREGATE_BOUND = 10_000
_DENSITY_BOUND = 16


def _check_index(n: int) -> None:
    if n < 0:
        raise ValueError(f"iterate index must be nonnegative, got {n}")


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
        return Fraction(k, 1 << self.n)

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


def _ordinates(n: int, v: Fraction) -> tuple[list[int], int]:
    """The n-th iterate's ordinates as numerators over ``den = q**n``.

    ``h_step`` on the lattice: the left half is ``p*y`` and the right half
    ``den' - r*y`` read backwards, over the next denominator ``den' = q*den``.
    """
    check_depth(n, _EXPLICIT_BOUND, "iterate_to")
    _check_vertex(v)
    _check_index(n)
    p, q = v.numerator, v.denominator
    r = q - p
    ys, den = [0, 1], 1
    for _ in range(n):
        den *= q
        ys = [p * y for y in ys] + [den - r * y for y in reversed(ys[:-1])]
    return ys, den


def iterate_to(n: int, v: Fraction) -> ConjugacyIterate:
    ys, den = _ordinates(n, v)
    return ConjugacyIterate(n=n, v=v, ordinates=tuple(Fraction(y, den) for y in ys))


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
    """``(den, stream)``: the n-th iterate's pieces as lazy ``(count, slope_num)``
    pairs, each slope being ``slope_num / den`` with ``den = q**n``.

    Explicit mode reads each piece's slope off the ordinates; aggregate mode
    runs the binomial recurrence: slope numerator ``p**a r**(n-a) << n`` with
    multiplicity ``C(n, a)``.  Arguments and depth guards are checked here,
    before the first piece is asked for.
    """
    _check_vertex(v)
    _check_index(n)
    if mode == "explicit":
        ys, den = _ordinates(n, v)
        return den, ((1, (y1 - y0) << n) for y0, y1 in zip(ys, ys[1:]))
    if mode != "aggregate":
        raise ValueError(f"mode must be 'explicit' or 'aggregate', got {mode!r}")
    check_depth(n, _AGGREGATE_BOUND, f"{caller}[aggregate]")
    p, q = v.numerator, v.denominator
    r = q - p

    def binomial():
        # slope carries r**(n-a) until step a, so the division is exact
        count, slope = 1, r**n << n
        yield count, slope
        for a in range(n):
            slope = slope * p // r
            count = count * (n - a) // (a + 1)
            yield count, slope

    return q**n, binomial()


def _sqrt_parts(num: int, den: int) -> tuple[float, int]:
    """sqrt(num/den) as (mantissa, e) with sqrt = mantissa * 2**e, overflow-safe.

    ``int / int`` rounds correctly and ``e2`` is even, so ``mantissa * 2**e``
    is the same whether or not num/den is reduced.
    """
    e2 = num.bit_length() - den.bit_length()
    e2 -= e2 & 1
    if e2 >= 0:
        return math.sqrt(num / (den << e2)), e2 // 2
    return math.sqrt((num << -e2) / den), e2 // 2


def _term(count: int, num: int, den: int, shift: int) -> float:
    """count * sqrt(num/den) * 2**shift as a float, exponents tracked outside
    the mantissas."""
    root, e = _sqrt_parts(num, den)
    drop = max(count.bit_length() - 53, 0)
    return math.ldexp((count >> drop) * root, e + drop + shift)


def _quotient_bounds(s: int, sb: int, b: int, b1: int) -> tuple[int, int, int, int, int]:
    """``(e2, lo_num, lo_den, hi_num, hi_den)`` with the radicand quotient
    ``R = 1 + (s/den)**2`` enclosed as ``lo_num/lo_den <= R * 2**-e2 <= hi_num/hi_den``.

    ``den`` lies in ``[b, b1] * 2**sb`` (its top 64 bits and their round-up);
    ``s`` is truncated the same way to ``[a, a1] * 2**sa``, so ``s/den`` lies in
    ``[a/b1, a1/b] * 2**(d2/2)`` with ``d2 = 2*(sa - sb)``, and every bound is
    an int of at most ~256 bits instead of the ``den**2``-sized radicand.
    """
    sa = max(s.bit_length() - 64, 0)
    a = s >> sa
    a1 = a + (sa > 0)
    d2 = 2 * (sa - sb)
    if d2 <= -128:
        # sb >= 64 puts b at 2**63 or more, so (s/den)**2 <= 2**-126
        return 0, 1, 1, (1 << 126) + 1, 1 << 126
    if d2 >= 128:
        # R > (s/den)**2 below; above, 1 <= 2**d2 / b**2 as b < 2**64
        return d2, a * a, b1 * b1, a1 * a1 + 1, b * b
    up, down = max(d2, 0), max(-d2, 0)
    lo_den, hi_den = b1 * b1 << down, b * b << down
    return 0, lo_den + (a * a << up), lo_den, hi_den + (a1 * a1 << up), hi_den


def _certified_terms(n: int, den: int, pieces):
    """The aggregate pieces' doubles, each the one ``_term`` gives for
    ``count * sqrt(1 + (s/den)**2) * 2**-n``.

    Round-to-nearest is monotone, so when both ends of ``_quotient_bounds``
    round to one double that is the double of the exact quotient; otherwise
    the exact quotient is formed as ``_term`` forms it.  The even ``e2``
    moves only the exponent, so the square root and the product with the
    floored count round as in ``_term``.
    """
    sb = max(den.bit_length() - 64, 0)
    b = den >> sb
    b1 = b + (sb > 0)
    den2 = den * den
    for count, s in pieces:
        e2, lo_num, lo_den, hi_num, hi_den = _quotient_bounds(s, sb, b, b1)
        quotient = lo_num / lo_den
        if quotient == hi_num / hi_den:
            root, e = math.sqrt(quotient), e2 // 2
        else:
            root, e = _sqrt_parts(den2 + s * s, den2)
        drop = max(count.bit_length() - 53, 0)
        yield math.ldexp((count >> drop) * root, e + drop - n)


def graph_length(n: int, v: Fraction, mode: str = "aggregate") -> float:
    """Length of the n-th iterate's graph.

    Each piece of width ``2**-n`` and slope s has length
    ``2**-n * sqrt(1 + s**2)``; explicit mode takes the slopes from the
    breakpoint table, aggregate mode from the binomial profile and reaches
    depths no table could.  Aggregate quotients ``1 + s**2`` are certified
    from 64-bit truncations, with the exact quotient as fallback, so each is
    the correctly rounded double of the exact one; the result is the
    ``fsum`` of per-term doubles: ``_term`` floors each count to 53 bits and
    rounds each term up to three times (division, square root, product), so
    the float can sit an ulp or two off the true length.  Explicit mode
    computes one double per distinct slope and sums it once per piece; the
    result is still the ``fsum`` of per-piece doubles.  Multiplying a class's
    double by its piece count instead would round differently.
    """
    den, pieces = _pieces(n, v, mode, "graph_length")
    if mode == "explicit":
        den2 = den * den
        return math.fsum(
            chain.from_iterable(
                repeat(_term(count, den2 + s * s, den2, -n), times)
                for (count, s), times in Counter(pieces).items()
            )
        )
    return math.fsum(_certified_terms(n, den, pieces))


def _binomial_prefix(n: int, m: int) -> int:
    """sum of C(n, b) for b < m."""
    total, count = 0, 1
    for b in range(m):
        total += count
        count = count * (n - b) // (b + 1)
    return total


def _steep_count(n: int, v: Fraction, td: int, bar: int) -> int:
    """Number of pieces with ``slope_num * td >= bar``, off the binomial profile.

    Indexed by the number b of factors ``min(p, r)``, the slope numerator
    ``max(p, r)**(n-b) min(p, r)**b << n`` never increases, so the steep
    classes are ``b < k`` for a k found by bisection; they hold
    ``sum C(n, b), b < k`` pieces, summed on the shorter side of
    ``C(n, b) = C(n, n-b)``.
    """
    p = v.numerator
    r = v.denominator - p
    big, small = max(p, r), min(p, r)
    lo, hi = 0, n + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if (big ** (n - mid) * small**mid * td) << n >= bar:
            lo = mid + 1
        else:
            hi = mid
    if 2 * lo > n + 1:
        return (1 << n) - _binomial_prefix(n, n + 1 - lo)
    return _binomial_prefix(n, lo)


def slope_measure(
    n: int, v: Fraction, threshold: Fraction, mode: str = "aggregate"
) -> Fraction:
    """Exact measure of the dyadic pieces where the iterate is at least as
    steep as the threshold."""
    den, pieces = _pieces(n, v, mode, "slope_measure")
    td = threshold.denominator
    bar = threshold.numerator * den  # slope_num / den >= threshold
    if mode == "explicit":
        steep = sum(count for count, s in pieces if s * td >= bar)
    else:
        steep = _steep_count(n, v, td, bar)
    return Fraction(steep, 1 << n)


@dataclass(frozen=True)
class DensityReport:
    v: Fraction
    depth: int
    points: int
    max_gap: Fraction


def density_probe(v: Fraction, depth: int) -> DensityReport:
    """Union of the skew tent's preimages of 1 down to the given depth.

    The largest gap (endpoints included) shrinking with depth is the
    desk-scale trace of the density of that union.  The conjugacy sends the
    tent's preimages of 1 down to that depth, the dyadics ``k / 2**depth``
    with ``k >= 1``, increasingly onto the union, so its points are the
    ordinates of the iterate at that depth, 0 left out, and its gaps are
    their differences.
    """
    _check_vertex(v)
    if depth < 0:
        raise ValueError(f"depth must be nonnegative, got {depth}")
    check_depth(depth, _DENSITY_BOUND, "density_probe")
    ys, den = _ordinates(depth, v)
    max_gap = Fraction(max(map(sub, ys[1:], ys)), den)
    return DensityReport(v=v, depth=depth, points=len(ys) - 1, max_gap=max_gap)
