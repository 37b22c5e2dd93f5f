"""The tent map, skew tents, inverse branches, and fixed-point preimage sets.

The tent map ``f(x) = 2x`` for ``x < 1/2``, ``2 - 2x`` otherwise, has fixed
points 0 and 2/3.  Three families of preimage sets drive everything else in
the package:

* kind ``A``: the depth-n preimages of 0, the dyadic grid ``k / 2**(n-1)``,
* kind ``B``: the depth-n preimages of 2/3, the shifted thirds grid,
* kind ``F``: their union, the preimages of the fixed-point set.

Both a closed-form generator and an inverse-branch pullback are provided and
must agree; tests hold them against each other.

The lattice.  At depth n every one of these points, and every value a
commuting table can take, is ``j / D`` with ``D = 3 * 2**(n-1)`` and
``0 <= j <= D``: kind ``A`` is ``j = 0 mod 3``, kind ``B`` is ``j = 1, 2 mod
3`` and kind ``F`` is every ``j``, in increasing order, so index ``j`` of the
kind-F points is ``j / D``.  On numerators the tent map is ``j -> 2j`` or
``2D - 2j``, the 2-tooth case of the sawtooth fold ``_fold`` (row form
``_fold_row``) that every layer folding on ints calls, and its inverse
branches are ``j -> j/2`` and ``D - j/2``.  The preimage generators work on
these ints: a :class:`PreimageSet` stores ``D`` and its increasing
numerators, checks them as ints, and builds its ``points`` as Fractions only
on first access.  A commuting table is stored
as its row of numerators in grid order, read through a view of the kind-F
points.

Addresses.  A word ``(j1, ..., jm)`` names the point obtained by feeding a
base point through the inverse branches with ``j1`` applied first (innermost).
Addresses are *not* unique: both branches send 1 to 1/2, so the words (1, 0)
and (1, 1) address the same point.  Code that inverts the address map must
treat fibers as sets, never assume singletons.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import repeat
from math import gcd
from operator import lt
from typing import Sequence

from .limits import check_depth
from .rationals import (
    HALF,
    ONE,
    BinaryExpansion,
)

PREIMAGE_KINDS = ("A", "B", "F")
_DEFAULT_DEPTH_BOUND = 20


def _require_unit_interval(x: Fraction, name: str = "x") -> None:
    if not (0 <= x <= 1):
        raise ValueError(f"{name} must lie in [0, 1], got {x}")


def _check_vertex(v: Fraction) -> None:
    if not (0 < v < 1):
        raise ValueError(f"vertex abscissa must lie in (0, 1), got {v}")


def tent(x: Fraction) -> Fraction:
    """One step of the tent map, exactly."""
    _require_unit_interval(x)
    if x < HALF:
        return 2 * x
    return 2 - 2 * x


def tent_digits(b):
    """Tent map acting on binary digit streams.

    A leading 0 is dropped; a leading 1 is dropped and the rest of the stream
    is complemented.  Takes and returns either a canonical
    :class:`BinaryExpansion` or the :data:`ONE` marker, and agrees exactly
    with :func:`tent` through the codec.
    """
    if b is ONE:
        return BinaryExpansion()
    if not isinstance(b, BinaryExpansion):
        raise TypeError(f"expected BinaryExpansion or ONE, got {type(b).__name__}")
    rest = b.tail()
    if b.first_bit == 0:
        return rest
    if rest.is_zero():
        # Only 1/2 = 0.1(0) maps to the endpoint.
        return ONE
    return rest.complement()


def skew_tent(x: Fraction, v: Fraction) -> Fraction:
    """Skew tent with vertex at (v, 1): x/v on [0, v], (1-x)/(1-v) after."""
    _require_unit_interval(x)
    _check_vertex(v)
    if x <= v:
        return x / v
    return (1 - x) / (1 - v)


def inverse_branch(bit: int, y: Fraction, v: Fraction | None = None) -> Fraction:
    """Inverse branch ``bit`` of the tent map (or of the skew tent when v is given).

    Tent: branch 0 is y/2 onto [0, 1/2], branch 1 is 1 - y/2 onto [1/2, 1].
    Skew: branch 0 is v*y onto [0, v], branch 1 is 1 - (1-v)*y onto [v, 1].
    """
    if bit not in (0, 1):
        raise ValueError(f"branch index must be 0 or 1, got {bit!r}")
    _require_unit_interval(y, "y")
    if v is None:
        return y / 2 if bit == 0 else 1 - y / 2
    _check_vertex(v)
    return v * y if bit == 0 else 1 - (1 - v) * y


def address_to_point(
    word: Sequence[int], base: Fraction, v: Fraction | None = None
) -> Fraction:
    """Evaluate the address word at a base point, first letter innermost."""
    if not word:
        raise ValueError("address words must be nonempty")
    _require_unit_interval(base, "base")
    x = base
    for bit in word:
        x = inverse_branch(bit, x, v)
    return x


@dataclass(frozen=True)
class PreimageSet:
    """Sorted exact preimage set of one of the fixed-point targets: the points
    ``j / den`` for j in ``numerators``, ``den = 3 * 2**(n-1)``, cached as ``points``."""

    n: int
    kind: str
    den: int
    numerators: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in PREIMAGE_KINDS:
            raise ValueError(f"kind must be one of {PREIMAGE_KINDS}, got {self.kind!r}")
        if self.n < 1:
            raise ValueError(f"depth must be positive, got {self.n}")
        if self.den != 3 << (self.n - 1):
            raise ValueError(f"denominator at depth {self.n} must be {3 << (self.n - 1)}")
        nums = self.numerators
        expected = {
            "A": (1 << (self.n - 1)) + 1,
            "B": 1 << self.n,
            "F": 3 * (1 << (self.n - 1)) + 1,
        }[self.kind]
        if len(nums) != expected:
            raise ValueError(
                f"kind {self.kind} at depth {self.n} must have {expected} points, "
                f"got {len(nums)}"
            )
        if not all(map(lt, nums, nums[1:])):
            raise ValueError("points must be strictly increasing")
        if not (0 <= nums[0] and nums[-1] <= self.den):
            raise ValueError("points must lie in [0, 1]")

    @cached_property
    def points(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(j, self.den) for j in self.numerators)

    def to_json_dict(self) -> dict:
        # j / den reduced by its gcd, as format_rational writes Fraction(j, den)
        nums, den = self.numerators, self.den
        gcds = map(gcd, nums, repeat(den))
        return {
            "n": self.n,
            "kind": self.kind,
            "points": [f"{j // g}/{den // g}" for j, g in zip(nums, gcds)],
        }


def _fold(k: int, num: int, den: int) -> int:
    """Numerator over den of the k-tooth sawtooth at num/den: the triangle
    wave folds r = k*num mod 2*den back to 2*den - r above den."""
    r = k * num % (den << 1)
    return r if r <= den else (den << 1) - r


def _fold_row(k: int, den: int, start: int, stop: int, step: int = 1) -> list[int]:
    """``[_fold(k, j, den) for j in range(start, stop, step)]``, without a call
    per element (k >= 1, step >= 1)."""
    wrap = den << 1
    return [den - abs(t % wrap - den) for t in range(k * start, k * stop, k * step)]


def _closed_form_numerators(n: int, kind: str) -> tuple[int, ...]:
    # A is j = 0 mod 3, B is j = 1, 2 mod 3, F is every j
    den = 3 << (n - 1)
    if kind == "A":
        return tuple(range(0, den + 1, 3))
    if kind == "B":
        return tuple(j for j in range(den) if j % 3)
    return tuple(range(den + 1))


def _iterated_numerators(n: int, kind: str) -> tuple[int, ...]:
    # Numerators over 3 * 2**n: 2/3 is 2**(n+1), and each pullback halves,
    # so every y is even when it is halved, and at the end.
    den = 3 << n
    targets = {"A": [0], "B": [2 << n], "F": [0, 2 << n]}[kind]
    current = set(targets)
    for _ in range(n):
        # Both branches collide on the preimage of 1, hence the set.
        current = {y >> 1 for y in current} | {den - (y >> 1) for y in current}
    return tuple(y >> 1 for y in sorted(current))


def preimage_set(n: int, kind: str, method: str = "closed_form") -> PreimageSet:
    """Depth-n preimage set of 0 (A), 2/3 (B), or both fixed points (F)."""
    if kind not in PREIMAGE_KINDS:
        raise ValueError(f"kind must be one of {PREIMAGE_KINDS}, got {kind!r}")
    if n < 1:
        raise ValueError(f"depth must be positive, got {n}")
    check_depth(n, _DEFAULT_DEPTH_BOUND, "preimage_set")
    if method == "closed_form":
        numerators = _closed_form_numerators(n, kind)
    elif method == "iterated":
        numerators = _iterated_numerators(n, kind)
    else:
        raise ValueError(f"method must be 'closed_form' or 'iterated', got {method!r}")
    return PreimageSet(n=n, kind=kind, den=3 << (n - 1), numerators=numerators)


@lru_cache(maxsize=64)
def grid_points(n: int) -> tuple[Fraction, ...]:
    """The kind-A grid at depth n (k / 2**(n-1)), the domain of finite tables."""
    return preimage_set(n, "A").points


@lru_cache(maxsize=64)
def new_grid_points(n: int) -> tuple[Fraction, ...]:
    """Points of the depth-n grid that are not already at depth n-1."""
    return grid_points(n)[1::2]
