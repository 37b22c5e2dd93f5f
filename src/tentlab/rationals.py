"""Exact rationals on the unit interval and their binary expansions.

Every value this package returns is a reduced ``fractions.Fraction`` (inner
loops work on int numerators); nothing is ever rounded.  This module adds the
one representation the rest of the code leans on: the eventually periodic
binary expansion ``0.pre(period)`` of a rational in ``[0, 1)``, stored
canonically so that equal values always compare equal digit-for-digit.

Canonical form:

* the period is never all ones (``0.x0(1)`` collapses to the terminating
  ``0.x1(0)`` form, so terminating values carry period ``(0,)``),
* the period is primitive (not a repetition of a shorter block),
* the preperiod is minimal (no trailing digit can be rotated into the period).

The value 1 has no such expansion; callers that need the closed interval use
the :data:`ONE` marker.  Digits are packed into plain integers, which keeps
shift/complement/compare linear in machine words even for periods with tens of
thousands of digits.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import lcm

ZERO = Fraction(0)
HALF = Fraction(1, 2)
UNIT = Fraction(1)
TWO_THIRDS = Fraction(2, 3)


class One:
    """Marker for the right endpoint of the unit interval.

    ``1 = 0.(1)`` would collide with the canonical all-ones exclusion, so the
    endpoint is represented out of band.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "ONE"


ONE = One()

_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$")
_EXPANSION_RE = re.compile(r"^0\.([01]*)\(([01]+)\)$")


def parse_rational(text: str) -> Fraction:
    """Parse a ``p/q`` (or bare integer) string into an exact Fraction."""
    m = _RATIONAL_RE.match(text.strip())
    if not m:
        raise ValueError(f"not a rational literal: {text!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) else 1
    if den == 0:
        raise ZeroDivisionError(f"zero denominator in {text!r}")
    return Fraction(num, den)


def format_rational(q: Fraction) -> str:
    """Serialize a Fraction as the reduced ``p/q`` wire form (q >= 1)."""
    return f"{q.numerator}/{q.denominator}"


def _bits_to_int(bits) -> tuple[int, int]:
    value = 0
    length = 0
    for bit in bits:
        if bit not in (0, 1):
            raise ValueError(f"binary digit out of range: {bit!r}")
        value = (value << 1) | bit
        length += 1
    return value, length


def _int_to_bits(value: int, length: int) -> tuple[int, ...]:
    return tuple((value >> (length - 1 - i)) & 1 for i in range(length))


def _divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


class BinaryExpansion:
    """Canonical eventually periodic binary expansion of a rational in [0, 1)."""

    __slots__ = ("_pre", "_pre_len", "_per", "_per_len")

    def __init__(self, preperiod=(), period=(0,)):
        pre, pre_len = _bits_to_int(preperiod)
        per, per_len = _bits_to_int(period)
        if per_len == 0:
            raise ValueError("period must be nonempty")
        pre, pre_len, per, per_len = _canonicalize(pre, pre_len, per, per_len)
        self._pre = pre
        self._pre_len = pre_len
        self._per = per
        self._per_len = per_len

    @classmethod
    def _from_canonical(cls, pre: int, pre_len: int, per: int, per_len: int) -> "BinaryExpansion":
        # Trusted constructor for digit streams already in minimal-period form
        # (tail/complement of a canonical expansion, codec output); still runs
        # the carry and absorb steps, which are cheap.
        self = object.__new__(cls)
        pre, pre_len, per, per_len = _canonicalize(pre, pre_len, per, per_len, check_min_period=False)
        self._pre = pre
        self._pre_len = pre_len
        self._per = per
        self._per_len = per_len
        return self

    @property
    def preperiod(self) -> tuple[int, ...]:
        return _int_to_bits(self._pre, self._pre_len)

    @property
    def period(self) -> tuple[int, ...]:
        return _int_to_bits(self._per, self._per_len)

    def value(self) -> Fraction:
        """Exact value: geometric-series sum of the digit stream."""
        whole = Fraction(self._pre, 1 << self._pre_len)
        tail = Fraction(self._per, ((1 << self._per_len) - 1) << self._pre_len)
        return whole + tail

    @property
    def first_bit(self) -> int:
        if self._pre_len:
            return (self._pre >> (self._pre_len - 1)) & 1
        return (self._per >> (self._per_len - 1)) & 1

    def tail(self) -> "BinaryExpansion":
        """Expansion of the digit stream with the first digit dropped."""
        if self._pre_len:
            mask = (1 << (self._pre_len - 1)) - 1
            return BinaryExpansion._from_canonical(
                self._pre & mask, self._pre_len - 1, self._per, self._per_len
            )
        # Purely periodic: the tail's period is the left rotation.
        top = (self._per >> (self._per_len - 1)) & 1
        rotated = ((self._per << 1) & ((1 << self._per_len) - 1)) | top
        return BinaryExpansion._from_canonical(0, 0, rotated, self._per_len)

    def complement(self) -> "BinaryExpansion":
        """Digit-wise complement of the whole stream (value ``1 - x``).

        Raises if the complement would be 1 (i.e. on the zero expansion).
        """
        pre = self._pre ^ ((1 << self._pre_len) - 1)
        per = self._per ^ ((1 << self._per_len) - 1)
        return BinaryExpansion._from_canonical(pre, self._pre_len, per, self._per_len)

    def is_zero(self) -> bool:
        return self._pre_len == 0 and self._per == 0

    @classmethod
    def parse(cls, text: str) -> "BinaryExpansion":
        m = _EXPANSION_RE.match(text.strip())
        if not m:
            raise ValueError(f"not a binary expansion literal: {text!r}")
        return cls([int(c) for c in m.group(1)], [int(c) for c in m.group(2)])

    def __str__(self) -> str:
        pre = "".join(str(b) for b in self.preperiod)
        per = "".join(str(b) for b in self.period)
        return f"0.{pre}({per})"

    def __repr__(self) -> str:
        return f"BinaryExpansion({self.preperiod!r}, {self.period!r})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, BinaryExpansion):
            return NotImplemented
        return (
            self._pre == other._pre
            and self._pre_len == other._pre_len
            and self._per == other._per
            and self._per_len == other._per_len
        )

    def __hash__(self) -> int:
        return hash((self._pre, self._pre_len, self._per, self._per_len))


def _canonicalize(
    pre: int, pre_len: int, per: int, per_len: int, check_min_period: bool = True
) -> tuple[int, int, int, int]:
    if check_min_period and per_len > 1:
        full = (1 << per_len) - 1
        for d in _divisors(per_len):
            if d == per_len:
                break
            block = per >> (per_len - d)
            if per == block * (full // ((1 << d) - 1)):
                per, per_len = block, d
                break
    if per == (1 << per_len) - 1 and per != 0:
        # All-ones period: carry into the preperiod, 0.x0(1) -> 0.x1(0).
        if pre_len == 0 or pre + 1 == (1 << pre_len):
            raise ValueError("expansion would represent 1; use the ONE marker")
        pre += 1
        per, per_len = 0, 1
    while pre_len > 0 and (pre & 1) == (per & 1):
        low = per & 1
        per = (per >> 1) | (low << (per_len - 1))
        pre >>= 1
        pre_len -= 1
    return pre, pre_len, per, per_len


def _odd_factorization(n: int) -> dict[int, int]:
    factors: dict[int, int] = {}
    d = 3
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 2
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


@lru_cache(maxsize=None)
def multiplicative_order_of_two(m: int) -> int:
    """Smallest n >= 1 with 2**n = 1 (mod m), for odd m >= 3."""
    if m < 3 or m % 2 == 0:
        raise ValueError(f"order of 2 needs an odd modulus >= 3, got {m}")
    carmichael = 1
    for p, e in _odd_factorization(m).items():
        carmichael = lcm(carmichael, (p - 1) * p ** (e - 1))
    order = carmichael
    remaining = carmichael
    d = 2
    while d * d <= remaining:
        while remaining % d == 0:
            remaining //= d
            while order % d == 0 and pow(2, order // d, m) == 1:
                order //= d
        d += 1 if d == 2 else 2
    if remaining > 1:
        while order % remaining == 0 and pow(2, order // remaining, m) == 1:
            order //= remaining
    return order


def rational_to_binary(q: Fraction) -> BinaryExpansion:
    """Canonical binary expansion of a rational in [0, 1).

    The preperiod length is the 2-adic valuation of the denominator and the
    period is one full cycle of the odd part, obtained in bulk from
    ``rem * (2**n - 1) / m`` rather than digit-by-digit long division.
    """
    if not (0 <= q < 1):
        raise ValueError(f"expansions exist for [0, 1) only, got {q}")
    num, den = q.numerator, q.denominator
    a = (den & -den).bit_length() - 1  # 2-adic valuation
    m = den >> a
    if m == 1:
        return BinaryExpansion._from_canonical(num, a, 0, 1)
    # q * 2**a = num/m, so the preperiod digits are floor(num/m).
    head, rem = divmod(num, m)
    n = multiplicative_order_of_two(m)
    repeating = rem * (((1 << n) - 1) // m)
    return BinaryExpansion._from_canonical(head, a, repeating, n)
