"""Which finite commuting tables extend to continuous solutions.

A table on the depth-n grid is continuable when some continuous commuting map
restricts to it; by the classification those are exactly the constants 0 and
2/3 and the sawtooth family.  Whether the k-tooth sawtooth sends a
newest-level grid point alpha = (2s+1)/2**(n-1) to beta = p/2**(n-1) is a
congruence on k: the matching k form the residue classes +/-k0 mod 2**n,
where k0 is p times the modular inverse of the odd unit 2s+1.  That solver
makes pointwise continuation constructive, and restriction only depends on
the class of k mod 2**n up to sign, so one k per class, k = 1..2**(n-1) and
2**n, plus the constants exhausts all restrictions.

The claimed count of continuable tables (2**(n-1)) is audited against the
enumeration, never assumed.

On the lattice of ``tent`` the k-tooth restriction is a row of the fold of
``tent``, read at the grid's numerators.  Tables wrap such rows through the
lattice constructor of ``commutants``, so their ``values`` are read-only views.
Problems are validated on ints, and a point is checked by slot: alpha =
i/2**(n-1) is slot i, where beta = p/2**(n-1) is 3p.  The decision reads one
value, at alpha = 1/2**(n-1), which fixes the restriction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .commutants import CommutingTable, _lattice_table
from .limits import check_depth
from .rationals import TWO_THIRDS, ZERO
from .tent import _fold, _fold_row, grid_points

_ENUM_BOUND = 10


@dataclass(frozen=True)
class ContinuationProblem:
    """Ask for a continuable table sending alpha (newest level) to beta.

    Construction also sets two ints that are not fields: ``s`` with
    alpha = (2s+1) / 2**(n-1), and ``p`` with beta = p / 2**(n-1).
    """

    n: int
    alpha: Fraction
    beta: Fraction

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"depth must be positive, got {self.n}")
        scale = 1 << (self.n - 1)
        a, ad = self.alpha.numerator, self.alpha.denominator
        b, bd = self.beta.numerator, self.beta.denominator
        if not (0 <= a <= ad and 0 <= b <= bd):
            raise ValueError("alpha and beta must lie in [0, 1]")
        if ad != scale or a % 2 == 0:
            raise ValueError(
                f"alpha must be an odd numerator over 2**{self.n - 1}, got {self.alpha}"
            )
        if scale % bd != 0:
            raise ValueError(f"beta must lie on the depth-{self.n} grid, got {self.beta}")
        # read several times per problem; a cached_property would cost more
        object.__setattr__(self, "s", (a - 1) // 2)
        object.__setattr__(self, "p", b * (scale // bd))


@dataclass(frozen=True)
class ContinuationSolution:
    k0: int
    modulus: int
    classes: frozenset[int]

    def smallest_witness(self) -> int:
        """Least positive k in the classes (the modulus itself for the zero class)."""
        return min(c or self.modulus for c in self.classes)


def solve_k0(prob: ContinuationProblem) -> ContinuationSolution:
    """Residue k0 with k0*(2s+1) = p (mod 2**n); matching k are +/-k0."""
    modulus = 1 << prob.n
    inverse = pow(2 * prob.s + 1, -1, modulus)
    k0 = (prob.p * inverse) % modulus
    return ContinuationSolution(
        k0=k0, modulus=modulus, classes=frozenset({k0, (-k0) % modulus})
    )


def sawtooth_matches(prob: ContinuationProblem, k: int) -> bool:
    """Does the k-tooth sawtooth send alpha to beta?  (Exactly the +/-k0 classes.)"""
    if k < 1:
        raise ValueError(f"tooth count must be >= 1, got {k}")
    alpha, beta = prob.alpha, prob.beta
    value = _fold(k, alpha.numerator, alpha.denominator)
    return value * beta.denominator == beta.numerator * alpha.denominator


def _restriction_row(n: int, k: int) -> tuple[int, ...]:
    """The k-tooth sawtooth on the depth-n grid, as numerators over 3 * 2**(n-1).

    The grid point i / 2**(n-1) is the numerator 3i over that denominator.
    """
    den = 3 << (n - 1)
    return tuple(_fold_row(k, den, 0, den + 1, 3))


@lru_cache(maxsize=4096)
def _restriction_values(n: int, k: int) -> CommutingTable:
    """The k-tooth restriction, cached and shared: its values are read-only."""
    return _lattice_table(n, _restriction_row(n, k))


@lru_cache(maxsize=_ENUM_BOUND)
def _rows(n: int) -> tuple[frozenset, frozenset]:
    """Distinct restriction rows, built once per +/-k class mod 2**n (k =
    1..2**(n-1) and 2**n), and those with the two constants; cached, so frozen."""
    size = len(grid_points(n))
    ks = (*range(1, (1 << (n - 1)) + 1), 1 << n)
    sawtooths = frozenset(_restriction_row(n, k) for k in ks)
    return sawtooths, sawtooths | {(0,) * size, (1 << n,) * size}


def sawtooth_restriction(n: int, k: int) -> CommutingTable:
    """The k-tooth sawtooth restricted to the depth-n grid."""
    return _restriction_values(n, k)


def constant_table(n: int, value: Fraction) -> CommutingTable:
    """The constant-0 or constant-2/3 table (the two constant solutions)."""
    if value != ZERO and value != TWO_THIRDS:
        raise ValueError(f"constant solutions take value 0 or 2/3, got {value}")
    # 2/3 is 2**n / (3 * 2**(n-1))
    return _lattice_table(n, (0 if value == ZERO else 1 << n,) * len(grid_points(n)))


def continuable_from_point(prob: ContinuationProblem) -> CommutingTable:
    """A continuable table with the requested value at alpha.

    Restricts the sawtooth with the smallest positive matching tooth count
    (the class of 0 mod 2**n is realized by k = 2**n, the constant-0
    restriction).
    """
    k = solve_k0(prob).smallest_witness()
    table = sawtooth_restriction(prob.n, k)
    if table.values.row[prob.alpha.numerator] != 3 * prob.p:
        raise AssertionError(
            f"solver produced k={k} but the restriction "
            f"misses beta at alpha={prob.alpha}"
        )
    return table


@dataclass(frozen=True)
class ContinuationVerdict:
    continuable: bool
    witness_k: int | None = None
    constant: Fraction | None = None


def is_tent_continuable(t: CommutingTable) -> ContinuationVerdict:
    """Decide continuability: the constants, then the one candidate restriction.

    The value at alpha = 1/2**(n-1) fixes a restriction to the +/-k0 classes;
    their least k is the least in 1..2**n whose restriction can equal t.
    """
    for c in (ZERO, TWO_THIRDS):
        if t.values == constant_table(t.n, c).values:
            return ContinuationVerdict(continuable=True, constant=c)
    alpha = Fraction(1, 1 << (t.n - 1))
    try:
        k = solve_k0(ContinuationProblem(t.n, alpha, t.values.get(alpha))).smallest_witness()
    except (AttributeError, ValueError):
        # no value at alpha, or one off the grid: no sawtooth takes it there
        return ContinuationVerdict(continuable=False)
    if t.values == _restriction_values(t.n, k).values:
        return ContinuationVerdict(continuable=True, witness_k=k)
    return ContinuationVerdict(continuable=False)


def enumerate_continuable(n: int) -> list[CommutingTable]:
    """All distinct restrictions of continuous solutions to the depth-n grid.

    Restrictions are deduplicated and sorted as lattice rows (the order of
    ``CommutingTable.key``); a table is built only for each distinct row.
    """
    check_depth(n, _ENUM_BOUND, "enumerate_continuable")
    return [_lattice_table(n, row) for row in sorted(_rows(n)[1])]


def continuable_audit(n: int) -> dict:
    """Enumerated continuable counts next to the claimed 2**(n-1).

    Counts the distinct lattice rows that ``enumerate_continuable`` keeps,
    without building the tables.
    """
    check_depth(n, _ENUM_BOUND, "enumerate_continuable")
    sawtooths, rows = _rows(n)
    distinct = len(rows)
    claimed = 1 << (n - 1)
    return {
        "n": n,
        "distinct_restrictions": distinct,
        "sawtooth_restriction_count": len(sawtooths),
        "with_constants": distinct,
        "claimed": claimed,
        "matches_claim": distinct == claimed,
    }
