"""Finite maps on the dyadic grid that commute with the tent map.

A commuting table assigns to every point of the depth-n grid (the preimages
of 0) a value in [0, 1] such that applying the tent map before or after the
table gives the same answer.  Plugging in 0 forces the base value to a fixed
point (0 or 2/3), and iterating the relation confines all values to the
depth-n preimages of that fixed point.

Tables are equivalently described by a word encoding: a map sending each
{0,1}-word to a word of the same length, consistent under truncation, with
all-zero prefixes pinned to a base bit.  The encoding direction is exact; the
decoding direction can fail, because addresses are not unique (both inverse
branches send 1 to 1/2).  Decoding therefore checks consistency and raises
:class:`AddressConflict` on contradictory pairs instead of repairing them.
The enumeration oracle here is the ground truth the counting claims are
audited against; the closed-form count, its recursion, and the per-level
extension count are all computed side by side and their disagreements are
reported, never reconciled.

Both oracles run on the lattice of ``tent``: grid point ``i / 2**(n-1)`` is
slot i and a value is a numerator over ``D = 3 * 2**(n-1)``.  They return
rows, the numerators in grid order: the chain oracle steps down the inverse
branches; the product filter builds every candidate row at once and applies
the tent (the 2-tooth fold of ``tent``) one slot check at a time, each check
a single pass over the rows still standing.
Sorted rows are in ``CommutingTable.key`` order, and a table built from a row
reads it through a read-only view.  The word codec reads the same branches: a
length-m word addresses a numerator over D, and decoding fills a row with one
witness word per grid slot.  The fiber count fills rows the same way, one
encoding level at a time, so a conflict at level m settles every encoding that
shares that level's prefix.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import compress, product
from operator import eq, itemgetter

from .limits import check_depth
from .rationals import TWO_THIRDS, ZERO, format_rational, parse_rational
from .tent import (
    _fold,
    _fold_row,
    grid_points,
    inverse_branch,
    preimage_set,
    tent,
)

Word = tuple[int, ...]

_PRODUCT_BOUND = 3
_CHAIN_BOUND = 5
_PAIR_ENUM_BOUND = 3


class AddressConflict(ValueError):
    """Two words addressing one grid point were assigned different values."""


@dataclass(frozen=True)
class PsiTilde:
    """Word encoding of a commuting table: base bit plus a word map."""

    n: int
    i0: int
    table: Mapping[Word, Word]

    def image(self, word: Word) -> Word:
        return self.table[word]


@dataclass(frozen=True)
class CommutingTable:
    """A map from the depth-n grid into [0, 1] commuting with the tent map."""

    n: int
    x0: Fraction
    values: Mapping[Fraction, Fraction]

    def key(self):
        """Canonical sort/dedup key (tables are not hashable)."""
        return (self.x0, tuple(self.values[p] for p in grid_points(self.n)))

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "x0": format_rational(self.x0),
            "values": {
                format_rational(p): format_rational(self.values[p])
                for p in grid_points(self.n)
            },
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "CommutingTable":
        return cls(
            n=doc["n"],
            x0=parse_rational(doc["x0"]),
            values={
                parse_rational(k): parse_rational(v) for k, v in doc["values"].items()
            },
        )


@lru_cache(maxsize=64)
def _lattice(n: int) -> tuple[Fraction, ...]:
    """The depth-n lattice: index j holds j / (3 * 2**(n-1))."""
    return preimage_set(n, "F").points


class _LatticeValues(Mapping):
    """Read-only view of a lattice row: grid point -> value, in grid order.

    Two views compare by their rows; any other mapping compares item by item.
    """

    __slots__ = ("n", "row", "_lattice")

    def __init__(self, n: int, row: tuple[int, ...]):
        self.n = n
        self.row = row
        self._lattice = _lattice(n)

    def __getitem__(self, x):
        # the grid point x = i / 2**(n-1) is slot i; hashing x would cost more
        try:
            i, rest = divmod(x.numerator * (len(self.row) - 1), x.denominator)
        except AttributeError:
            raise KeyError(x) from None
        if rest or not 0 <= i < len(self.row):
            raise KeyError(x)
        return self._lattice[self.row[i]]

    def __iter__(self):
        return iter(grid_points(self.n))

    def __len__(self):
        return len(self.row)

    def __eq__(self, other):
        if isinstance(other, _LatticeValues):
            return self.row == other.row and self.n == other.n
        return Mapping.__eq__(self, other)

    def __repr__(self):
        return repr(dict(self))


def _lattice_table(n: int, row: tuple[int, ...]) -> CommutingTable:
    """The depth-n table whose values are the lattice row (numerators in grid order)."""
    values = _LatticeValues(n, row)
    return CommutingTable(n=n, x0=values._lattice[row[0]], values=values)


def validate_commuting_table(t: CommutingTable) -> None:
    """Raise ValueError unless t satisfies every table invariant exactly."""
    if t.x0 != ZERO and t.x0 != TWO_THIRDS:
        raise ValueError(f"base value must be 0 or 2/3, got {t.x0}")
    domain = grid_points(t.n)
    if set(t.values) != set(domain):
        raise ValueError("table domain must be exactly the depth-n grid")
    if t.values[ZERO] != t.x0:
        raise ValueError("table value at 0 must equal the base value")
    for x in domain:
        y = t.values[x]
        if not (0 <= y <= 1):
            raise ValueError(f"value out of [0, 1] at {x}: {y}")
        if tent(y) != t.values[tent(x)]:
            raise ValueError(f"commutation fails at {x}")
    confined = set(preimage_set(t.n, "A" if t.x0 == ZERO else "B").points)
    stray = [x for x in domain if t.values[x] not in confined]
    if stray:
        raise ValueError(f"values escape the preimage set of {t.x0} at {stray}")


@lru_cache(maxsize=None)
def _words(m: int) -> tuple[tuple[Word, Word | None, int], ...]:
    """Length-m words in product order, each with its parent and zero-prefix length."""
    return tuple(
        (word, word[:-1] if m > 1 else None, next((i for i, bit in enumerate(word) if bit), m))
        for word in product((0, 1), repeat=m)
    )


@lru_cache(maxsize=64)
def _address_numerators(n: int, m: int, base: int) -> dict[Word, int]:
    """Every length-m word, in product order, mapped to the numerator over
    ``3 * 2**(n-1)`` of the point it addresses from the base numerator."""
    den = 3 << (n - 1)
    inner = (base,) if m == 1 else _address_numerators(n, m - 1, base).values()
    ends = [end for j in inner for end in (j >> 1, den - (j >> 1))]
    return dict(zip((word for word, _, _ in _words(m)), ends))


def check_psi_tilde(pt: PsiTilde) -> list[dict]:
    """List violations of the three encoding properties, with witnesses."""
    violations = []
    table = pt.table
    pinned = [(pt.i0,) * zeros for zeros in range(pt.n + 1)]
    for m in range(1, pt.n + 1):
        for word, parent_word, zeros in _words(m):
            image = table.get(word)
            if image is None or len(image) != m:
                violations.append(
                    {"property": 1, "word": word, "image": image}
                )
                continue
            if parent_word is not None:
                parent = table.get(parent_word)
                if parent is None or image[: m - 1] != parent:
                    violations.append(
                        {"property": 2, "word": word, "image": image, "prefix": parent}
                    )
            if image[:zeros] != pinned[zeros]:
                violations.append({"property": 3, "word": word, "image": image})
    return violations


def psi_from_pair(pt: PsiTilde) -> CommutingTable:
    """Decode a word encoding into a commuting table.

    Every word of every length 1..n contributes an assignment; fails with
    AddressConflict when two words addressing the same grid point (whether of
    equal or different lengths) decode to different values.  Such encodings
    correspond to no table.  When decoding succeeds, commutation follows:
    truncating a word by one letter applies the tent map to both the point
    and its value.
    """
    bad = check_psi_tilde(pt)
    if bad:
        raise ValueError(f"encoding violates properties: {bad[:3]}")
    n, table = pt.n, pt.table
    half = 1 << (n - 1)
    base = 0 if pt.i0 == 0 else 2 * half
    # slot i holds the value numerator at i / 2**(n-1) and the word that set it
    row = [base] + [0] * half
    witnesses: list[Word | None] = [None] * (half + 1)
    for m in range(1, n + 1):
        images = _address_numerators(n, m, base)
        for word, x in _address_numerators(n, m, 0).items():
            y = images[table[word]]
            i = x // 3
            witness = witnesses[i]
            if witness is None:
                witnesses[i], row[i] = word, y
            elif row[i] != y:
                raise AddressConflict(
                    f"words {witness} and {word} both address {Fraction(i, half)} "
                    f"but decode to {Fraction(row[i], 3 * half)} and {Fraction(y, 3 * half)}"
                )
    return _lattice_table(n, tuple(row))


def pair_from_psi(t: CommutingTable) -> PsiTilde:
    """Encode a commuting table, choosing the lexicographically least word per value."""
    if t.x0 != ZERO and t.x0 != TWO_THIRDS:
        raise ValueError(f"base value must be 0 or 2/3, got {t.x0}")
    i0 = 0 if t.x0 == ZERO else 1
    den = 3 << (t.n - 1)
    base = 0 if i0 == 0 else 1 << t.n
    grid = grid_points(t.n)
    table: dict[Word, Word] = {}
    for m in range(1, t.n + 1):
        least_word: dict[int, Word] = {}
        for word, y in _address_numerators(t.n, m, base).items():
            least_word.setdefault(y, word)
        for word, j in _address_numerators(t.n, m, 0).items():
            x = grid[j // 3]
            image = least_word.get(t.values[x] * den)
            if image is None:
                raise ValueError(f"value {t.values[x]} at {x} is not addressable from {t.x0}")
            table[word] = image
    return PsiTilde(n=t.n, i0=i0, table=table)


def enumerate_psi_tilde(n: int, i0: int | None = None) -> Iterator[PsiTilde]:
    """All word encodings satisfying the three properties (n small).

    Per level, every nonzero word extends its parent's image by a free bit
    while the all-zero word is forced: 2 * prod_m 2**(2**m - 1) encodings.
    """
    _check_encoding_depth(n)
    bases = (0, 1) if i0 is None else (i0,)
    return (pt for base in bases for pt in _extend_encoding({}, 1, n, base))


def _check_encoding_depth(n: int) -> None:
    """The depth guard of ``enumerate_psi_tilde``, shared by the fiber count."""
    if n < 1:
        raise ValueError(f"depth must be positive, got {n}")
    check_depth(n, _PAIR_ENUM_BOUND, "enumerate_psi_tilde")


def _extend_encoding(table: dict, m: int, n: int, i0: int) -> Iterator[PsiTilde]:
    if m > n:
        yield PsiTilde(n=n, i0=i0, table=dict(table))
        return
    (zero, _, _), *nonzero = _words(m)
    table[zero] = (i0,) * m
    for bits in product((0, 1), repeat=len(nonzero)):
        for (word, parent, _), bit in zip(nonzero, bits):
            table[word] = (table[parent] if m > 1 else ()) + (bit,)
        yield from _extend_encoding(table, m + 1, n, i0)
    for word, _, _ in nonzero:
        table.pop(word, None)
    table.pop(zero, None)


def _chain_job(n: int, x0: Fraction, first: Fraction) -> list[tuple[int, ...]]:
    """Rows of all tables with given base value and given value at the point 1."""
    lattice = _lattice(n)
    den = len(lattice) - 1
    half = den // 3
    # the point 1, then each level's new points: odd multiples of 1/2**(m-1)
    slots = [k for m in range(2, n + 1) for k in range(half >> (m - 1), half, half >> (m - 2))]
    parents = [_fold(2, k, half) for k in slots]
    row = [lattice.index(x0), *[0] * (half - 1), lattice.index(first)]
    results: list[tuple[int, ...]] = []
    last = len(slots)

    def recurse(i: int) -> None:
        if i == last:
            results.append(tuple(row))
            return
        k = slots[i]
        j = row[parents[i]] >> 1
        row[k] = j
        recurse(i + 1)
        if 2 * j != den:
            row[k] = den - j
            recurse(i + 1)

    if row[half] in (row[0] >> 1, den - (row[0] >> 1)):
        recurse(0)
    return results


def _product_job(n: int, x0: Fraction, first: Fraction) -> list[tuple[int, ...]]:
    """Filter the full product space (value at 1 pinned) by the commutation check.

    Candidates are lattice rows, built whole by ``itertools.product`` in grid
    order; every one meets the first check.  Each check is one pass over the
    rows that survive the ones before it: the tent on numerators, read from a
    table, must send slot i's value to slot 2i's or 2(half - i)'s.
    """
    lattice = _lattice(n)
    den = len(lattice) - 1
    half = den // 3
    tent_at = _fold_row(2, den, 0, den + 1).__getitem__
    free = [range(den + 1)] * (half - 1)
    rows = list(product((lattice.index(x0),), *free, (lattice.index(first),)))
    for a in range(half + 1):
        b = _fold(2, a, half)
        images = map(tent_at, map(itemgetter(a), rows))
        rows = list(compress(rows, map(eq, images, map(itemgetter(b), rows))))
    return rows


@lru_cache(maxsize=64)
def _product_rows(n: int, x0: Fraction, first: Fraction) -> tuple[tuple[int, ...], ...]:
    """The product filter's rows, scanned once per process (n <= 3: 48 entries)."""
    return tuple(_product_job(n, x0, first))


def _check_oracle(n: int, x0: Fraction | None, method: str) -> str:
    """The argument checks and depth guard of ``brute_force_commuting``;
    returns the method that "auto" picks."""
    if n < 1:
        raise ValueError(f"depth must be positive, got {n}")
    if x0 is not None and x0 not in (ZERO, TWO_THIRDS):
        raise ValueError(f"x0 must be a fixed point of the tent, 0 or 2/3, got {x0}")
    if method == "auto":
        method = "product" if n <= _PRODUCT_BOUND else "chain"
    if method == "product":
        check_depth(n, _PRODUCT_BOUND, "brute_force_commuting[product]")
    elif method == "chain":
        check_depth(n, _CHAIN_BOUND, "brute_force_commuting[chain]")
    else:
        raise ValueError(f"method must be auto, product or chain, got {method!r}")
    return method


def brute_force_commuting(
    n: int,
    x0: Fraction | None = None,
    method: str = "auto",
    workers: int = 1,
) -> list[CommutingTable]:
    """Exhaustive oracle: every map from the depth-n grid commuting with the tent.

    Method "product" filters all assignments into the fixed-point preimage set
    (n <= 3); "chain" walks the preimage-choice tree (n <= 5); "auto" picks
    product when it is feasible.  Output is canonically sorted and independent
    of the worker count: tables are sorted by their lattice rows, the same
    order as ``CommutingTable.key``.  ``workers > 1`` runs the jobs (one per
    base value and value at 1) in a process pool that returns rows.
    """
    method = _check_oracle(n, x0, method)
    bases = (ZERO, TWO_THIRDS) if x0 is None else (x0,)
    if method == "product":
        # the dumb oracle scans every candidate value at the point 1
        job = _product_rows
        jobs = [(n, base, first) for base in bases for first in _lattice(n)]
    else:
        # the tent sends 1 to 0, so the value at 1 is a preimage of the base
        job = _chain_job
        jobs = [(n, base, inverse_branch(b, base)) for base in bases for b in (0, 1)]
    if workers > 1:
        # imported only here, so that no other command pays for loading the pool
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(job, *zip(*jobs)))
    else:
        chunks = [job(*args) for args in jobs]
    return [_lattice_table(n, row) for row in sorted(row for chunk in chunks for row in chunk)]


def commutant_count_formula(n: int) -> int:
    """The claimed closed-form count of depth-n commuting tables."""
    if n < 1:
        raise ValueError(f"depth must be positive, got {n}")
    prod = 1
    for k in range(1, n + 1):
        prod *= (1 << k) - 1
    numerator = (1 << (3 * n - 1)) * prod
    quotient, remainder = divmod(numerator, (1 << n) - 1)
    if remainder:
        raise ArithmeticError("count formula division is not exact")
    return quotient


def count_recursion(n: int) -> int:
    """The claimed recursion: 4 at depth 1, each level multiplying by 8*(2**m - 1)."""
    count = 4
    for m in range(1, n):
        count *= 8 * ((1 << m) - 1)
    return count


def count_extension_argument(n: int) -> int:
    """Level factor the extension construction actually yields: 2 * 4**(2**m - 1).

    Each of the 2**m - 1 nonzero level-m words gets two children with a free
    image bit each (4 combinations), and the zero word's nonzero child one
    free bit.  Diverges from the claimed 8*(2**m - 1) factor from m = 2 on.
    """
    count = 4
    for m in range(1, n):
        count *= 2 * 4 ** ((1 << m) - 1)
    return count


def audit_counts(n: int, workers: int = 1) -> dict:
    """Side-by-side count report; disagreements are data, not errors."""
    report = {
        "n": n,
        "formula": commutant_count_formula(n),
        "brute_force": None,
        "recursion_8": count_recursion(n),
        "extension_argument": count_extension_argument(n),
    }
    if n <= _CHAIN_BOUND:
        report["brute_force"] = len(brute_force_commuting(n, workers=workers))
    counts = {v for k, v in report.items() if k != "n" and v is not None}
    report["agree"] = len(counts) == 1
    return report


def restrict_table(t: CommutingTable, m: int) -> CommutingTable:
    """Restriction of a depth-n table to the coarser depth-m grid."""
    if not (1 <= m <= t.n):
        raise ValueError(f"restriction depth must be in 1..{t.n}, got {m}")
    return CommutingTable(
        n=m, x0=t.x0, values={p: t.values[p] for p in grid_points(m)}
    )


def pair_fiber_stats(n: int) -> dict:
    """How the word encodings actually cover the tables (n small).

    Counts consistent/conflicting encodings, the tables they induce, and the
    fiber sizes over each table; a claimed one-to-one correspondence would
    need every fiber to be a singleton and no conflicts.

    The encodings of ``enumerate_psi_tilde`` are walked level by level, not
    decoded one by one: each level's choice of free bits writes its words'
    values into a lattice row, as ``psi_from_pair`` would.  A level that
    conflicts, within itself or with a lower level, counts its whole subtree
    as conflicting, and a prefix consistent to depth n adds one to its row's
    fiber.
    """
    # both guards before the oracle, which at n = 5 runs long before the
    # encoding guard would refuse
    _check_oracle(n, None, "auto")
    _check_encoding_depth(n)
    oracle = brute_force_commuting(n)
    fibers: Counter = Counter()
    conflicts = 0
    # encodings below one level-m prefix: the free bits of levels m+1..n
    subtree = {m: 1 << sum((1 << k) - 1 for k in range(m + 1, n + 1)) for m in range(1, n + 1)}
    # the grid slot each level-m word addresses from 0, in product order
    slots = {m: [x // 3 for x in _address_numerators(n, m, 0).values()] for m in range(1, n + 1)}

    def walk(m: int, row: list, prior: list, i0: int, base: int) -> None:
        nonlocal conflicts
        if m > n:
            fibers[tuple(row)] += 1
            return
        values = _address_numerators(n, m, base)
        zero = (i0,) * m
        # word w of level m is its parent w >> 1 plus one letter; prior holds
        # the level-(m-1) images
        parents = [prior[w >> 1] for w in range(1, 1 << m)]
        for bits in product((0, 1), repeat=(1 << m) - 1):
            images = [zero] + [parent + (bit,) for parent, bit in zip(parents, bits)]
            level = row.copy()
            for i, image in zip(slots[m], images):
                y = values[image]
                if level[i] is None:
                    level[i] = y
                elif level[i] != y:
                    conflicts += subtree[m]
                    break
            else:
                walk(m + 1, level, images, i0, base)

    half = 1 << (n - 1)
    for i0, base in ((0, 0), (1, 2 * half)):
        walk(1, [None] * (half + 1), [()], i0, base)
    consistent = fibers.total()
    fiber_sizes = Counter(fibers.values())
    return {
        "n": n,
        "pairs_total": consistent + conflicts,
        "pairs_consistent": consistent,
        "pairs_conflicting": conflicts,
        "distinct_tables_from_pairs": len(fibers),
        "oracle_tables": len(oracle),
        "bijective": conflicts == 0 and all(s == 1 for s in fibers.values()),
        "fiber_sizes": {str(k): v for k, v in sorted(fiber_sizes.items())},
    }
