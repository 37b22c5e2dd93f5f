"""Independent references the benchmark checks tentlab's answers against.

Nothing here imports tentlab.  Each function reaches the answer by a route
the package does not take: integer lattices instead of Fractions, the
three-class tree recursion instead of enumeration, closed forms instead of
generators, log-space floats instead of big-integer radicands, so a defect in
the code under test cannot hide in its own reference.
"""

from __future__ import annotations

import math
from fractions import Fraction

# --- tent map and the depth-n lattice -------------------------------------


def lattice_den(n: int) -> int:
    """Common denominator 3 * 2**(n-1) of every depth-n grid point and table value."""
    return 3 << (n - 1)


def fixed_point_preimages(n: int) -> list[Fraction]:
    """Kind F at depth n: every multiple of 1 / (3 * 2**(n-1)) in [0, 1].

    Multiples of 3 are the preimages of 0, the rest those of 2/3.
    """
    den = lattice_den(n)
    return [Fraction(j, den) for j in range(den + 1)]


def on_lattice(q: Fraction, den: int) -> int | None:
    """q * den when that is an integer, else None."""
    if den % q.denominator:
        return None
    return q.numerator * (den // q.denominator)


def tent_lattice(j: int, den: int) -> int:
    """The tent map on j / den, as a numerator over the same den."""
    return 2 * j if 2 * j <= den else 2 * den - 2 * j


def tent_value(x: Fraction) -> Fraction:
    """The tent map as the distance-to-1 form 1 - |2x - 1|."""
    return 1 - abs(2 * x - 1)


def table_count(n: int) -> tuple[int, int]:
    """Commuting tables at depth n with base value 0 and with base value 2/3.

    The depth-n grid is a tree under the tent map: 0 is the root, 1 its only
    new child, 1/2 the only child of 1, and every later point has two
    children.  A child's value is a preimage of its parent's value, and only
    the class of that value matters: 0 has preimages {0, 1}, 1 has {1/2}, and
    any other value two values of the third class.
    """
    if n < 1:
        raise ValueError(f"depth must be positive, got {n}")
    if n == 1:
        return 2, 2

    def children(w: dict) -> dict:
        return {"zero": w["zero"] + w["one"], "one": w["other"], "other": 2 * w["other"]}

    below = {"zero": 1, "one": 1, "other": 1}
    for _ in range(n - 2):
        s = children(below)
        below = {c: s[c] * s[c] for c in s}
    s = children(below)
    return s["zero"] + s["one"], 2 * s["other"]


def table_commutes(n: int, x0: Fraction, values: dict) -> str | None:
    """Why a depth-n table is not a commuting table confined to x0's preimages, or None."""
    den = lattice_den(n)
    ints = {}
    for x, y in values.items():
        jx, jy = on_lattice(x, den), on_lattice(y, den)
        if jx is None or jy is None:
            return f"off the depth-{n} lattice: {x} -> {y}"
        ints[jx] = jy
    grid = {3 * k for k in range((1 << (n - 1)) + 1)}
    if set(ints) != grid:
        return "domain is not the depth-n grid"
    if ints[0] != on_lattice(x0, den):
        return "value at 0 is not the base value"
    zero_base = x0 == 0
    for jx, jy in ints.items():
        if (jy % 3 == 0) != zero_base:
            return f"value {jy}/{den} is not a preimage of {x0}"
        if tent_lattice(jy, den) != ints[tent_lattice(jx, den)]:
            return f"commutation fails at {jx}/{den}"
    return None


# --- sawtooths ---------------------------------------------------------------


def triangle(k: int, x: Fraction) -> Fraction:
    """The k-tooth sawtooth as the distance from kx to the nearest even integer."""
    y = k * x
    return abs(y - 2 * math.floor((y + 1) / 2))


def triangle_lattice(k: int, j: int, m: int) -> int:
    """k-tooth sawtooth at j / m, as a numerator over m."""
    r = (k * j) % (2 * m)
    return r if r <= m else 2 * m - r


def continuable_restrictions(n: int) -> set[tuple[int, ...]]:
    """Distinct restrictions of the continuous solutions to the depth-n grid.

    Values are numerators over 3 * 2**(n-1): the sawtooths for k = 1..2**n
    (restrictions repeat with period 2**n up to sign) and the constants 0
    and 2/3.
    """
    m = 1 << (n - 1)
    out = {tuple(3 * triangle_lattice(k, j, m) for j in range(m + 1)) for k in range(1, 2 * m + 1)}
    out.add((0,) * (m + 1))
    out.add((2 * m,) * (m + 1))
    return out


def breakpoint_inside(k: int, depth: int, index: int) -> bool:
    """Whether a breakpoint t/k of the k-tooth sawtooth lies strictly inside
    the dyadic interval [index / 2**depth, (index + 1) / 2**depth]."""
    lo, hi = index * k, (index + 1) * k
    t = lo // (1 << depth) + 1
    return t * (1 << depth) < hi


def probe_problem(k: int, start: tuple[int, int], budget: int, result) -> str | None:
    """Check a linearity-probe result for the k-tooth sawtooth against the geometry.

    Every traced interval must nest in the one before, carry the exact secant
    slope, and grow in absolute slope; a "linear" outcome must stop on an
    interval with no breakpoint inside, a "trace" outcome at the budget.
    """
    trace = result.trace
    if not trace or tuple(trace[0][:2]) != tuple(start):
        return "trace does not begin at the start interval"
    prev = None
    for depth, index, slope in trace:
        a = Fraction(index, 1 << depth)
        b = Fraction(index + 1, 1 << depth)
        if slope != (1 << depth) * (triangle(k, b) - triangle(k, a)):
            return f"wrong secant slope at ({depth}, {index})"
        if prev is not None:
            pd, pi, ps = prev
            if depth != pd + 1 or index >> 1 != pi or abs(slope) < abs(ps):
                return f"trace step ({pd}, {pi}) -> ({depth}, {index}) does not refine"
        prev = (depth, index, slope)
    last_depth, last_index, last_slope = trace[-1]
    if (result.depth, result.index, result.slope) != (last_depth, last_index, last_slope):
        return "result does not end where the trace ends"
    if result.outcome == "linear":
        if breakpoint_inside(k, result.depth, result.index):
            return "reported linear on an interval holding a breakpoint"
    elif result.outcome == "trace":
        if result.depth != budget:
            return "trace outcome before the budget ran out"
    else:
        return f"unknown outcome {result.outcome!r}"
    return None


# --- binary expansions -------------------------------------------------------


def expansion_value(preperiod, period) -> Fraction:
    """Value of 0.pre(period) from its digit tuples."""
    pre = int("".join(map(str, preperiod)) or "0", 2)
    per = int("".join(map(str, period)), 2)
    cycle = (1 << len(period)) - 1
    return Fraction(pre * cycle + per, cycle << len(preperiod))


# --- conjugacy -----------------------------------------------------------------


def conjugacy_iterate(m: int, x: Fraction, v: Fraction) -> Fraction:
    """h_m(x), composing the affine step maps along x's orbit instead of recursing."""
    w = 1 - v
    scale, offset = Fraction(1), Fraction(0)
    for _ in range(m):
        if 2 * x <= 1:
            scale = scale * v
            x = 2 * x
        else:
            offset = offset + scale
            scale = -scale * w
            x = 2 - 2 * x
    return scale * x + offset


def skew_address(word, v: Fraction) -> Fraction:
    """Skew-tent address of a word, first letter outermost, through the conjugacy.

    The tent-side point is the pullback of 0 along the same branches; the
    conjugacy h sends it to the skew-side pullback once its depth is resolved.
    """
    x = Fraction(0)
    for bit in reversed(word):
        x = x / 2 if bit == 0 else 1 - x / 2
    return conjugacy_iterate(len(word) + 1, x, v)


def graph_length(n: int, v: Fraction) -> float:
    """Graph length of the n-th iterate, summed in log space with lgamma."""
    lv, lw = math.log(v), math.log(1 - v)
    lwidth = -n * math.log(4)
    lfact = math.lgamma(n + 1)
    terms = []
    for a in range(n + 1):
        lcount = lfact - math.lgamma(a + 1) - math.lgamma(n - a + 1)
        lheight = 2 * (a * lv + (n - a) * lw)
        hi, lo = max(lwidth, lheight), min(lwidth, lheight)
        terms.append(math.exp(lcount + 0.5 * (hi + math.log1p(math.exp(lo - hi)))))
    return math.fsum(terms)


def slope_measure(n: int, v: Fraction, threshold: Fraction) -> Fraction:
    """Measure of the dyadic pieces of slope >= threshold, by bisection on a.

    The piece with a left-branch factors has slope (2v)**a (2(1-v))**(n-a),
    monotone in a, so the steep pieces are one contiguous run of a; each
    comparison is an exact integer inequality.
    """
    p, q = v.numerator, v.denominator
    tn, td = threshold.numerator, threshold.denominator
    rhs = tn * q**n

    def steep(a: int) -> bool:
        return (2 * p) ** a * (2 * (q - p)) ** (n - a) * td >= rhs

    increasing = p > q - p
    lo, hi = 0, n + 1  # first a where the steep side starts (increasing) or ends
    if increasing:
        while lo < hi:
            mid = (lo + hi) // 2
            if steep(mid):
                hi = mid
            else:
                lo = mid + 1
        run = range(lo, n + 1)
    else:
        while lo < hi:
            mid = (lo + hi) // 2
            if steep(mid):
                lo = mid + 1
            else:
                hi = mid
        run = range(0, lo)
    hits = 0
    count = 1  # C(n, a), stepped up a by a
    for a in range(n + 1):
        if a in run:
            hits += count
        count = count * (n - a) // (a + 1)
    return Fraction(hits, 1 << n)


def density(v: Fraction, depth: int) -> tuple[int, Fraction]:
    """Point count and largest gap of the skew tent's preimages of 1 to a depth.

    Points first reaching 1 after d steps number 2**(d-1) and are distinct
    across d, so there are 2**depth in all; the gaps are the products of depth
    factors each v or 1 - v.
    """
    return 1 << depth, max(v, 1 - v) ** depth


# --- JSON schema (the draft-07 subset the package's schemas use) ---------------

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "boolean": bool,
    "null": type(None),
}
_IGNORED = {"$schema", "$id", "title", "description"}
_KNOWN = {"type", "properties", "required", "additionalProperties", "items", "enum", "minimum"}


def _is_type(value, name: str) -> bool:
    if name == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    if name == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    return isinstance(value, _TYPES[name])


def schema_errors(doc, schema: dict, path: str = "$") -> list[str]:
    """Violations of a JSON schema; raises on a keyword this subset does not know."""
    unknown = set(schema) - _KNOWN - _IGNORED
    if unknown:
        raise ValueError(f"schema keywords not supported: {sorted(unknown)}")
    errors: list[str] = []
    kinds = schema.get("type")
    if kinds is not None:
        kinds = [kinds] if isinstance(kinds, str) else kinds
        if not any(_is_type(doc, k) for k in kinds):
            return [f"{path}: expected {kinds}, got {type(doc).__name__}"]
    if "enum" in schema and doc not in schema["enum"]:
        errors.append(f"{path}: {doc!r} not in {schema['enum']}")
    if "minimum" in schema and doc < schema["minimum"]:
        errors.append(f"{path}: {doc} below {schema['minimum']}")
    if isinstance(doc, dict):
        props = schema.get("properties", {})
        for key in schema.get("required", []):
            if key not in doc:
                errors.append(f"{path}: missing {key!r}")
        extra = schema.get("additionalProperties", True)
        for key, value in doc.items():
            if key in props:
                errors += schema_errors(value, props[key], f"{path}.{key}")
            elif extra is False:
                errors.append(f"{path}: unexpected {key!r}")
            elif isinstance(extra, dict):
                errors += schema_errors(value, extra, f"{path}.{key}")
    if isinstance(doc, list) and "items" in schema:
        for i, item in enumerate(doc):
            errors += schema_errors(item, schema["items"], f"{path}[{i}]")
    return errors
