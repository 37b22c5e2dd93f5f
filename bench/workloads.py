"""The benchmark's workloads: seeded inputs, the calls a round makes, and checks.

Each workload turns a seed into a list of operations, one public tentlab
call each.  A round makes every call in order and times each one; afterwards
every output is checked against ``reference`` (never against tentlab
itself).  The seed chooses inputs of equal cost, so rounds of different seeds
do the same amount of work.

- ``audit``: the headline command, ``tentlab audit --max-n 3``, through
  ``cli.run``.  Heavy in the product oracle, word encodings and continuation;
  the golden CLI documents are checked after the round.
- ``enumerate``: bulk exact enumeration (preimage grids, the chain oracle,
  continuable tables, the linearity probe); nothing in ``conjugacy``.
- ``conjugacy``: big-integer geometry of the conjugacy iterates; bypasses
  the grid, table and sawtooth code entirely.
- ``queries``: one client in a closed loop sending single-point requests,
  each sent when the previous one returned; dominated by lru caches and
  Fraction conversion at the API boundary.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import random
from fractions import Fraction
from pathlib import Path

import reference as ref

# The package namespace re-exports functions named like some modules
# (tentlab.tent is the tent map), so the modules come from the import system.
cli, commutants, conjugacy, continuation, rationals, sawtooth, tent = (
    importlib.import_module(f"tentlab.{name}")
    for name in ("cli", "commutants", "conjugacy", "continuation", "rationals", "sawtooth", "tent")
)


class Op:
    """One public call: ``getattr(module, name)(*args, **kwargs)``.

    A chained op receives the previous op's output as its first argument.  A
    chained op, or one made with ``follows=True``, belongs to the same client
    request as the op before it; latency percentiles are taken over requests.
    ``check(args, out)`` returns None or a description of what is wrong.
    ``kernel`` names the ``speed`` kernel whose slowdowns the call's track.
    """

    __slots__ = ("module", "name", "args", "kwargs", "chained", "follows", "check", "kernel")

    def __init__(
        self,
        module,
        name,
        args=(),
        kwargs=None,
        chained=False,
        follows=False,
        check=None,
        kernel="alloc",
    ):
        self.module = module
        self.name = name
        self.args = tuple(args)
        self.kwargs = kwargs or {}
        self.chained = chained
        self.follows = follows or chained
        self.check = check
        self.kernel = kernel

    @property
    def label(self) -> str:
        return f"{self.module.__name__.rsplit('.', 1)[-1]}.{self.name}"


class Workload:
    """Timed ops plus untimed CLI checks (name -> callable returning an error or None)."""

    def __init__(self, ops, cli_checks=None, cleanup=None):
        self.ops = ops
        self.cli_checks = cli_checks or {}
        self.cleanup = cleanup


def _equal(reference, *ref_args):
    """Check that an output equals ``reference(*ref_args)``, computed when checked."""

    def check(args, out):
        expected = reference(*ref_args)
        return None if out == expected else f"expected {expected!r}, got {out!r}"

    return check


# --- audit -----------------------------------------------------------------------

AUDIT_TALLY = {"confirmed": 7, "refuted_at_this_n": 4, "not_desk_checkable": 2}

GOLDEN = {
    "preimages_n3_A.json": (["preimages", "--n", "3", "--kind", "A"], 0),
    "commutants_audit_n2.json": (["commutants", "audit", "--n", "2"], 1),
    "conjugacy_length_v14_n8.json": (
        ["conjugacy", "length", "--v", "1/4", "--n", "8", "--mode", "aggregate"],
        0,
    ),
}


def _audit(seed: int, root: Path) -> Workload:
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    target = out_dir / f"audit-{os.getpid()}.json"
    schema = json.loads((root / "src/tentlab/schemas/claims_audit.schema.json").read_text())
    golden = {name: (root / "tests/golden" / name).read_text() for name in GOLDEN}
    argv = ["audit", "--max-n", "3", "--seed", str(seed), "--output", str(target)]

    def check(args, rc):
        if rc != 1:
            return f"exit code {rc}, expected 1 (refuted claims are reported)"
        doc = json.loads(target.read_text())
        errors = ref.schema_errors(doc, schema)
        if errors:
            return f"schema: {errors[:3]}"
        tally = {key: doc[key] for key in AUDIT_TALLY}
        if tally != AUDIT_TALLY:
            return f"tally {tally}"
        if (doc["max_n"], doc["seed"]) != (3, seed):
            return "max_n or seed not echoed"
        claims = {c["id"]: c for c in doc["claims"]}
        if len(claims) != sum(AUDIT_TALLY.values()):
            return "claim ids are not distinct"
        counts = [r["brute_force"] for r in claims["commutant-count"]["computed"]]
        if counts != [sum(ref.table_count(n)) for n in (1, 2, 3)]:
            return f"oracle counts {counts}"
        for row in claims["continuable-count"]["computed"]:
            if row["distinct_restrictions"] != len(ref.continuable_restrictions(row["n"])):
                return f"continuable count at n={row['n']}"
        return None

    def golden_check(name):
        argv_g, rc_expected = GOLDEN[name]

        def run():
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                rc = cli.run(list(argv_g))
            if rc != rc_expected:
                return f"exit code {rc}, expected {rc_expected}"
            if buffer.getvalue() != golden[name]:
                return "stdout differs from the golden document"
            return None

        return run

    return Workload(
        [Op(cli, "run", (argv,), check=check)],
        cli_checks={f"golden:{name}": golden_check(name) for name in GOLDEN},
        cleanup=lambda: target.unlink(missing_ok=True),
    )


# --- enumerate -------------------------------------------------------------------

PREIMAGE_DEPTH = 14
CHAIN_DEPTH = 5
CONTINUABLE_DEPTH = 9


def _table_lattice(t, den: int) -> tuple[int, ...]:
    return tuple(ref.on_lattice(t.values[x], den) for x in sorted(t.values))


def _chain_check(n: int, x0: Fraction | None, seed: int):
    zero_count, two_thirds_count = ref.table_count(n)
    expected = {None: zero_count + two_thirds_count, Fraction(0): zero_count}[x0]

    def check(args, tables):
        if len(tables) != expected:
            return f"{len(tables)} tables at n={n}, expected {expected}"
        den = ref.lattice_den(n)
        if len({(t.x0, _table_lattice(t, den)) for t in tables}) != len(tables):
            return "duplicate tables"
        if x0 is not None and any(t.x0 != x0 for t in tables):
            return "table with the wrong base value"
        for t in random.Random(seed).sample(tables, min(len(tables), 200)):
            problem = ref.table_commutes(n, t.x0, dict(t.values))
            if problem:
                return problem
        return None

    return check


def _preimage_check(n: int):
    def check(args, result):
        if list(result.points) != ref.fixed_point_preimages(n):
            return f"{args[2]} preimages at depth {n} differ from the lattice"
        return None

    return check


def _continuable_check(n: int):
    def check(args, tables):
        den = ref.lattice_den(n)
        got = [_table_lattice(t, den) for t in tables]
        if len(set(got)) != len(got) or set(got) != ref.continuable_restrictions(n):
            return f"continuable tables at depth {n} differ from the sawtooth restrictions"
        return None

    return check


def _continuable_audit_check(n: int):
    def check(args, report):
        distinct = len(ref.continuable_restrictions(n))
        expected = {
            "n": n,
            "distinct_restrictions": distinct,
            # the constant 0 is the restriction of k = 2**n; 2/3 is no sawtooth's
            "sawtooth_restriction_count": distinct - 1,
            "with_constants": distinct,
            "claimed": 1 << (n - 1),
            "matches_claim": distinct == 1 << (n - 1),
        }
        return None if report == expected else f"continuable audit {report} != {expected}"

    return check


def _probe_check(k: int, start, budget: int):
    def check(args, result):
        return ref.probe_problem(k, start, budget, result)

    return check


def _enumerate(seed: int, root: Path) -> Workload:
    rng = random.Random(seed)
    preimages = _preimage_check(PREIMAGE_DEPTH)
    ops = [
        Op(tent, "preimage_set", (PREIMAGE_DEPTH, "F", method), check=preimages)
        for method in ("closed_form", "iterated")
    ]
    for n in range(1, CHAIN_DEPTH):
        check = _chain_check(n, None, seed)
        ops.append(Op(commutants, "brute_force_commuting", (n,), {"method": "chain"}, check=check))
    # The base-0 half of depth 5 (22 161 of the 87 697 tables) keeps the
    # oracle's share of a round near that of the other layers.
    x0 = Fraction(0)
    ops.append(
        Op(
            commutants,
            "brute_force_commuting",
            (CHAIN_DEPTH,),
            {"x0": x0, "method": "chain"},
            check=_chain_check(CHAIN_DEPTH, x0, seed),
        )
    )
    n = CONTINUABLE_DEPTH
    ops.append(Op(continuation, "enumerate_continuable", (n,), check=_continuable_check(n)))
    ops.append(Op(continuation, "continuable_audit", (n,), check=_continuable_audit_check(n)))
    # k = 5, 6 and 7 all settle at depth 3 and scan the same 2**17 points.
    for k, start, budget in ((3, (1, 0), 19), (rng.choice((5, 6, 7)), (1, 0), 20)):
        args = (sawtooth.sawtooth(k), start, budget)
        ops.append(Op(sawtooth, "linearity_probe", args, check=_probe_check(k, start, budget)))
    return Workload(ops)


# --- conjugacy -------------------------------------------------------------------

VERTICES = (Fraction(1, 4), Fraction(1, 3), Fraction(7, 10))
LENGTH_DEPTH = 1200
SLOPE_DEPTH = 10_000
EXPLICIT_DEPTH = 14
DENSITY_DEPTH = 14


def _close_to(n: int, v: Fraction):
    def check(args, out):
        expected = ref.graph_length(n, v)
        if abs(out - expected) > 1e-9 * expected:
            return f"graph length {out!r}, reference {expected!r}"
        return None

    return check


def _iterate_check(v: Fraction, points):
    def check(args, it):
        ys = it.ordinates
        n = it.n
        if len(ys) != (1 << n) + 1 or ys[0] != 0 or ys[-1] != 1:
            return "iterate has the wrong grid or endpoints"
        if any(a >= b for a, b in zip(ys, ys[1:])):
            return "iterate is not strictly increasing"
        for j in points:
            if ys[j] != ref.conjugacy_iterate(n, Fraction(j, 1 << n), v):
                return f"ordinate {j} differs from the affine unfolding"
        return None

    return check


def _density_check(v: Fraction, depth: int):
    points, gap = ref.density(v, depth)

    def check(args, report):
        if (report.points, report.max_gap) != (points, gap):
            return f"density ({report.points}, {report.max_gap}) != ({points}, {gap})"
        return None

    return check


def _conjugacy(seed: int, root: Path) -> Workload:
    rng = random.Random(seed)
    ops = []
    for v in VERTICES:
        threshold = rng.choice((Fraction(1, 2), Fraction(1), Fraction(2)))
        sample = sorted(rng.sample(range(1 << EXPLICIT_DEPTH), 24))
        small = EXPLICIT_DEPTH
        small_measure = _equal(ref.slope_measure, small, v, threshold)
        ops += [
            # The deep aggregates are big-integer arithmetic, which slows
            # down like the interpreter kernel, not the allocation one.
            Op(
                conjugacy,
                "graph_length",
                (LENGTH_DEPTH, v, "aggregate"),
                check=_close_to(LENGTH_DEPTH, v),
                kernel="interp",
            ),
            Op(
                conjugacy,
                "slope_measure",
                (SLOPE_DEPTH, v, threshold, "aggregate"),
                check=_equal(ref.slope_measure, SLOPE_DEPTH, v, threshold),
                kernel="interp",
            ),
            Op(conjugacy, "iterate_to", (EXPLICIT_DEPTH, v), check=_iterate_check(v, sample)),
            Op(conjugacy, "graph_length", (small, v, "explicit"), check=_close_to(small, v)),
            Op(conjugacy, "graph_length", (small, v, "aggregate"), check=_close_to(small, v)),
            Op(conjugacy, "slope_measure", (small, v, threshold, "explicit"), check=small_measure),
            Op(conjugacy, "slope_measure", (small, v, threshold, "aggregate"), check=small_measure),
            Op(conjugacy, "density_probe", (v, DENSITY_DEPTH), check=_density_check(v, DENSITY_DEPTH)),
        ]
    return Workload(ops)


# --- queries ---------------------------------------------------------------------

QUERY_GROUPS = 800


def _check_eval(args, out):
    k, x = args
    return None if out == ref.triangle(k, x) else f"sawtooth {k} at {x}: {out}"


def _check_codec(args, out):
    (q,) = args
    value = ref.expansion_value(out.preperiod, out.period)
    return None if value == q else f"expansion of {q} decodes to {value}"


def _check_digits(args, out):
    (b,) = args
    expected = ref.tent_value(ref.expansion_value(b.preperiod, b.period))
    if expected == 1:
        return None if out is rationals.ONE else f"tent image of 1/2 is {out!r}, not ONE"
    got = ref.expansion_value(out.preperiod, out.period)
    return None if got == expected else f"tent image decodes to {got}, expected {expected}"


def _check_solve(args, sol):
    (prob,) = args
    modulus = 1 << prob.n
    if sol.modulus != modulus or sol.classes != frozenset({sol.k0, -sol.k0 % modulus}):
        return "residue classes malformed"
    for k in sol.classes:
        if ref.triangle(k or modulus, prob.alpha) != prob.beta:
            return f"sawtooth {k or modulus} misses beta at alpha"
    return None


def _check_point(args, table):
    (prob,) = args
    if table.n != prob.n or table.values.get(prob.alpha) != prob.beta:
        return "continuable table misses beta at alpha"
    return ref.table_commutes(prob.n, table.x0, dict(table.values))


def _check_decide(args, verdict):
    (table,) = args
    if not verdict.continuable:
        return "a sawtooth restriction was judged not continuable"
    m = 1 << (table.n - 1)
    den = ref.lattice_den(table.n)
    got = _table_lattice(table, den)
    if verdict.constant is not None:
        expected = (ref.on_lattice(verdict.constant, den),) * (m + 1)
    else:
        expected = tuple(3 * ref.triangle_lattice(verdict.witness_k, j, m) for j in range(m + 1))
    return None if got == expected else "witness does not restrict to the table"


def _check_value(args, out):
    m, x, v = args
    return None if out == ref.conjugacy_iterate(m, x, v) else f"h_{m}({x}) at v={v}: {out}"


def _check_conjugate(args, out):
    word, v = args
    return None if out == ref.skew_address(word, v) else f"skew address of {word} at v={v}: {out}"


def _queries(seed: int, root: Path) -> Workload:
    # The mix is fixed: each group takes the next depth, vertex, iterate index
    # and word length in turn, so every seed asks for the same amount of work;
    # the seed draws the points.
    rng = random.Random(seed)
    ops = []
    for g in range(QUERY_GROUPS):
        den = rng.randrange(1, 10**6)
        k = rng.randrange(2**20, 2**40)
        x = Fraction(rng.randrange(den + 1), den)
        ops.append(Op(sawtooth, "sawtooth_eval", (k, x), check=_check_eval))
        # Denominators below 2000 repeat, so the order-of-two cache gets hits.
        den = rng.randrange(1, 2000)
        q = Fraction(rng.randrange(den), den)
        ops.append(Op(rationals, "rational_to_binary", (q,), check=_check_codec))
        ops.append(Op(tent, "tent_digits", chained=True, check=_check_digits))
        n = 2 + g % 7
        scale = 1 << (n - 1)
        alpha = Fraction(2 * rng.randrange(scale // 2) + 1, scale)
        beta = Fraction(rng.randrange(scale + 1), scale)
        prob = continuation.ContinuationProblem(n, alpha, beta)
        ops.append(Op(continuation, "solve_k0", (prob,), check=_check_solve))
        ops.append(
            Op(continuation, "continuable_from_point", (prob,), follows=True, check=_check_point)
        )
        ops.append(Op(continuation, "is_tent_continuable", chained=True, check=_check_decide))
        v = VERTICES[g % len(VERTICES)]
        m = 6 + g % 9
        x = Fraction(rng.randrange((1 << m) + 1), 1 << m)
        ops.append(Op(conjugacy, "conjugacy_value", (m, x, v), check=_check_value))
        word = tuple(rng.randrange(2) for _ in range(6 + g % 15))
        ops.append(Op(conjugacy, "conjugate_point", (word, v), check=_check_conjugate))
    return Workload(ops)


WORKLOADS = {
    "audit": _audit,
    "enumerate": _enumerate,
    "conjugacy": _conjugacy,
    "queries": _queries,
}


def build(name: str, seed: int, root: Path) -> Workload:
    return WORKLOADS[name](seed, root)


# The n=5 chain oracle with a two-process pool, measured in traced runs only.
def chain_w2_op() -> Op:
    x0 = Fraction(0)
    return Op(
        commutants,
        "brute_force_commuting",
        (CHAIN_DEPTH,),
        {"x0": x0, "method": "chain", "workers": 2},
        check=_chain_check(CHAIN_DEPTH, x0, 0),
    )

