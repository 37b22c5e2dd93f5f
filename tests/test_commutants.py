from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from tentlab import commutants
from tentlab.commutants import (
    AddressConflict,
    CommutingTable,
    PsiTilde,
    _address_numerators,
    _chain_job,
    _product_job,
    _product_rows,
    audit_counts,
    brute_force_commuting,
    check_psi_tilde,
    commutant_count_formula,
    count_extension_argument,
    count_recursion,
    enumerate_psi_tilde,
    pair_fiber_stats,
    pair_from_psi,
    psi_from_pair,
    restrict_table,
    validate_commuting_table,
)
from tentlab.limits import DepthLimitError
from tentlab.rationals import TWO_THIRDS, ZERO
from tentlab.tent import (
    address_to_point,
    grid_points,
    inverse_branch,
    new_grid_points,
    preimage_set,
    tent,
)

F = Fraction


def reference_product_job(n, x0, first):
    """The product filter on Fraction dicts, kept as the slow reference."""
    points = grid_points(n)
    others = [p for p in points if p != ZERO and p != 1]
    universe = preimage_set(n, "F").points
    tent_of_point = {p: tent(p) for p in points}
    tent_of_value = {v: tent(v) for v in universe}
    tent_of_value[x0] = tent(x0)
    results = []
    for combo in product(universe, repeat=len(others)):
        values = dict(zip(others, combo))
        values[ZERO] = x0
        values[Fraction(1)] = first
        if all(tent_of_value[values[x]] == values[tent_of_point[x]] for x in points):
            results.append(values)
    return results


def reference_int_product_job(n, x0, first):
    """The product filter as a per-candidate loop on lattice rows, kept as the int reference."""
    lattice = preimage_set(n, "F").points
    den = len(lattice) - 1
    half = den // 3
    tent_row = [2 * j if 2 * j <= den else 2 * (den - j) for j in range(den + 1)]
    checks = [(i, 2 * i if 2 * i <= half else 2 * (half - i)) for i in range(half + 1)]
    head, tail = (lattice.index(x0),), (lattice.index(first),)
    results = []
    for combo in product(range(den + 1), repeat=half - 1):
        row = head + combo + tail
        if all(tent_row[row[a]] == row[b] for a, b in checks):
            results.append(row)
    return results


def reference_chain_job(n, x0, first):
    """The preimage-choice walk on Fraction dicts, kept as the slow reference."""

    def preimages(y):
        left = inverse_branch(0, y)
        right = inverse_branch(1, y)
        return [left] if left == right else [left, right]

    order = [p for m in range(1, n + 1) for p in sorted(new_grid_points(m))]
    assignment = {ZERO: x0, order[0]: first}
    results = []

    def recurse(i):
        if i == len(order):
            results.append(dict(assignment))
            return
        x = order[i]
        for y in preimages(assignment[tent(x)]):
            assignment[x] = y
            recurse(i + 1)
        del assignment[x]

    if first in preimages(x0):
        recurse(1)
    return results


def reference_check_psi_tilde(pt):
    """The encoding-property check on slices and generators, kept as the slow reference."""
    violations = []
    for m in range(1, pt.n + 1):
        for word in product((0, 1), repeat=m):
            image = pt.table.get(word)
            if image is None or len(image) != len(word):
                violations.append({"property": 1, "word": word, "image": image})
                continue
            if m > 1:
                parent = pt.table.get(word[:-1])
                if parent is None or image[: m - 1] != parent:
                    violations.append(
                        {"property": 2, "word": word, "image": image, "prefix": parent}
                    )
            zeros = next((i for i, bit in enumerate(word) if bit), m)
            if any(image[i] != pt.i0 for i in range(zeros)):
                violations.append({"property": 3, "word": word, "image": image})
    return violations


def reference_psi_from_pair(pt):
    """Decoding on Fraction-keyed dicts, kept as the slow reference."""
    bad = reference_check_psi_tilde(pt)
    if bad:
        raise ValueError(f"encoding violates properties: {bad[:3]}")
    x0 = ZERO if pt.i0 == 0 else TWO_THIRDS
    values = {ZERO: x0}
    witnesses = {}
    for m in range(1, pt.n + 1):
        words = list(product((0, 1), repeat=m))
        images = {w: address_to_point(w, x0) for w in words}
        for word in words:
            x = address_to_point(word, ZERO)
            y = images[pt.table[word]]
            witness = witnesses.setdefault(x, word)
            if witness == word:
                values[x] = y
            elif values[x] != y:
                raise AddressConflict(
                    f"words {witness} and {word} both address {x} "
                    f"but decode to {values[x]} and {y}"
                )
    return CommutingTable(n=pt.n, x0=x0, values=values)


def lattice_row(n, values):
    """Numerators over 3 * 2**(n-1) of a table's values, in grid order."""
    scaled = [values[p] * (3 << (n - 1)) for p in grid_points(n)]
    assert all(q.denominator == 1 for q in scaled)
    return tuple(q.numerator for q in scaled)


class TestCountFormulas:
    def test_formula_values(self):
        assert [commutant_count_formula(n) for n in (1, 2, 3)] == [4, 32, 768]

    def test_recursion_matches_formula(self):
        # algebra: the claimed recursion reproduces the closed form exactly
        for n in range(1, 9):
            assert count_recursion(n) == commutant_count_formula(n)

    def test_extension_argument_diverges_from_recursion(self):
        assert count_extension_argument(1) == 4
        assert count_extension_argument(2) == 32
        assert count_extension_argument(3) == 4096
        assert count_recursion(3) == 768


class TestBruteForce:
    def test_depth_one_tables_exactly(self):
        tables = brute_force_commuting(1)
        got = sorted([tuple(sorted(t.values.items())) for t in tables])
        assert got == sorted(
            [
                ((F(0), F(0)), (F(1), F(0))),
                ((F(0), F(0)), (F(1), F(1))),
                ((F(0), F(2, 3)), (F(1), F(1, 3))),
                ((F(0), F(2, 3)), (F(1), F(2, 3))),
            ]
        )

    def test_depth_two_counts(self):
        tables = brute_force_commuting(2)
        assert len(tables) == 7
        assert len([t for t in tables if t.x0 == ZERO]) == 3
        assert len(brute_force_commuting(2, x0=ZERO)) == 3

    def test_methods_agree(self):
        for n in (1, 2, 3):
            product = brute_force_commuting(n, method="product")
            chain = brute_force_commuting(n, method="chain")
            assert [t.key() for t in product] == [t.key() for t in chain]

    def test_every_table_commutes(self):
        for n in (1, 2, 3, 4):
            for t in brute_force_commuting(n, method="chain"):
                validate_commuting_table(t)

    def test_restriction_of_deeper_tables(self):
        # restricting a depth-3 table to depth 2 lands in the depth-2 set
        keys2 = {t.key() for t in brute_force_commuting(2)}
        for t in brute_force_commuting(3):
            assert restrict_table(t, 2).key() in keys2

    def test_worker_count_does_not_matter(self):
        solo = brute_force_commuting(3, workers=1)
        duo = brute_force_commuting(3, workers=2)
        assert [t.key() for t in solo] == [t.key() for t in duo]

    @pytest.mark.parametrize("method", ["product", "chain", "auto"])
    @pytest.mark.parametrize("n", [0, -2])
    def test_depth_must_be_positive(self, method, n):
        with pytest.raises(ValueError, match=f"depth must be positive, got {n}"):
            brute_force_commuting(n, method=method)

    def test_depth_guard(self):
        with pytest.raises(DepthLimitError):
            brute_force_commuting(4, method="product")
        with pytest.raises(DepthLimitError):
            brute_force_commuting(6, method="chain")


class TestProductFilter:
    @staticmethod
    def assert_same(n, base, first):
        # equal rows, emitted in equal order
        slow = reference_product_job(n, base, first)
        assert _product_job(n, base, first) == [lattice_row(n, v) for v in slow], (n, base, first)

    def test_matches_reference_at_small_depth(self):
        for n in (1, 2):
            for base in (ZERO, TWO_THIRDS):
                for first in preimage_set(n, "F").points:
                    self.assert_same(n, base, first)

    def test_matches_reference_at_depth_three(self):
        for base in (ZERO, TWO_THIRDS):
            for first in (F(0), F(1, 3), F(1, 2), F(1), F(2, 3), F(5, 6)):
                self.assert_same(3, base, first)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_int_reference_for_every_first_value(self, n):
        for base in (ZERO, TWO_THIRDS):
            for first in preimage_set(n, "F").points:
                expected = reference_int_product_job(n, base, first)
                assert _product_job(n, base, first) == expected, (n, base, first)


def test_product_rows_are_cached_job_rows():
    for n in (1, 2):
        for base in (ZERO, TWO_THIRDS):
            for first in preimage_set(n, "F").points:
                rows = _product_rows(n, base, first)
                assert rows == tuple(_product_job(n, base, first))
                assert _product_rows(n, base, first) is rows
    first = brute_force_commuting(3)
    assert [t.key() for t in brute_force_commuting(3)] == [t.key() for t in first]


class TestChainWalk:
    CASES = [(n, base) for n in (1, 2, 3, 4) for base in (ZERO, TWO_THIRDS)] + [(5, ZERO)]

    @pytest.mark.parametrize("n, base", CASES)
    def test_matches_reference(self, n, base):
        expected = []
        for first in (inverse_branch(0, base), inverse_branch(1, base)):
            slow = reference_chain_job(n, base, first)
            # equal rows, emitted in equal order
            assert _chain_job(n, base, first) == [lattice_row(n, v) for v in slow]
            expected += [CommutingTable(n, base, v) for v in slow]
        expected.sort(key=CommutingTable.key)
        got = brute_force_commuting(n, x0=base, method="chain")
        # equal tables in equal order, items in grid order
        grid = grid_points(n)
        assert [(t.x0, list(t.values.items())) for t in got] == [
            (t.x0, [(x, t.values[x]) for x in grid]) for t in expected
        ]
        assert [dict(t.values) for t in got] == [t.values for t in expected]

    def test_off_tree_first_value_yields_nothing(self):
        assert _chain_job(3, ZERO, F(1, 3)) == []
        assert _chain_job(3, TWO_THIRDS, F(0)) == []


class TestLatticeValues:
    def test_read_only(self):
        for t in brute_force_commuting(2):
            with pytest.raises(TypeError):
                t.values[F(1, 2)] = F(0)
            with pytest.raises(TypeError):
                del t.values[F(0)]

    def test_grid_order(self):
        for n in (1, 2, 3):
            for t in brute_force_commuting(n):
                assert list(t.values) == list(grid_points(n))
                assert [x for x, _ in t.values.items()] == list(grid_points(n))
                assert list(t.values.values()) == [t.values[x] for x in grid_points(n)]

    def test_equality_with_plain_dicts(self):
        tables = brute_force_commuting(3)
        for t in tables:
            plain = dict(t.values)
            assert t.values == plain and plain == t.values
            changed = {**plain, F(1, 2): plain[F(1, 2)] + 1}
            assert t.values != changed and changed != t.values
        assert [t.values == u.values for t in tables for u in tables] == [
            dict(t.values) == dict(u.values) for t in tables for u in tables
        ]

    def test_unequal_across_depths(self):
        deep = brute_force_commuting(2)[0]
        shallow = restrict_table(deep, 1)
        shallow_view = brute_force_commuting(1)[0]
        assert dict(shallow_view.values) == dict(shallow.values)
        assert deep.values != shallow_view.values and shallow_view.values != deep.values
        assert deep.values != dict(shallow_view.values)
        assert dict(shallow_view.values) != deep.values

    def test_lookups_off_the_grid(self):
        t = brute_force_commuting(3)[-1]
        for x in (F(1, 3), F(1, 8), F(-1, 4), F(5, 4), 2, "1/2"):
            assert x not in t.values
            assert t.values.get(x) is None
            with pytest.raises(KeyError):
                t.values[x]
        assert t.values[0] == t.values[F(0)] and t.values[1] == t.values[F(1)]


class TestValidation:
    def test_base_value_must_be_fixed_point(self):
        with pytest.raises(ValueError):
            validate_commuting_table(
                CommutingTable(1, F(1, 2), {F(0): F(1, 2), F(1): F(1, 4)})
            )

    def test_commutation_checked(self):
        with pytest.raises(ValueError):
            validate_commuting_table(CommutingTable(1, ZERO, {F(0): F(0), F(1): F(1, 3)}))

    def test_domain_checked(self):
        with pytest.raises(ValueError):
            validate_commuting_table(CommutingTable(2, ZERO, {F(0): F(0), F(1): F(0)}))


class TestEncoding:
    def test_identity_pair(self):
        pt = PsiTilde(1, 0, {(0,): (0,), (1,): (1,)})
        assert dict(psi_from_pair(pt).values) == {F(0): F(0), F(1): F(1)}

    def test_two_thirds_pair(self):
        pt = PsiTilde(1, 1, {(0,): (1,), (1,): (0,)})
        assert dict(psi_from_pair(pt).values) == {F(0): F(2, 3), F(1): F(1, 3)}

    def test_collision_words_resolved_consistently(self):
        pt = PsiTilde(
            2,
            0,
            {
                (0,): (0,),
                (1,): (1,),
                (0, 0): (0, 0),
                (0, 1): (0, 1),
                (1, 0): (1, 0),
                (1, 1): (1, 1),
            },
        )
        assert dict(psi_from_pair(pt).values) == {
            F(0): F(0),
            F(1): F(1),
            F(1, 2): F(1, 2),
        }

    def test_address_conflict_raised(self):
        pt = PsiTilde(
            2,
            0,
            {
                (0,): (0,),
                (1,): (0,),
                (0, 0): (0, 0),
                (0, 1): (0, 0),
                (1, 0): (0, 0),
                (1, 1): (0, 1),
            },
        )
        with pytest.raises(AddressConflict):
            psi_from_pair(pt)

    def test_cross_level_conflict_raised(self):
        # image bits of (1) and (0, 1) disagree: the point 1 is assigned twice
        pt = PsiTilde(
            2,
            0,
            {
                (0,): (0,),
                (1,): (1,),
                (0, 0): (0, 0),
                (0, 1): (0, 0),
                (1, 0): (1, 0),
                (1, 1): (1, 0),
            },
        )
        with pytest.raises(AddressConflict):
            psi_from_pair(pt)

    def test_property_violations_reported(self):
        pt = PsiTilde(
            2,
            0,
            {
                (0,): (0,),
                (1,): (1,),
                (0, 0): (0, 0),
                (0, 1): (1, 0),
                (1, 0): (1, 0),
                (1, 1): (1, 1),
            },
        )
        assert any(v["property"] == 3 for v in check_psi_tilde(pt))
        pt = PsiTilde(
            2,
            0,
            {
                (0,): (0,),
                (1,): (1,),
                (0, 0): (0, 0),
                (0, 1): (0, 1),
                (1, 0): (0, 1),
                (1, 1): (1, 1),
            },
        )
        assert any(v["property"] == 2 for v in check_psi_tilde(pt))

    def test_missing_word_is_a_length_violation(self):
        pt = PsiTilde(2, 0, {(0,): (0,), (1,): (1,)})
        assert any(v["property"] == 1 for v in check_psi_tilde(pt))

    def test_decode_rejects_bad_encodings(self):
        pt = PsiTilde(1, 0, {(0,): (1,), (1,): (1,)})
        with pytest.raises(ValueError):
            psi_from_pair(pt)


def test_cached_addresses_match_address_to_point():
    for n in range(1, 6):
        den = 3 << (n - 1)
        for base in (ZERO, TWO_THIRDS):
            for m in range(1, n + 1):
                addresses = _address_numerators(n, m, int(base * den))
                assert list(addresses) == list(product((0, 1), repeat=m))
                for word, j in addresses.items():
                    assert F(j, den) == address_to_point(word, base)


def mutations(pt):
    """Every single-word mutation: drop a word, truncate an image, flip an image bit."""
    for word, image in pt.table.items():
        dropped = dict(pt.table)
        del dropped[word]
        yield PsiTilde(pt.n, pt.i0, dropped)
        yield PsiTilde(pt.n, pt.i0, {**pt.table, word: image[:-1]})
        for i in range(len(image)):
            flipped = image[:i] + (1 - image[i],) + image[i + 1 :]
            yield PsiTilde(pt.n, pt.i0, {**pt.table, word: flipped})


def decode_outcome(decode, pt):
    try:
        table = decode(pt)
    except AddressConflict as exc:
        return "conflict", str(exc)
    except ValueError as exc:
        return "invalid", str(exc)
    return "table", table.x0, dict(table.values)


class TestCodecMatchesReference:
    def assert_same(self, pt):
        assert check_psi_tilde(pt) == reference_check_psi_tilde(pt), pt
        assert decode_outcome(psi_from_pair, pt) == decode_outcome(
            reference_psi_from_pair, pt
        ), pt

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_encoding(self, n):
        for pt in enumerate_psi_tilde(n):
            self.assert_same(pt)

    @pytest.mark.parametrize("n", [1, 2])
    def test_every_single_word_mutation(self, n):
        outcomes = set()
        for pt in enumerate_psi_tilde(n):
            for bad in mutations(pt):
                self.assert_same(bad)
                outcomes.add(decode_outcome(psi_from_pair, bad)[0])
        # at depth 1 no two words address one point, so nothing can conflict
        assert outcomes == {"invalid", "table"} | ({"conflict"} if n > 1 else set())


class TestPairFromPsi:
    def test_examples(self):
        t = CommutingTable(1, ZERO, {F(0): F(0), F(1): F(0)})
        pt = pair_from_psi(t)
        assert pt.i0 == 0 and pt.table[(1,)] == (0,)
        t = CommutingTable(1, TWO_THIRDS, {F(0): F(2, 3), F(1): F(2, 3)})
        pt = pair_from_psi(t)
        assert pt.i0 == 1 and pt.table[(1,)] == (1,)

    def test_encodings_satisfy_properties(self):
        for n in (1, 2, 3):
            for t in brute_force_commuting(n):
                assert check_psi_tilde(pair_from_psi(t)) == []

    def test_round_trip_on_every_oracle_table(self):
        for n in (1, 2, 3):
            for t in brute_force_commuting(n):
                back = psi_from_pair(pair_from_psi(t))
                assert dict(back.values) == dict(t.values)
                assert back.x0 == t.x0

    def test_plain_dict_tables(self):
        for n in (1, 2, 3):
            for t in brute_force_commuting(n):
                plain = CommutingTable(n, t.x0, dict(t.values))
                assert pair_from_psi(plain) == pair_from_psi(t)

    def test_unaddressable_values_rejected(self):
        with pytest.raises(ValueError, match="not addressable"):
            pair_from_psi(CommutingTable(1, ZERO, {F(0): F(0), F(1): F(1, 3)}))
        with pytest.raises(ValueError, match="base value must be 0 or 2/3"):
            pair_from_psi(CommutingTable(1, F(1, 2), {F(0): F(1, 2), F(1): F(1, 4)}))

    def test_base_bit_anchoring(self):
        # the base value pins the base bit: 2/3 is fixed by branch 1 only
        for t in brute_force_commuting(2):
            pt = pair_from_psi(t)
            assert pt.i0 == (0 if t.x0 == ZERO else 1)


def reference_pair_fiber_stats(n):
    """Fiber counts by decoding every encoding with psi_from_pair, kept as the slow reference."""
    oracle = brute_force_commuting(n)
    fibers = Counter()
    conflicts = 0
    for pt in enumerate_psi_tilde(n):
        try:
            fibers[psi_from_pair(pt).values.row] += 1
        except AddressConflict:
            conflicts += 1
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


class TestFibers:
    def test_depth_one_is_bijective(self):
        stats = pair_fiber_stats(1)
        assert stats["bijective"]
        assert stats["pairs_total"] == 4 and stats["oracle_tables"] == 4

    def test_depth_two_fibers(self):
        stats = pair_fiber_stats(2)
        assert stats == {
            "n": 2,
            "pairs_total": 32,
            "pairs_consistent": 10,
            "pairs_conflicting": 22,
            "distinct_tables_from_pairs": 7,
            "oracle_tables": 7,
            "bijective": False,
            "fiber_sizes": {"1": 6, "4": 1},
        }

    def test_depth_three_fibers(self):
        assert pair_fiber_stats(3) == {
            "n": 3,
            "pairs_total": 4096,
            "pairs_consistent": 100,
            "pairs_conflicting": 3996,
            "distinct_tables_from_pairs": 25,
            "oracle_tables": 25,
            "bijective": False,
            "fiber_sizes": {"1": 20, "16": 5},
        }

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_walk_matches_decoding_reference(self, n):
        assert pair_fiber_stats(n) == reference_pair_fiber_stats(n)

    @pytest.mark.parametrize("n", [0, 4])
    def test_walk_rejects_depths_as_the_reference_does(self, n):
        with pytest.raises(ValueError) as walked:
            pair_fiber_stats(n)
        with pytest.raises(ValueError) as decoded:
            reference_pair_fiber_stats(n)
        assert type(walked.value) is type(decoded.value)
        assert str(walked.value) == str(decoded.value)
        if n == 4:
            assert isinstance(walked.value, DepthLimitError)
            assert str(walked.value).startswith("enumerate_psi_tilde")

    @pytest.mark.parametrize(
        "n, override, kind, message",
        [
            (0, None, ValueError, "depth must be positive, got 0"),
            (4, None, DepthLimitError, "enumerate_psi_tilde: depth 4 exceeds bound 3"),
            (5, None, DepthLimitError, "enumerate_psi_tilde: depth 5 exceeds bound 3"),
            (6, None, DepthLimitError, "brute_force_commuting[chain]: depth 6 exceeds bound 5"),
            (3, "2", DepthLimitError, "brute_force_commuting[product]: depth 3 exceeds bound 2"),
        ],
        ids=["n0", "n4", "n5", "n6", "n3-bound2"],
    )
    def test_guard_errors(self, n, override, kind, message, monkeypatch):
        if override is not None:
            monkeypatch.setenv("TENTLAB_MAX_DEPTH", override)
        if kind is DepthLimitError:
            message += " (set TENTLAB_MAX_DEPTH to override)"
        with pytest.raises(ValueError) as caught:
            pair_fiber_stats(n)
        assert type(caught.value) is kind
        assert str(caught.value) == message

    @pytest.mark.parametrize("n", [4, 5])
    def test_guards_refuse_before_the_oracle_runs(self, n, monkeypatch):
        def no_oracle(*args):
            raise AssertionError("the chain oracle ran")

        monkeypatch.setattr(commutants, "_chain_job", no_oracle)
        with pytest.raises(DepthLimitError, match="enumerate_psi_tilde"):
            pair_fiber_stats(n)

    @pytest.mark.parametrize("n", [0, -1])
    def test_encodings_need_a_positive_depth(self, n):
        with pytest.raises(ValueError, match=f"depth must be positive, got {n}"):
            enumerate_psi_tilde(n)

    def test_consistent_pairs_decode_into_oracle_set(self):
        for n in (1, 2, 3):
            oracle = {t.key() for t in brute_force_commuting(n)}
            for pt in enumerate_psi_tilde(n):
                try:
                    table = psi_from_pair(pt)
                except AddressConflict:
                    continue
                validate_commuting_table(table)
                assert table.key() in oracle


class TestAudit:
    def test_depth_one_agrees(self):
        report = audit_counts(1)
        assert report["agree"] and report["brute_force"] == 4

    def test_depth_two_disagrees(self):
        report = audit_counts(2)
        assert report == {
            "n": 2,
            "formula": 32,
            "brute_force": 7,
            "recursion_8": 32,
            "extension_argument": 32,
            "agree": False,
        }

    def test_beyond_oracle_reach(self):
        report = audit_counts(7)
        assert report["brute_force"] is None
        assert not report["agree"]  # extension argument splits from the others


def test_serialization_round_trip():
    t = brute_force_commuting(2)[0]
    doc = t.to_json_dict()
    assert set(doc) == {"n", "x0", "values"}
    back = CommutingTable.from_json_dict(doc)
    assert dict(back.values) == dict(t.values) and back.x0 == t.x0
