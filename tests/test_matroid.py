import itertools
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import down_closed_families, uniform
from gammoids import digraph
from gammoids.certificate import _excluded_minor, verify_certificate
from gammoids.corpus import random_presentation
from gammoids.digraph import Digraph, Presentation
from gammoids.errors import (
    AxiomViolation,
    GroundSetTooLarge,
    NotACircuitHyperplane,
    ReverifyFailed,
)
from gammoids.matroid import Matroid, _popcounts


def parallel_pair_matroid() -> Matroid:
    # rank 2 on {a,b,c,d} with a,b a parallel pair: every 2-set but {a,b} is a basis
    return Matroid.from_independence_oracle(
        "abcd", lambda mask: mask.bit_count() <= 2 and mask != 0b0011
    )


class TestConstruction:
    def test_free_single_element(self):
        m = Matroid.from_independence_oracle("a", lambda mask: True)
        assert m.rank_of("a") == 1
        assert m.rank == 1

    def test_uniform_from_cardinality_oracle(self):
        m = uniform("abcd", 2)
        assert m.rank == 2
        assert m.rank_of("") == 0
        assert m.rank_of("abc") == 2

    def test_empty_ground_set_is_rank_zero(self):
        m = Matroid.from_independence_oracle((), lambda mask: mask == 0)
        assert m.rank == 0 and m.size == 0

    def test_oracle_rejecting_empty_set(self):
        with pytest.raises(AxiomViolation):
            Matroid.from_independence_oracle("ab", lambda mask: mask != 0)

    def test_oracle_without_downward_closure(self):
        with pytest.raises(AxiomViolation):
            Matroid.from_independence_oracle(
                "ab", lambda mask: mask in (0, 0b11)
            )

    def test_oracle_without_augmentation(self):
        # downward closed family {∅,{a},{b},{c},{b,c}} is not a matroid
        with pytest.raises(AxiomViolation):
            Matroid.from_independence_oracle(
                "abc", lambda mask: mask in (0b000, 0b001, 0b010, 0b100, 0b110)
            )

    def test_ground_set_cap(self):
        with pytest.raises(GroundSetTooLarge):
            Matroid.from_independence_oracle(
                [f"e{i}" for i in range(25)], lambda mask: True
            )

    def test_from_bases_round_trip(self):
        m = parallel_pair_matroid()
        doc = m.to_doc()
        again = Matroid.from_bases(doc["ground"], doc["bases"])
        assert again.equals(m)
        assert again.to_doc() == doc

    def test_from_bases_rejects_non_matroid_family(self):
        with pytest.raises(AxiomViolation):
            Matroid.from_bases("abcd", [["a", "b"], ["c", "d"]])

    def test_from_bases_table_is_best_basis_overlap(self):
        # rank(X) = max over the bases B of |X & B|
        rng = random.Random(0xBA5E)
        for _ in range(100):
            m = random_presentation(rng, max_vertices=7).matroid
            masks = [m.mask_of(b) for b in m.bases()]
            table = Matroid.from_bases(m.ground, m.bases()).table
            expected = [max((x & b).bit_count() for b in masks) for x in range(1 << m.size)]
            assert table.tolist() == expected == m.table.tolist()

    def test_from_bases_rejects_non_basis_families(self):
        # distinct sets of one size are the bases of a matroid iff they satisfy
        # basis exchange; any other such family is refused
        def exchange_holds(family, n):
            return all(
                any(a & ~(1 << i) | 1 << j in family for j in range(n) if (b & ~a) >> j & 1)
                for a in family
                for b in family
                for i in range(n)
                if (a & ~b) >> i & 1
            )

        rng = random.Random(0xBA5E)
        verdicts = set()
        for _ in range(300):
            n = rng.randint(1, 5)
            k = rng.randint(0, n)
            sets = [sum(1 << i for i in c) for c in itertools.combinations(range(n), k)]
            family = set(rng.sample(sets, rng.randint(1, len(sets))))
            ground = "abcde"[:n]
            bases = [[g for i, g in enumerate(ground) if mask >> i & 1] for mask in family]
            if exchange_holds(family, n):
                m = Matroid.from_bases(ground, bases)
                assert {m.mask_of(b) for b in m.bases()} == family
            else:
                with pytest.raises(AxiomViolation):
                    Matroid.from_bases(ground, bases)
            verdicts.add(exchange_holds(family, n))
        assert verdicts == {True, False}

    def test_from_bases_errors(self):
        with pytest.raises(ValueError, match="at least one basis is required"):
            Matroid.from_bases("ab", [])
        with pytest.raises(ValueError, match="basis label 'z' not in ground set"):
            Matroid.from_bases("ab", [["z"]])

    def test_from_independence_checks_length(self):
        with pytest.raises(ValueError):
            Matroid.from_independence("ab", np.ones(3, dtype=bool))

    def test_table_constructor_refusals(self):
        with pytest.raises(ValueError, match="^duplicate ground labels$"):
            Matroid("aa", np.zeros(4))
        with pytest.raises(GroundSetTooLarge, match="^25 elements exceeds cap 24$"):
            Matroid([f"e{i}" for i in range(25)], np.zeros(1))
        with pytest.raises(ValueError, match="^rank table has wrong length$"):
            Matroid("ab", np.zeros(3))

    def test_ground_caps_and_duplicates_of_the_decoders(self):
        wide = [f"e{i}" for i in range(25)]
        with pytest.raises(GroundSetTooLarge, match="^25 elements exceeds cap 24$"):
            Matroid.from_independence(wide, np.ones(1, dtype=bool))
        with pytest.raises(GroundSetTooLarge, match="^25 elements exceeds cap 24$"):
            Matroid.from_bases(wide, [wide[:1]])
        with pytest.raises(ValueError, match="^duplicate ground labels$"):
            Matroid.from_bases("aa", [["a"]])


class TestRankAndCircuits:
    def test_uniform_ranks(self):
        m = uniform("abcd", 2)
        assert m.rank_of([]) == 0
        assert m.rank_of("abc") == 2

    def test_circuits_of_u24(self):
        m = uniform("abcd", 2)
        assert m.circuits() == [
            ("a", "b", "c"),
            ("a", "b", "d"),
            ("a", "c", "d"),
            ("b", "c", "d"),
        ]
        assert m.nonspanning_circuits() == []

    def test_circuit_order_is_ascending_by_mask(self):
        m = parallel_pair_matroid()
        masks = m.circuit_masks()
        assert masks == sorted(masks)
        assert m.nonspanning_circuits() == [("a", "b")]

    def test_free_matroid_has_no_circuits(self):
        m = Matroid.from_independence_oracle("xyz", lambda mask: True)
        assert m.circuits() == []


class TestMinorsAndDual:
    def test_contract_nothing_is_identity(self):
        m = uniform("abcd", 2)
        assert m.contract([]).equals(m)

    def test_dual_is_involution(self):
        for m in (uniform("abcd", 2), parallel_pair_matroid()):
            assert m.dual().dual().equals(m)

    def test_delete_contract_commute_on_disjoint_sets(self):
        m = parallel_pair_matroid()
        for dmask in range(16):
            for cmask in range(16):
                if dmask & cmask or (dmask | cmask) == 15:
                    continue
                dels = m.labels_of(dmask)
                cons = m.labels_of(cmask)
                one = m.delete(dels).contract(cons)
                two = m.contract(cons).delete(dels)
                assert one.equals(two)

    def test_deletion_dualizes_to_contraction(self):
        m = parallel_pair_matroid()
        for mask in range(16):
            labels = m.labels_of(mask)
            assert m.delete(labels).dual().equals(m.dual().contract(labels))

    def test_equals_is_label_sensitive(self):
        u12 = uniform("ab", 1)
        u22 = uniform("ab", 2)
        assert u12.equals(u12)
        assert not u12.equals(u22)
        assert not u12.equals(uniform("ac", 1))

    def test_equals_matches_labels_not_positions(self):
        m = parallel_pair_matroid()
        perm = m.delete([]).contract([])
        reordered = Matroid.from_independence_oracle(
            "dcba",
            lambda mask: m.is_independent(
                ["dcba"[i] for i in range(4) if mask >> i & 1]
            ),
        )
        assert m.equals(reordered) and reordered.equals(perm)


class TestRelaxation:
    def test_relax_parallel_pair_gives_uniform(self):
        m = parallel_pair_matroid()
        assert m.is_circuit_hyperplane("ab")
        assert m.relax("ab").equals(uniform("abcd", 2))

    def test_relax_rejects_non_circuit_hyperplane(self):
        with pytest.raises(NotACircuitHyperplane):
            uniform("abcd", 2).relax("ab")

    def test_circuit_hyperplane_needs_independent_children(self):
        # rank 3 with a, b parallel: abc has rank 2, but its child ab has rank 1
        m = Matroid.from_independence_oracle("abcd", lambda mask: mask & 0b11 != 0b11)
        assert m.rank == 3 and m.rank_of("abc") == 2
        assert not m.is_circuit_hyperplane("abc")

    def test_circuit_hyperplane_needs_a_flat(self):
        # U(2,4) on abcd plus a coloop e: the circuit abc spans d, not a hyperplane
        m = Matroid.from_independence_oracle(
            "abcde", lambda mask: (mask & 0b1111).bit_count() <= 2
        )
        assert m.rank == 3 and m.rank_of("abcd") == 2
        assert not m.is_circuit_hyperplane("abc")

    def test_relax_adds_exactly_one_basis_and_changes_one_rank(self):
        m = parallel_pair_matroid()
        relaxed = m.relax("ab")
        assert len(relaxed.basis_masks()) == len(m.basis_masks()) + 1
        assert set(relaxed.basis_masks()) == set(m.basis_masks()) | {m.mask_of("ab")}
        diff = np.nonzero(np.asarray(relaxed.table) != np.asarray(m.table))[0]
        assert list(diff) == [m.mask_of("ab")]

    def test_relax_then_delete_inside_matches_plain_delete(self):
        m = parallel_pair_matroid()
        relaxed = m.relax("ab")
        for e in "ab":
            assert relaxed.delete(e).equals(m.delete(e))


class TestFreePlacement:
    def test_coloop_is_freely_placed(self):
        m = Matroid.from_independence_oracle("abc", lambda mask: True)
        assert all(m.is_freely_placed(x) for x in "abc")

    def test_parallel_element_is_not_freely_placed(self):
        m = parallel_pair_matroid()
        assert not m.is_freely_placed("a")
        assert m.is_freely_placed("c")


class TestIngleton:
    def test_empty_quadruple(self):
        m = uniform("abcd", 2)
        chk = m.ingleton_check([], [], [], [])
        assert (chk.lhs, chk.rhs, chk.holds) == (0, 0, True)

    def test_u24_satisfies_ingleton_everywhere(self):
        m = uniform("abcd", 2)
        subsets = [m.labels_of(mask) for mask in range(16)]
        for a, b, c, d in itertools.product(subsets, repeat=4):
            assert m.ingleton_check(a, b, c, d).holds

    def test_symmetry_in_first_and_last_pair(self):
        m = parallel_pair_matroid()
        quads = [("ab", "cd", "ac", "bd"), ("a", "bc", "d", "ab")]
        for a, b, c, d in quads:
            chk = m.ingleton_check(a, b, c, d)
            assert m.ingleton_check(b, a, c, d).holds == chk.holds
            assert m.ingleton_check(a, b, d, c).holds == chk.holds


class TestGreedy:
    def test_greedy_basis_prefers_low_labels(self):
        m = parallel_pair_matroid()
        assert m.greedy_basis() == ("a", "c")
        assert m.greedy_basis(containing=("d",)) == ("a", "d")

    def test_greedy_max_independent_within(self):
        m = parallel_pair_matroid()
        assert m.greedy_max_independent(within="ab") == ("a",)

    def test_greedy_refusals(self):
        with pytest.raises(ValueError, match="^start set is dependent$"):
            parallel_pair_matroid().greedy_max_independent(start="ab")
        # a table that is no matroid: rank 1, but both elements are loops
        with pytest.raises(ValueError, match="^greedy extension fell short of a basis$"):
            Matroid("ab", np.array([0, 0, 0, 1])).greedy_basis()

    def test_table_in_needs_a_reordering(self):
        with pytest.raises(ValueError, match="^order is not a reordering of the ground set$"):
            parallel_pair_matroid().table_in("abcx")


def all_pairs_rank_axioms(table: np.ndarray, n: int) -> bool:
    """The rank axioms checked on every subset and every pair of subsets."""
    t = table.astype(np.int16)
    ar = np.arange(1 << n)
    if t[0] != 0:
        return False
    for x in range(1 << n):
        if t[x] > x.bit_count():
            return False
        if np.any(t[ar[(ar & x) == x]] < t[x]):
            return False
        if np.any(t[x] + t < t[x | ar] + t[x & ar]):
            return False
    return True


def first_local_failure(m: Matroid) -> str | None:
    """The message of the first failing local check, in the documented order."""
    t = [int(r) for r in m.table]
    n = m.size
    if t[0] != 0:
        return "rank of the empty set is not 0"
    for b in range(n):
        for x in range(1 << n):
            if not x >> b & 1 and not t[x] <= t[x | 1 << b] <= t[x] + 1:
                return f"unit increase fails at {m.labels_of(x)} + {m.ground[b]}"
    for b, f in itertools.combinations(range(n), 2):
        for x in range(1 << n):
            if x >> b & 1 or x >> f & 1:
                continue
            if t[x | 1 << b] + t[x | 1 << f] < t[x | 1 << b | 1 << f] + t[x]:
                return (
                    f"submodularity fails at {m.labels_of(x)} with "
                    f"{m.ground[b]}, {m.ground[f]}"
                )
    return None


class TestVerifyAxioms:
    def test_local_checks_agree_with_all_pairs(self):
        # perturbed uniform tables: some stay matroids, most break an axiom
        rng = random.Random(0xA7)
        verdicts = {"ok": 0, "unit increase": 0, "submodularity": 0}
        for _ in range(800):
            n = rng.randint(1, 7)
            k = rng.randint(0, n)
            table = np.array(
                [min(x.bit_count(), k) for x in range(1 << n)], dtype=np.int16
            )
            for _ in range(rng.randint(0, 3)):
                x = rng.randrange(1, 1 << n)
                table[x] = max(0, table[x] + rng.choice((-1, 1)))
            m = Matroid("abcdefg"[:n], table)
            expected = first_local_failure(m)
            assert (expected is None) == all_pairs_rank_axioms(m.table, n)
            if expected is None:
                m.verify_axioms()
                verdicts["ok"] += 1
            else:
                with pytest.raises(AxiomViolation) as err:
                    m.verify_axioms()
                assert str(err.value) == expected
                verdicts[expected.split(" fails")[0]] += 1
        assert min(verdicts.values()) >= 10, verdicts

    def test_empty_set_rank(self):
        with pytest.raises(AxiomViolation, match="rank of the empty set is not 0"):
            Matroid("a", np.array([1, 1])).verify_axioms()

    def test_records_do_not_imply_the_axioms_of_a_decoded_basis_family(self):
        # bases of two sizes are no matroid's, yet every single-element
        # deletion and contraction has the independent sets of a matroid,
        # which is all a record shows: verify refuses this family because
        # its listing is not canonical (TestDecodedFamilies)
        with pytest.raises(
            AxiomViolation, match=r"^submodularity fails at \('c',\) with a, b$"
        ):
            Matroid.from_bases("abc", [["a", "b"], ["c"]])
        indep = np.zeros(8, dtype=bool)
        indep[[0b000, 0b001, 0b010, 0b011, 0b100]] = True  # the subsets of ab and c
        decoded = Matroid._from_independent_sets(tuple("abc"), indep)
        for x in "abc":
            for minor in (decoded.delete([x]), decoded.contract([x])):
                Matroid.from_independence(minor.ground, minor.table == _popcounts(2))


def is_matroid_family(m: Matroid) -> bool:
    """Whether the sets whose rank in ``m`` is their size are a matroid's."""
    try:
        Matroid.from_independence(m.ground, m.table == _popcounts(m.size))
    except AxiomViolation:
        return False
    return True


class TestDecodedFamilies:
    """verify checks no axiom of the excluded minor it decodes: the listing
    and the deletion records imply them."""

    # labeled matroids on n = 1..5 elements
    MATROIDS = {1: 2, 2: 5, 3: 16, 4: 68, 5: 406}

    @pytest.mark.parametrize("n", range(1, 6))
    def test_pure_families_with_matroid_deletions_are_matroid_families(self, n):
        # axiom I3': a family is a matroid's iff, inside every X, its maximal
        # members have one size; X = E is purity, and each X inside E - x is
        # a deletion's
        ground = tuple("abcde"[:n])
        pc = _popcounts(n)
        qualify = 0
        for family in down_closed_families(n):
            indep = np.zeros(1 << n, dtype=bool)
            indep[list(family)] = True
            decoded = Matroid._from_independent_sets(ground, indep)
            grows = [{x | 1 << b for b in range(n)} - {x} for x in family]
            sizes = {pc[x] for x, up in zip(family, grows) if not up & family}  # maximal x
            if len(sizes) == 1 and all(is_matroid_family(decoded.delete([x])) for x in ground):
                assert is_matroid_family(decoded), sorted(family)
                qualify += 1
        assert qualify == self.MATROIDS[n]

    def test_a_listing_of_two_sizes_is_not_canonical(self):
        with pytest.raises(ReverifyFailed) as info:
            _excluded_minor({"ground": list("abc"), "bases": [["a", "b"], ["c"]]})
        assert info.value.location == "recipe.excluded_minor.bases"
        assert info.value.detail == "basis family is not in canonical form"

    @pytest.mark.parametrize("python", [False, True], ids=["live-engine", "python-engine"])
    def test_a_record_of_lower_rank_does_not_present_a_deletion(self, monkeypatch, python):
        if python:
            monkeypatch.setattr(digraph, "_KERNEL", None)
        bases = [["b", "c"], ["a", "d"], ["b", "d"], ["c", "d"]]  # in mask order
        with pytest.raises(AxiomViolation):
            Matroid.from_bases("abcd", bases)
        m = _excluded_minor({"ground": list("abcd"), "bases": bases})
        minor = m.delete(["d"])  # the subsets of a and of bc: no matroid's
        assert not is_matroid_family(minor) and minor.rank == 2
        # U(1,3), routing a first: a is a maximal member of the family, and
        # every linked set is in it; only the rank shows that bc is missing
        u13 = Presentation(Digraph("abct", [(g, "t") for g in "abc"]), "abc", "t")
        expected = minor.table == _popcounts(3)
        found = digraph._linkage_independence(u13.graph, u13.ground, u13.targets, expected)
        assert found.equal and found.rank == 1
        assert not u13.presents(minor)


def gf2_rank(vectors) -> int:
    """Rank over GF(2) of integer bit vectors (xor basis with distinct top bits)."""
    basis: list[int] = []
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
    return len(basis)


# columns of a GF(2) matrix with up to 4 rows: 0 is a loop, repeats are parallel
gf2_columns = st.lists(st.integers(0, 15), max_size=9)
cube_settings = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def gf2_ranks(cols) -> list[int]:
    """The rank of every mask, from the definition."""
    n = len(cols)
    return [gf2_rank(cols[i] for i in range(n) if x >> i & 1) for x in range(1 << n)]


def gf2_matroid(cols) -> Matroid:
    return Matroid([f"e{i}" for i in range(len(cols))], np.array(gf2_ranks(cols)))


class TestCubeOperations:
    """Minors, circuits and relabeling against their definitions."""

    @cube_settings
    @given(gf2_columns, st.integers(0, 511))
    @example([], 0)
    @example([1, 2, 4, 3], 0b1111)  # everything
    @example([0, 1, 0, 1, 2], 0b00111)  # two loops and a parallel element
    def test_deletion_keeps_ranks(self, cols, chosen):
        m = gf2_matroid(cols)
        gone = m.labels_of(chosen & ((1 << m.size) - 1))
        minor = m.delete(gone)
        assert minor.ground == tuple(g for g in m.ground if g not in gone)
        for x in range(1 << minor.size):
            assert int(minor.table[x]) == m.rank_of(minor.labels_of(x))

    @cube_settings
    @given(gf2_columns, st.integers(0, 511))
    @example([], 0)
    @example([1, 2, 4, 3], 0b1111)  # everything
    @example([0, 1, 0, 1, 2], 0b00111)  # two loops and a parallel element
    def test_contraction_subtracts_rank(self, cols, chosen):
        m = gf2_matroid(cols)
        ranks = gf2_ranks(cols)
        c = chosen & ((1 << m.size) - 1)
        minor = m.contract(m.labels_of(c))
        assert minor.ground == m.labels_of(~c & ((1 << m.size) - 1))
        for x in range(1 << minor.size):
            full = m.mask_of(minor.labels_of(x)) | c
            assert int(minor.table[x]) == ranks[full] - ranks[c]

    @cube_settings
    @given(gf2_columns)
    @example([])
    @example([0, 3, 3, 1, 2])
    def test_circuits_are_minimal_dependent_sets(self, cols):
        ranks = gf2_ranks(cols)

        def independent(x):
            return ranks[x] == x.bit_count()

        def proper_subsets(x):
            sub = (x - 1) & x
            while True:
                yield sub
                if not sub:
                    return
                sub = (sub - 1) & x

        expected = [
            x
            for x in range(1, 1 << len(cols))
            if not independent(x) and all(independent(s) for s in proper_subsets(x))
        ]
        assert gf2_matroid(cols).circuit_masks() == expected

    @cube_settings
    @given(gf2_columns, st.randoms(use_true_random=False), st.integers(0, 511))
    @example([], random.Random(0), 0)
    def test_equals_after_relabeling(self, cols, rng, entry):
        m = gf2_matroid(cols)
        order = list(m.ground)
        rng.shuffle(order)
        vectors = dict(zip(m.ground, cols))
        shuffled = gf2_matroid([vectors[g] for g in order])
        relabeled = Matroid(order, shuffled.table)
        assert m.equals(relabeled) and relabeled.equals(m)
        table = shuffled.table.copy()
        table[entry % len(table)] += 1
        changed = Matroid(order, table)
        assert not m.equals(changed) and not changed.equals(m)


class TestBasisListing:
    """The bulk basis listing against one ``labels_of`` call per basis mask."""

    @cube_settings
    @given(gf2_columns)
    @example([])  # rank 0 on nothing
    @example([0, 0, 0])  # rank 0: three loops
    @example([1, 2, 4, 8])  # the free matroid
    @example([1, 2, 4, 8, 1, 2, 4, 8, 15])
    def test_listing_matches_labels_of(self, cols):
        m = gf2_matroid(cols)
        expected = [m.labels_of(x) for x in m.basis_masks()]
        assert m.bases() == expected
        assert m.to_doc() == {"ground": list(m.ground), "bases": [list(b) for b in expected]}
        if m.rank == 0:
            assert m.to_doc()["bases"] == [[]]
        again = Matroid.from_bases(m.ground, m.to_doc()["bases"])
        assert again.ground == m.ground and again.table.tolist() == m.table.tolist()

    def test_repeated_label_counts_once(self):
        bases = [["a", "b"], ["a", "c"], ["b", "c"]]
        repeated = [["a", "b", "a"], ["a", "c", "c"], ["b", "c"]]
        assert Matroid.from_bases("abc", repeated).equals(Matroid.from_bases("abc", bases))

    def test_first_unknown_label_is_named(self):
        with pytest.raises(ValueError, match="^basis label 'y' not in ground set$"):
            Matroid.from_bases("ab", [["a"], ["a", "y"], ["z"]])
        with pytest.raises(ValueError, match="^basis label 'x' not in ground set$"):
            Matroid.from_bases("ab", [[], ["x", "w"]])

    def test_bases_as_strings_and_generators(self):
        m = uniform("abcd", 2)
        bases = m.to_doc()["bases"]
        assert Matroid.from_bases("abcd", ["".join(b) for b in bases]).equals(m)
        assert Matroid.from_bases("abcd", (iter(b) for b in bases)).equals(m)
        assert Matroid.from_bases("abcd", map(tuple, bases)).equals(m)


class TestCanonicalBases:
    """``verify`` decodes an excluded minor's family iff ``to_doc`` lists it so;
    the records refuse a decoded family that is no matroid's."""

    @cube_settings
    @given(gf2_columns, st.randoms(use_true_random=False))
    @example([], random.Random(0))  # rank 0: the family [[]]
    @example([0, 0, 0], random.Random(0))
    @example([1, 2, 4, 8, 1, 2, 4, 8, 15], random.Random(0))
    def test_agrees_with_comparing_the_listing(self, cols, rng):
        m = gf2_matroid(cols)
        listed = m.to_doc()["bases"]
        assert _excluded_minor({"ground": list(m.ground), "bases": listed}).equals(m)
        for family in variants(listed, rng):
            doc = {"ground": list(m.ground), "bases": family}
            try:
                masks = Matroid._read_bases(m.ground, family)[1]
            except ValueError as exc:
                with pytest.raises(ReverifyFailed) as info:
                    _excluded_minor(doc)
                assert info.value.detail == str(exc)
                continue
            plain = Matroid._from_basis_masks(m.ground, masks)  # no axiom check
            if family == plain.to_doc()["bases"]:
                assert _excluded_minor(doc).equals(plain)
                # if no matroid's, some deletion is no matroid's: no record presents it
                deletions = (plain.delete([x]) for x in plain.ground)
                assert is_matroid_family(plain) or not all(map(is_matroid_family, deletions))
            else:
                with pytest.raises(ReverifyFailed) as info:
                    _excluded_minor(doc)
                assert info.value.location == "recipe.excluded_minor.bases"
                assert info.value.detail == "basis family is not in canonical form"

    def test_records_refuse_a_canonical_family_of_no_matroid(self, u24_cert_doc):
        recipe = u24_cert_doc["recipe"]
        em = recipe["excluded_minor"]
        at_records = 0
        for seed in range(8):
            for family in variants(em["bases"], random.Random(seed)):
                if family == em["bases"]:
                    continue  # a basis swapped with itself
                changed = {**em, "bases": family}
                doc = {**u24_cert_doc, "recipe": {**recipe, "excluded_minor": changed}}
                with pytest.raises(ReverifyFailed) as info:
                    verify_certificate(doc)
                try:
                    decoded = _excluded_minor(changed)
                except ReverifyFailed as exc:
                    assert info.value.location == exc.location
                    continue
                if not is_matroid_family(decoded):  # a dropped basis may leave a matroid
                    record = r"minors\[\d+\]\.(deletion|contraction)"
                    assert re.fullmatch(record, info.value.location)
                    at_records += 1
        assert at_records == 5


def variants(listed: list[list[str]], rng: random.Random) -> list[list[list[str]]]:
    """Families near ``listed``: reordered, repeated, with bases dropped or grown."""
    out = [[list(b) for b in listed] for _ in range(6)]
    reversed_basis, swapped, repeated, dropped, doubled_label, shuffled = out
    k = rng.randrange(len(listed))
    reversed_basis[k].reverse()
    i, j = rng.randrange(len(listed)), rng.randrange(len(listed))
    swapped[i], swapped[j] = swapped[j], swapped[i]
    repeated.insert(k, list(listed[k]))
    del dropped[k]
    if listed[k]:
        doubled_label[k].append(listed[k][-1])
    rng.shuffle(shuffled)
    return out
