import dataclasses
import json
import os
import random
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import complete, record_instances, uniform
from gammoids import certify, construct, construction, digraph, normalize, parse_presentation
from gammoids.certificate import certificate_to_json, verify_certificate
from gammoids.construction import APEXES
from gammoids.corpus import RANK3_DOC, U24_DOC, random_presentation
from gammoids.digraph import Digraph, Presentation
from gammoids.errors import ClaimFailed, GraphTooLarge, TooLarge
from gammoids.matroid import Matroid
from gammoids.surgery import retarget


def family_subsets(m, families, size):
    out = set()
    for family in families:
        if len(family) >= size:
            for combo in combinations(sorted(family), size):
                out.add(m.mask_of(combo))
    return out


def drop_arc_changing_matroid(p, among=None, outside=()):
    """``p`` without one arc of ``among`` (by default, of all its arcs), chosen
    so that the presented matroid minus ``outside`` changes."""
    for arc in p.graph.arcs if among is None else among:
        arcs = [a for a in p.graph.arcs if a != arc]
        q = Presentation(Digraph(p.graph.vertices, arcs), p.ground, p.targets)
        if not q.matroid.delete(outside).equals(p.matroid.delete(outside)):
            return q
    raise AssertionError("no single arc changes the presented matroid")


def block_meeting_circuits(m, block):
    block_mask = m.mask_of(block)
    return {c for c in m.nonspanning_circuit_masks() if c & block_mask}


class TestNormalization:
    def test_split_input_passes_through(self):
        norm = normalize(parse_presentation(U24_DOC))
        assert set(norm.basis_one) == {"a", "b"}
        assert set(norm.basis_two) == {"c", "d"}
        assert norm.delete_back == () and norm.contract_back == ()

    def test_all_loops_input(self):
        norm = normalize(Presentation(Digraph("ab"), "ab", ""))
        assert norm.contract_back == ("t#1", "t#2")
        assert norm.presentation.matroid.rank == 2

    def test_empty_ground_set_is_refused(self):
        with pytest.raises(ValueError, match="^cannot normalize an empty ground set$"):
            normalize(Presentation(Digraph("t"), "", "t"))


class TestBundleShape:
    def test_counts_and_ranks(self, u24_run):
        bundle, _, _ = u24_run
        assert bundle.r == 2
        assert bundle.result.size == 3 * bundle.r + 5 == 11
        assert bundle.result.rank == bundle.r + 3 == 5
        assert len(bundle.block_c) == 2 and len(bundle.block_d) == bundle.r + 1

    def test_gadget_vertex_count(self, u24_run):
        # the primed copies and both apexes, then the exit, the collectors and the blocks
        bundle, _, _ = u24_run
        for i, s_own in ((1, bundle.s1), (2, bundle.s2)):
            rebased = retarget(bundle.normalized.presentation, s_own)
            assert len(bundle.branches[i].gadget.graph.vertices) == (
                len(rebased.graph.vertices) + bundle.r + 2 + 3 + len(bundle.relaxed_set)
            )

    def test_own_basis_with_apexes_is_a_basis(self, u24_run):
        bundle, _, _ = u24_run
        for s_own in (bundle.s1, bundle.s2):
            assert bundle.core.is_basis(s_own + APEXES)
        assert bundle.core.rank == bundle.r + 2

    def test_gadget_restricts_to_core(self, u24_run):
        bundle, _, _ = u24_run
        for branch in bundle.branches.values():
            assert branch.gadget.matroid.delete(bundle.relaxed_set).equals(bundle.core)

    def test_block_sets_independent_in_bypass(self, u24_run):
        bundle, _, _ = u24_run
        for i, s_own in ((1, bundle.s1), (2, bundle.s2)):
            m = bundle.branches[i].bypass.matroid
            assert m.is_independent(bundle.relaxed_set)
            assert m.is_independent(s_own + bundle.block_c + (APEXES[i - 1],))


class TestClaims:
    def test_all_claims_true(self, u24_run):
        _, cert, _ = u24_run
        assert all(cert["claims"].values())

    def test_recipe_mismatch_is_a_failed_claim(self, monkeypatch):
        # U_{2,3} needs one padding element; a recipe that keeps it fails
        real = construction.normalize
        monkeypatch.setattr(
            construction, "normalize", lambda p: dataclasses.replace(real(p), delete_back=())
        )
        p = Presentation(Digraph("abc", [("c", "a"), ("c", "b")]), "abc", "ab")
        with pytest.raises(ClaimFailed) as info:
            construct(p)
        assert info.value.claim == "input_minor_present"

    def test_tampered_branch_2_gadget_fails_the_equality_claim(self, monkeypatch):
        # the gadget circuit families are checked on branch 1 alone, so a
        # branch 2 gadget that differs is caught by the equality claim
        real = construction._build_gadget

        def tampered(rebased, s_own, s_far, block_c, block_d, i):
            gadget = real(rebased, s_own, s_far, block_c, block_d, i)
            return gadget if i == 1 else drop_arc_changing_matroid(gadget)

        monkeypatch.setattr(construction, "_build_gadget", tampered)
        with pytest.raises(ClaimFailed) as info:
            construct(parse_presentation(U24_DOC))
        assert info.value.claim == "gadget_matroids_equal"

    def test_branch_2_input_arc_drop_fails_the_gadget_equality_claim(self, monkeypatch):
        # dropping an arc between input vertices changes branch 2's matroid
        # outside C + D, where no claim compares the two branches but this one
        real = construction._build_gadget

        def tampered(rebased, s_own, s_far, block_c, block_d, i):
            gadget = real(rebased, s_own, s_far, block_c, block_d, i)
            if i == 1:
                return gadget
            copied = set(gadget.graph.vertices[: len(rebased.graph.vertices)])
            among = [a for a in gadget.graph.arcs if set(a) <= copied]
            return drop_arc_changing_matroid(gadget, among, outside=block_c + block_d)

        monkeypatch.setattr(construction, "_build_gadget", tampered)
        with pytest.raises(ClaimFailed) as info:
            construct(parse_presentation(U24_DOC))
        assert info.value.claim == "gadget_matroids_equal"

    def test_gadget_arc_drop_fails_the_gadget_families(self, monkeypatch):
        # without D#1 -> d#1 the gadget minus C + D, and so the apex claim, is
        # unchanged, but D#1 no longer reaches the exit through its collector
        real = construction._build_gadget

        def tampered(rebased, s_own, s_far, block_c, block_d, i):
            gadget = real(rebased, s_own, s_far, block_c, block_d, i)
            if i == 2:
                return gadget
            arcs = [a for a in gadget.graph.arcs if a != ("D#1", "d#1")]
            return Presentation(Digraph(gadget.graph.vertices, arcs), gadget.ground, gadget.targets)

        monkeypatch.setattr(construction, "_build_gadget", tampered)
        with pytest.raises(ClaimFailed) as info:
            construct(parse_presentation(RANK3_DOC))
        assert info.value.claim == "gadget_circuit_families"
        assert info.value.detail == (
            "55 unexpected and 6 missing circuits; first offender "
            "('a', 'b', 'c', 'd', 'e', 'D#1')"
        )

    def test_bypass_without_its_far_apex_arcs_fails_its_families(self, monkeypatch):
        # branch 1's bypass reduced to its gadget, without both C -> v#2 arcs:
        # dropping one of them alone trips no claim
        real = construction._build_bypass
        monkeypatch.setattr(
            construction,
            "_build_bypass",
            lambda gadget, block_c, i: gadget if i == 1 else real(gadget, block_c, i),
        )
        with pytest.raises(ClaimFailed) as info:
            construct(parse_presentation(RANK3_DOC))
        assert info.value.claim == "bypass_circuit_families"
        assert info.value.detail == (
            "2 unexpected and 0 missing circuits; first offender "
            "('a', 'b', 'c', 'v#1', 'C#1', 'C#2')"
        )

    def test_branch_1_input_arc_drop_fails_the_apex_claim(self, monkeypatch):
        real = construction._build_gadget

        def tampered(rebased, s_own, s_far, block_c, block_d, i):
            gadget = real(rebased, s_own, s_far, block_c, block_d, i)
            if i == 2:
                return gadget
            copied = set(gadget.graph.vertices[: len(rebased.graph.vertices)])
            among = [a for a in gadget.graph.arcs if set(a) <= copied]
            return drop_arc_changing_matroid(gadget, among, outside=block_c + block_d)

        monkeypatch.setattr(construction, "_build_gadget", tampered)
        with pytest.raises(ClaimFailed) as info:
            construct(parse_presentation(RANK3_DOC))
        assert info.value.claim == "apex_contraction_restores_input"
        assert info.value.detail == "contracting both apexes lost the input"

    def test_wrong_rank_on_the_relaxed_set_fails_the_ingleton_claim(self, monkeypatch):
        # the table is untouched, so the axiom check passes; the claim reads
        # the ten ranks through rank_of
        cd = {"C#1", "C#2", "D#1", "D#2", "D#3", "D#4"}
        real = Matroid.relax

        class LyingOnCD(Matroid):
            __slots__ = ()

            def rank_of(self, labels):
                labels = set(labels)
                return super().rank_of(labels) - (labels == cd)

        def relax(self, labels):
            relaxed = real(self, labels)
            return LyingOnCD(relaxed.ground, relaxed.table)

        monkeypatch.setattr(Matroid, "relax", relax)
        with pytest.raises(ClaimFailed) as info:
            construct(parse_presentation(RANK3_DOC))
        assert info.value.claim == "ingleton_violated"
        assert info.value.detail == (
            "expected 26 > 25, got IngletonCheck(lhs=26, rhs=25, holds=False)"
        )

    def test_each_builder_makes_one_digraph(self, monkeypatch):
        made = record_instances(monkeypatch, Digraph)
        counts = {}
        for name in ("_build_gadget", "_build_bypass"):

            def counted(*args, real=getattr(construction, name), name=name):
                before = len(made)
                result = real(*args)
                counts.setdefault(name, []).append(len(made) - before)
                return result

            monkeypatch.setattr(construction, name, counted)
        construct(parse_presentation(RANK3_DOC))
        assert counts == {"_build_gadget": [1, 1], "_build_bypass": [1, 1]}

    def test_core_contraction_recovers_base(self, u24_run):
        bundle, _, _ = u24_run
        base = bundle.normalized.presentation.matroid
        assert bundle.core.contract(APEXES).equals(base)
        assert not set(bundle.core.ground) == set(base.ground)

    def test_result_minor_is_original_input(self, u24_run):
        bundle, _, _ = u24_run
        recovered = bundle.result.delete(bundle.relaxed_set).contract(APEXES)
        assert recovered.equals(uniform("abcd", 2))

    def test_gadget_family_count_r2(self, u24_run):
        # family sizes r+3, r+3, 2r+2, r+3, 2r+2 give 1+1+6+1+6 candidates at r=2
        bundle, _, _ = u24_run
        m = bundle.gadget
        s1, s2, (v1, v2) = bundle.s1, bundle.s2, APEXES
        c, d = bundle.block_c, bundle.block_d
        families = [c + d, s1 + c + (v1,), s1 + d + (v1,), s2 + c + (v2,), s2 + d + (v2,)]
        expected = family_subsets(m, families, bundle.r + 3)
        assert len(expected) == 15
        assert expected == block_meeting_circuits(m, c + d)

    def test_bypass_family_count_r2(self, u24_run):
        bundle, _, _ = u24_run
        s1, s2, (v1, v2) = bundle.s1, bundle.s2, APEXES
        c, d = bundle.block_c, bundle.block_d
        for i, fams in (
            (1, [s2 + c + (v2,), s1 + d + (v1,), s2 + d + (v2,)]),
            (2, [s1 + c + (v1,), s2 + d + (v2,), s1 + d + (v1,)]),
        ):
            m = bundle.branches[i].bypass.matroid
            expected = family_subsets(m, fams, bundle.r + 3)
            assert len(expected) == 13
            assert expected == block_meeting_circuits(m, c + d)

    def test_bypass_circuits_are_dependent_in_gadget(self, u24_run):
        bundle, _, _ = u24_run
        for branch in bundle.branches.values():
            gm, bm = branch.gadget.matroid, branch.bypass.matroid
            for mask in block_meeting_circuits(bm, bundle.relaxed_set):
                labels = bm.labels_of(mask)
                assert not gm.is_independent(labels)

    def test_ingleton_numbers(self, u24_run):
        bundle, _, _ = u24_run
        assert (bundle.ingleton.lhs, bundle.ingleton.rhs) == (21, 20)
        assert not bundle.ingleton.holds
        m = bundle.result
        a = bundle.s1 + (APEXES[0],)
        b = bundle.s2 + (APEXES[1],)
        assert m.rank_of(a) == bundle.r + 1
        assert m.rank_of(a + b) == bundle.r + 2
        assert m.rank_of(bundle.relaxed_set) == bundle.r + 3

    def test_relaxed_set_facts(self, u24_run):
        bundle, _, _ = u24_run
        block = bundle.relaxed_set
        assert bundle.gadget.rank_of(block) == bundle.r + 2
        assert bundle.gadget.is_circuit_hyperplane(block)
        assert set(bundle.result.basis_masks()) == set(bundle.gadget.basis_masks()) | {
            bundle.gadget.mask_of(block)
        }


class TestSideDeletions:
    def test_final_circuit_families_match_bypass(self, u24_run):
        # for a side element x, the result minus x has exactly the circuits of
        # the matching bypass matroid minus x: those avoiding the blocks plus
        # full-rank subsets of the far fan families and of ((own side + apex) - x) + D
        bundle, _, _ = u24_run
        m = bundle.result
        c, d = bundle.block_c, bundle.block_d
        for i, s_own, s_far in ((1, bundle.s1, bundle.s2), (2, bundle.s2, bundle.s1)):
            v_own, v_far = APEXES[i - 1], APEXES[2 - i]
            bm = bundle.branches[i].bypass.matroid
            for x in s_own + (v_own,):
                left = m.delete([x])
                right = bm.delete([x])
                assert left.equals(right)
                families = [
                    s_far + c + (v_far,),
                    s_far + d + (v_far,),
                    tuple(e for e in s_own + (v_own,) if e != x) + d,
                ]
                expected = family_subsets(left, families, bundle.r + 3)
                assert expected == block_meeting_circuits(left, c + d)


class TestDeterminismAndOptions:
    def test_rebuild_is_byte_identical(self, u24_run):
        _, cert, _ = u24_run
        again = certify(construct(parse_presentation(U24_DOC)))
        assert certificate_to_json(again) == certificate_to_json(cert)

    def test_jobs_do_not_change_output(self, u24_run):
        bundle, cert, _ = u24_run
        parallel = certify(bundle, jobs=2)
        assert certificate_to_json(parallel) == certificate_to_json(cert)

    def test_pool_starts_after_every_materialization(self, u24_run, monkeypatch):
        # functools.cached_property holds one lock per property across all
        # instances, so Presentation.matroid on a worker would serialize them
        bundle, _, _ = u24_run
        calls, at_start = [0], []
        real = digraph.linkage_matroid

        def counting(p):
            calls[0] += 1
            return real(p)

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                at_start.append(calls[0])
                super().__init__(max_workers)

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(digraph, "linkage_matroid", counting)
        monkeypatch.setattr(construction, "ThreadPoolExecutor", RecordingPool)
        certify(bundle, jobs=2)
        assert at_start == [2] and calls == [2]

    def test_too_large(self):
        with pytest.raises(TooLarge):
            construct(parse_presentation(U24_DOC), max_elements=10)

    def test_too_large_is_found_before_normalizing(self, monkeypatch):
        calls = [0]
        real = digraph.linkage_matroid

        def counting(p):
            calls[0] += 1
            return real(p)

        monkeypatch.setattr(digraph, "linkage_matroid", counting)
        with pytest.raises(TooLarge, match=r"result would have 14 elements \(rank 3 input\)"):
            construct(parse_presentation(RANK3_DOC), max_elements=13)
        assert calls[0] == 1  # the input's own matroid only

    def test_predicted_rank_is_the_normalized_rank(self):
        rng = random.Random(0x4A11)
        for _ in range(150):
            p = random_presentation(rng, max_vertices=6)
            with pytest.raises(TooLarge) as info:
                construct(p, max_elements=4)
            r = len(normalize(p).basis_one)
            assert f"(rank {r} input)" in str(info.value)


def count_calls(monkeypatch, *spots) -> Counter:
    """Count the calls of each ``(owner, name)`` attribute from now on, by name."""
    calls: Counter = Counter()
    for owner, name in spots:
        real = getattr(owner, name)

        def counting(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(owner, name, counting)
    return calls


class TestBoundaryVerification:
    """The rank axioms are checked once, on the excluded minor.

    construct materializes what it builds (6 linkage tables, matroids by
    theory) and checks the axioms of its relaxed result alone. certify and
    verify enumerate the linked sets of each record once and compare them
    with the independent sets of the minor of the excluded minor it stands
    for, which is already a matroid, so no record gets a table or an axiom
    check. certify still materializes the two block deletions that
    contract_any reads; verify materializes only the recipe's input, and
    checks the axioms of the excluded minor it decodes.
    """

    @pytest.mark.parametrize("doc, certify_calls", [(U24_DOC, 16), (RANK3_DOC, 20)])
    def test_materialization_counts(self, monkeypatch, doc, certify_calls):
        calls = count_calls(
            monkeypatch,
            (digraph, "linkage_matroid"),
            (digraph, "_linkage_independence"),
            (Matroid, "verify_axioms"),
        )
        bundle = construct(parse_presentation(doc))
        assert calls["linkage_matroid"] == 6
        assert calls["verify_axioms"] == 1
        calls.clear()
        certify(bundle)
        # Counter equality counts a missing name as 0
        assert calls == Counter(
            _linkage_independence=certify_calls, linkage_matroid=2, verify_axioms=0
        )

    def test_circuit_hyperplane_is_checked_once(self, monkeypatch):
        calls = count_calls(monkeypatch, (Matroid, "is_circuit_hyperplane"))
        construct(parse_presentation(U24_DOC))
        assert calls == {"is_circuit_hyperplane": 1}  # by relax

    def test_relaxing_a_non_circuit_hyperplane_is_its_claim(self, monkeypatch):
        monkeypatch.setattr(Matroid, "is_circuit_hyperplane", lambda self, labels: False)
        with pytest.raises(ClaimFailed) as info:
            construct(parse_presentation(U24_DOC))
        assert info.value.claim == "relaxed_set_is_circuit_hyperplane"
        assert info.value.detail == "the union of the blocks is not a circuit-hyperplane"

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_record_past_the_graph_cap_is_refused_before_it_is_compared(self, monkeypatch, jobs):
        # the input fits under the vertex cap, but its records would not
        verts = [f"v{i}" for i in range(505)]
        bundle = construct(parse_presentation({
            "vertices": verts,
            "arcs": [[u, v] for u, v in zip(verts, verts[1:])],
            "ground": ["v0", "v1"],
            "targets": ["v504"],
        }))
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        calls = count_calls(
            monkeypatch, (Presentation, "presents"), (construction, "contract_any")
        )
        with pytest.raises(GraphTooLarge) as info:
            certify(bundle, jobs=jobs)
        assert str(info.value) == "minors[0].deletion: 515 vertices exceeds cap 512"
        # refused before the contraction of any element is built
        assert calls["presents"] == 0 and calls["contract_any"] == 0

    def test_verify_counts(self, monkeypatch, r3_run):
        _, doc, _ = r3_run
        calls = count_calls(
            monkeypatch,
            (digraph, "linkage_matroid"),
            (digraph, "_linkage_independence"),
            (Matroid, "verify_axioms"),
        )
        verify_certificate(doc)
        assert calls == {"_linkage_independence": 29, "linkage_matroid": 1, "verify_axioms": 1}

    def test_faulty_side_contraction_is_caught(self, monkeypatch, u24_run):
        bundle, _, _ = u24_run
        side = bundle.s1[0]
        real = construction.contract_any

        def faulty(p, x, **kwargs):
            q = real(p, x, **kwargs)
            if x != side:
                return q
            bad = drop_arc_changing_matroid(q)
            assert not bad.matroid.equals(q.matroid)
            return bad

        monkeypatch.setattr(construction, "contract_any", faulty)
        with pytest.raises(ClaimFailed) as info:
            certify(bundle)
        assert info.value.claim == "side_minors_gammoid"
        assert repr(side) in info.value.detail

    def test_faulty_block_extension_is_caught(self, monkeypatch, u24_run):
        bundle, _, _ = u24_run
        contracted = []
        real_contract, real_extend = construction.contract_any, construction.free_extension

        def recording(p, x, **kwargs):
            contracted.append(x)
            return real_contract(p, x, **kwargs)

        def faulty(p, y, **kwargs):
            q = real_extend(p, y, **kwargs)
            bad = drop_arc_changing_matroid(q)
            assert not bad.matroid.equals(q.matroid)
            return bad

        monkeypatch.setattr(construction, "contract_any", recording)
        monkeypatch.setattr(construction, "free_extension", faulty)
        with pytest.raises(ClaimFailed) as info:
            certify(bundle)
        assert contracted[-1] in bundle.relaxed_set
        assert info.value.claim == "block_minors_gammoid"
        assert repr(contracted[-1]) in info.value.detail


    def test_faulty_side_deletion_is_caught(self, monkeypatch, u24_run):
        # a side deletion is compared by table only while it is its bypass
        # restricted away from x; any other record has its linked sets enumerated
        bundle, _, _ = u24_run
        real = construction.delete_element
        monkeypatch.setattr(
            construction, "delete_element", lambda p, x: drop_arc_changing_matroid(real(p, x))
        )
        with pytest.raises(ClaimFailed) as info:
            certify(bundle)
        assert info.value.claim == "side_minors_gammoid"
        assert info.value.detail == "deletion presentation at 'a' did not verify"

    @pytest.mark.parametrize("x", ["C#1", "C#2"])
    def test_faulty_block_deletion_is_caught_at_its_record(self, monkeypatch, u24_run, x):
        # C#1's deletion is one that certify materializes before any record,
        # C#2's is enumerated
        bundle, _, _ = u24_run
        real = construction._block_deletion

        def faulty(gadget, y):
            q = real(gadget, y)
            return drop_arc_changing_matroid(q) if y == x else q

        monkeypatch.setattr(construction, "_block_deletion", faulty)
        with pytest.raises(ClaimFailed) as info:
            certify(bundle)
        assert info.value.claim == "block_minors_gammoid"
        assert info.value.detail == f"deletion presentation at {x!r} did not verify"

class TestSmallEndToEnd:
    def test_rank_one_input(self):
        p = Presentation(Digraph("ab", [("a", "b")]), "ab", "b")
        bundle = construct(p)
        cert = certify(bundle)
        assert bundle.r == 1 and bundle.result.size == 8
        assert complete(cert)

    def test_input_needing_padding(self):
        # U_{2,3} forces one padding element in the embedding
        p = Presentation(Digraph("abc", [("c", "a"), ("c", "b")]), "abc", "ab")
        bundle = construct(p)
        cert = certify(bundle)
        assert bundle.normalized.delete_back == ("u#1",)
        assert "u#1" in bundle.recipe_delete
        assert complete(cert)
        recovered = bundle.result.delete(bundle.recipe_delete).contract(
            bundle.recipe_contract
        )
        assert recovered.equals(p.matroid)

    def test_all_loops_input_end_to_end(self):
        p = Presentation(Digraph("ab"), "ab", "")
        bundle = construct(p)
        cert = certify(bundle)
        assert bundle.recipe_contract == APEXES + ("t#1", "t#2")
        assert complete(cert)
        recovered = bundle.result.delete(bundle.recipe_delete).contract(
            bundle.recipe_contract
        )
        assert recovered.equals(p.matroid)


@st.composite
def small_presentations(draw) -> Presentation:
    """A presentation on at most 4 vertices, with any arcs, ground and targets."""
    vertices = "abcd"[: draw(st.integers(1, 4))]
    pairs = [(u, v) for u in vertices for v in vertices if u != v]
    arcs = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    ground = draw(st.lists(st.sampled_from(vertices), min_size=1, unique=True))
    targets = draw(st.lists(st.sampled_from(vertices), unique=True))
    return Presentation(Digraph(vertices, arcs), ground, targets)


class TestRandomEndToEnd:
    """Construction builds the linkage tables without checking their axioms,
    so the engine's tables are checked here, on every table a bundle holds."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(small_presentations())
    @example(Presentation(Digraph("ab", [("a", "b")]), "ab", ""))  # rank 0
    @example(Presentation(Digraph("abcd", [("a", "d"), ("b", "d")]), "abc", "d"))  # loop c
    @example(Presentation(Digraph("ab"), "ab", "ab"))  # two coloops
    @example(Presentation(Digraph("abc", [("a", "c"), ("b", "c")]), "ab", "c"))  # parallel
    def test_small_presentations_certify(self, p):
        try:
            bundle = construct(p, max_elements=11)  # normalized rank at most 2
        except TooLarge:
            assume(False)
        tables = [bundle.source.matroid, bundle.normalized.presentation.matroid]
        tables += [bundle.core, bundle.gadget, bundle.result]
        for branch in bundle.branches.values():
            tables += [branch.gadget.matroid, branch.bypass.matroid]
        for m in tables:
            m.verify_axioms()
        doc = json.loads(certificate_to_json(certify(bundle)))
        verify_certificate(doc)
        assert doc["recipe"]["input"]["presentation"] == p.to_doc()
