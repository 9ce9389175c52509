import gc
import random

import numpy as np
import pytest

from conftest import record_instances, uniform
from gammoids import digraph
from gammoids.corpus import random_presentation
from gammoids.digraph import Digraph, Presentation, brute_force_linking_oracle, kuhn_matching
from gammoids.errors import (
    IsLoop,
    LabelCollision,
    NotABasis,
    NotInGround,
    NotInSAndT,
    PreconditionViolated,
)
from gammoids.matroid import Matroid
from gammoids.surgery import (
    add_coloop,
    contract_any,
    contract_target,
    delete_element,
    free_extension,
    retarget,
    two_bases_embedding,
)


def u24_presentation() -> Presentation:
    g = Digraph("abcd", [("c", "a"), ("c", "b"), ("d", "a"), ("d", "b")])
    return Presentation(g, "abcd", "ab")


def u23_presentation() -> Presentation:
    g = Digraph("abc", [("c", "a"), ("c", "b")])
    return Presentation(g, "abc", "ab")


class TestContractTarget:
    def test_single_shared_vertex_leaves_empty_matroid(self):
        p = Presentation(Digraph("t"), "t", "t")
        q = contract_target(p, "t")
        assert q.ground == () and q.matroid.rank == 0

    def test_requires_membership_in_both(self):
        p = u24_presentation()
        with pytest.raises(NotInSAndT):
            contract_target(p, "c")

    def test_matches_table_contraction_on_random_inputs(self):
        rng = random.Random(41)
        done = 0
        while done < 40:
            p = random_presentation(rng, 8)
            shared = [t for t in p.targets if t in p.ground]
            if not shared:
                continue
            q = contract_target(p, shared[0])
            assert q.matroid.equals(p.matroid.contract([shared[0]]))
            done += 1


class TestDeleteElement:
    def test_delete_only_element(self):
        p = Presentation(Digraph("a"), "a", "a")
        q = delete_element(p, "a")
        assert q.ground == () and q.matroid.rank == 0

    def test_unknown_element(self):
        with pytest.raises(NotInGround):
            delete_element(u24_presentation(), "z")

    def test_rank_drop_bounded_by_one(self):
        p = u24_presentation()
        q = delete_element(p, "a")
        assert p.matroid.rank - q.matroid.rank <= 1


class TestRetarget:
    def test_target_basis_is_identity(self):
        p = u24_presentation()
        assert retarget(p, "ba") is p

    def test_two_vertex_example(self):
        p = Presentation(Digraph("ab", [("a", "b")]), "ab", "b")
        q = retarget(p, "a")
        assert q.graph.arcs == (("b", "a"),)
        assert q.targets == ("a",)
        u12 = uniform("ab", 1)
        assert p.matroid.equals(u12) and q.matroid.equals(u12)

    def test_u24_to_opposite_basis(self):
        # regression: reversing the linking arcs would get this one wrong
        p = u24_presentation()
        q = retarget(p, "cd")
        assert set(q.targets) == {"c", "d"}
        assert q.matroid.equals(p.matroid)

    def test_rejects_non_bases(self):
        p = u24_presentation()
        with pytest.raises(NotABasis):
            retarget(p, "abc")
        with pytest.raises(NotABasis):
            retarget(p, "a")

    def test_random_bases_round_trip(self):
        rng = random.Random(43)
        for _ in range(60):
            p = random_presentation(rng, 8)
            m = p.matroid
            basis = m.greedy_basis()
            q = retarget(p, basis)
            assert set(q.targets) == set(basis)
            assert q.matroid.equals(m)


def greedy_extension(p: Presentation, basis) -> list[str]:
    """Extend ``basis`` in vertex order to |T| vertices linked to the targets.

    Each vertex is tested by the brute-force linking oracle, which shares
    no code with the flow solver. Returns the added vertices in order.
    """
    graph = p.graph
    chosen = sorted(basis, key=graph.index.__getitem__)
    for v in graph.vertices:
        if len(chosen) == len(p.targets):
            break
        if v in basis:
            continue
        if brute_force_linking_oracle(graph, chosen + [v], p.targets) > len(chosen):
            chosen.append(v)
    return chosen[len(basis):]


class TestRetargetExtension:
    """retarget drops exactly the basis's greedy extension through the strict lift."""

    def test_dropped_vertices_are_the_greedy_extension(self):
        rng = random.Random(67)
        cases = extended = 0
        while cases < 300:
            p = random_presentation(rng, 8)
            if set(p.targets) <= set(p.ground):
                continue
            m = p.matroid
            for mask in m.basis_masks():
                basis = m.labels_of(mask)
                q = retarget(p, basis)
                dropped = [v for v in p.graph.vertices if v not in q.graph.index]
                extension = greedy_extension(p, basis)
                assert dropped == extension, (p, basis)
                assert set(q.targets) == set(basis)
                assert q.presents(m)
                cases += 1
                extended += bool(extension)
        assert extended > 0


class TestOneConstruction:
    """A surgery builds its graph in one Digraph, and the strict lift on one network."""

    def test_each_graph_building_surgery_makes_one_digraph(self, monkeypatch):
        # materializing the matroids the surgeries read builds no graph
        pad, attach = u23_presentation(), Presentation(Digraph("ab"), "ab", "")
        u24 = u24_presentation()
        builds = [
            lambda: free_extension(pad, "x"),
            lambda: add_coloop(pad, "x"),
            lambda: two_bases_embedding(pad),
            lambda: two_bases_embedding(attach),
            lambda: retarget(u24, "cd"),
        ]
        for build in builds:
            made = record_instances(monkeypatch, Digraph)
            build()
            monkeypatch.undo()
            assert len(made) == 1

    def test_retarget_routes_a_two_vertex_extension_on_one_network(self, monkeypatch):
        # the basis {a, b} is extended through the strict lift by t3 and t4
        g = Digraph(["a", "b", "t1", "t2", "t3", "t4"], [("a", "t1"), ("b", "t2")])
        p = Presentation(g, "ab", ["t1", "t2", "t3", "t4"])
        m = p.matroid  # the Python engine builds a network of its own here
        networks = record_instances(monkeypatch, digraph._FlowNetwork)
        graphs = record_instances(monkeypatch, Digraph)
        q = retarget(p, "ab")
        assert len(networks) == 1 and len(graphs) == 1
        assert q.graph.vertices == ("a", "b", "t1", "t2")
        assert q.targets == ("a", "b") and q.presents(m)


class TestContractAny:
    def test_contract_single_element(self):
        p = Presentation(Digraph("a"), "a", "a")
        q = contract_any(p, "a")
        assert q.ground == ()

    def test_contract_coloop_matches_table(self):
        p = u23_presentation()
        ext = add_coloop(p, "x")
        q = contract_any(ext, "x")
        assert q.matroid.equals(ext.matroid.contract("x"))

    def test_refuses_loops(self):
        p = Presentation(Digraph("ab"), "ab", "b")
        assert p.matroid.is_loop("a")
        with pytest.raises(IsLoop):
            contract_any(p, "a")

    def test_random_elements_match_table_contraction(self):
        rng = random.Random(47)
        done = 0
        while done < 40:
            p = random_presentation(rng, 8)
            m = p.matroid
            non_loops = [x for x in p.ground if not m.is_loop(x)]
            if not non_loops:
                continue
            x = rng.choice(non_loops)
            assert contract_any(p, x).matroid.equals(m.contract([x]))
            done += 1


class TestFreeExtension:
    def test_rank_zero_extension_is_a_loop(self):
        p = Presentation(Digraph("a"), "a", "")
        q = free_extension(p, "x")
        assert q.matroid.rank == 0 and q.matroid.is_loop("x")

    def test_uniform_extension_stays_uniform(self):
        q = free_extension(u23_presentation(), "x")
        assert q.matroid.equals(uniform("abcx", 2))

    def test_label_collision(self):
        with pytest.raises(LabelCollision):
            free_extension(u23_presentation(), "a")

    def test_requires_target_basis(self):
        # targets straddling the ground set boundary are rejected outright
        p = Presentation(Digraph("abc", [("a", "c")]), "ab", "bc")
        with pytest.raises(PreconditionViolated):
            free_extension(p, "x")
        # disjoint targets must match the rank
        q = Presentation(Digraph("abc", [("a", "c")]), "ab", "c")
        assert q.matroid.rank == 1
        with pytest.raises(PreconditionViolated):
            free_extension(Presentation(Digraph("abcd", [("a", "c")]), "ab", "cd"), "x")

    def test_delete_then_extend_is_identity(self):
        rng = random.Random(53)
        for _ in range(20):
            p = random_presentation(rng, 7)
            p = retarget(p, p.matroid.greedy_basis())
            q = free_extension(p, "fx")
            assert q.matroid.delete(["fx"]).equals(p.matroid)
            assert q.matroid.is_freely_placed("fx")

    def test_extend_then_contract_truncates(self):
        p = u24_presentation()
        q = free_extension(p, "fx")
        truncated = contract_any(q, "fx").matroid
        m = p.matroid
        expected = Matroid(
            m.ground, np.minimum(np.asarray(m.table), m.rank - 1)
        )
        assert truncated.equals(expected)

    def test_add_coloop(self):
        p = u23_presentation()
        q = add_coloop(p, "x")
        assert q.matroid.rank == p.matroid.rank + 1
        assert q.matroid.is_freely_placed("x")
        assert q.matroid.delete(["x"]).equals(p.matroid)


class TestTwoBasesEmbedding:
    def test_already_split_input_is_untouched(self):
        p = u24_presentation()
        emb = two_bases_embedding(p)
        assert emb.presentation is p or emb.presentation.ground == p.ground
        assert emb.delete_back == () and emb.contract_back == ()
        assert set(emb.basis_one) == {"a", "b"}
        assert set(emb.basis_two) == {"c", "d"}

    def test_attach_only_branch(self):
        # two loops with empty targets: every element gets a private target
        p = Presentation(Digraph("ab"), "ab", "")
        emb = two_bases_embedding(p)
        assert emb.delete_back == ()
        assert emb.contract_back == ("t#1", "t#2")
        assert emb.presentation.matroid.rank == 2

    def test_pad_only_branch(self):
        emb = two_bases_embedding(u23_presentation())
        assert emb.contract_back == ()
        assert emb.delete_back == ("u#1",)
        assert set(emb.basis_two) == {"c", "u#1"}

    def test_partition_and_cardinality(self):
        rng = random.Random(59)
        for _ in range(30):
            p = random_presentation(rng, 7)
            p = retarget(p, p.matroid.greedy_basis())
            emb = two_bases_embedding(p)
            m = emb.presentation.matroid
            assert len(emb.basis_one) == len(emb.basis_two) == m.rank
            assert set(emb.basis_one) | set(emb.basis_two) == set(
                emb.presentation.ground
            )
            assert not set(emb.basis_one) & set(emb.basis_two)
            assert m.is_basis(emb.basis_one) and m.is_basis(emb.basis_two)

    def test_recovery_returns_input(self):
        p = u23_presentation()
        emb = two_bases_embedding(p)
        q = emb.presentation
        for u in emb.delete_back:
            q = delete_element(q, u)
        for t in emb.contract_back:
            q = contract_target(q, t)
        assert q.matroid.equals(p.matroid)

    def test_requires_target_basis_inside_ground(self):
        p = Presentation(Digraph("abc", [("a", "c")]), "ab", "c")
        with pytest.raises(PreconditionViolated):
            two_bases_embedding(p)


class TestVerifyFlag:
    """Surgeries check their inputs and build; they verify no identity."""

    @pytest.fixture()
    def materialized(self, monkeypatch):
        calls = []
        real = digraph.linkage_matroid

        def recording(p):
            calls.append(p)
            return real(p)

        monkeypatch.setattr(digraph, "linkage_matroid", recording)
        return calls

    def test_builders_materialize_nothing(self, materialized):
        rng = random.Random(59)
        for _ in range(40):
            p = random_presentation(rng, 8)
            shared = [t for t in p.targets if t in p.ground]
            if shared:
                contract_target(p, shared[0])
            if len(shared) == len(p.targets):
                free_extension(p, "x")
            delete_element(p, p.ground[0])
            add_coloop(p, "x")
        assert materialized == []

    def test_retarget_reads_only_the_input_matroid(self, materialized):
        rng = random.Random(61)
        for _ in range(40):
            p = random_presentation(rng, 8)
            m = p.matroid
            retarget(p, m.labels_of(rng.choice(m.basis_masks())))
            non_loops = [x for x in p.ground if not m.is_loop(x)]
            if non_loops:
                contract_any(p, rng.choice(non_loops))
            assert len(materialized) == 1 and materialized[0] is p
            materialized.clear()

    def test_input_errors_raise_without_verification(self):
        p = u24_presentation()
        with pytest.raises(NotInSAndT):
            contract_target(p, "c")
        with pytest.raises(NotInGround):
            contract_any(p, "z")
        with pytest.raises(NotABasis):
            retarget(p, "a")
        with pytest.raises(LabelCollision):
            free_extension(p, "a")


def test_matchings_leave_no_reference_cycle():
    # b can only be matched by moving a from part 0 to part 1: one
    # augmenting path of two steps
    parts = [frozenset("ab"), frozenset("a")]
    gc.disable()
    try:
        gc.collect()
        assert kuhn_matching(["a", "b"], parts) == ["b", "a"]
        assert gc.collect() == 0
    finally:
        gc.enable()
