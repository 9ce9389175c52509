import gc
import json
import os
import random
import re
import shlex
import shutil
import subprocess
import sys
import sysconfig
import time
from itertools import chain, islice
from math import comb
from pathlib import Path

import numpy as np
import pytest

from conftest import down_closed_families, requires_kernel, uniform
from gammoids import certify, construct, digraph, parse_presentation
from gammoids.certificate import verify_certificate
from gammoids.corpus import RANK3_DOC, random_digraph, random_presentation, random_vertex_subset
from gammoids.digraph import (
    Digraph,
    Linking,
    Presentation,
    _FlowNetwork,
    brute_force_linking_oracle,
    is_linked,
    linkage_matroid,
    max_linking,
    transversal_duality_check,
)
from gammoids.errors import GraphTooLarge, GroundSetTooLarge, NotStrict
from gammoids.matroid import Matroid, _popcounts
from small_matroids import FIXTURE


def plain_linkage_matroid(p: Presentation) -> Matroid:
    """Route every subset from scratch: no warm starts, no short-cuts."""
    return Matroid.from_independence_oracle(
        p.ground,
        lambda mask: is_linked(
            p.graph, [g for i, g in enumerate(p.ground) if mask >> i & 1], p.targets
        ),
    )


class TestDigraph:
    def test_rejects_self_loops(self):
        with pytest.raises(ValueError):
            Digraph("ab", [("a", "a")])

    def test_rejects_undeclared_endpoints(self):
        with pytest.raises(ValueError):
            Digraph("ab", [("a", "c")])

    def test_arcs_are_canonical_and_deduplicated(self):
        g = Digraph("abc", [("b", "a"), ("a", "b"), ("b", "a")])
        assert g.arcs == (("a", "b"), ("b", "a"))

    def test_relabel_and_removal(self):
        g = Digraph("abc", [("a", "b"), ("b", "c")])
        assert g.without_vertex("b").arcs == ()

    def test_removing_a_missing_vertex(self):
        with pytest.raises(ValueError, match="^no vertex 'z'$"):
            Digraph("abc").without_vertex("z")


class TestMaxLinking:
    def test_empty_source_set(self):
        g = Digraph("ab", [("a", "b")])
        assert max_linking(g, [], "b").paths == ()

    def test_shared_vertex_gives_single_vertex_path(self):
        g = Digraph("abc", [("a", "b")])
        linking = max_linking(g, ["b"], ["b", "c"])
        assert linking.paths == (("b",),)

    def test_two_sources_one_target(self):
        g = Digraph("abc", [("a", "c"), ("b", "c")])
        assert max_linking(g, "ab", "c").size == 1
        assert brute_force_linking_oracle(g, "ab", "c") == 1

    def test_paths_are_valid_and_deterministic(self):
        rng = random.Random(7)
        for _ in range(50):
            g = random_digraph(rng, 7)
            xs = random_vertex_subset(rng, g)
            ts = random_vertex_subset(rng, g)
            linking = max_linking(g, xs, ts)
            linking.check_valid(g, ts)
            assert {p[0] for p in linking.paths} <= set(xs)
            assert max_linking(g, xs, ts) == linking

    @pytest.mark.parametrize(
        "paths, message",
        [
            (((),), "empty path"),
            ((("a",),), "path ('a',) does not end in the targets"),
            ((("a", "c"), ("b", "c")), "vertex c reused across paths"),
            ((("b", "a", "c"),), "missing arc (b, a)"),
        ],
        ids=["empty", "off-target", "shared", "broken"],
    )
    def test_invalid_linking_is_refused(self, paths, message):
        g = Digraph("abc", [("a", "c"), ("b", "c")])
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Linking(paths).check_valid(g, "c")


class TestIsLinked:
    def test_trivial_cases(self):
        g = Digraph("ab", [("a", "b")])
        assert is_linked(g, [], "ab")
        assert is_linked(g, "a", "b")
        g2 = Digraph("abc", [("a", "c"), ("b", "c")])
        assert not is_linked(g2, "ab", "c")

    def test_restriction_monotonicity(self):
        rng = random.Random(11)
        for _ in range(40):
            g = random_digraph(rng, 7)
            xs = list(random_vertex_subset(rng, g))
            ts = random_vertex_subset(rng, g)
            if is_linked(g, xs, ts):
                for drop in range(len(xs)):
                    assert is_linked(g, xs[:drop] + xs[drop + 1 :], ts)


@pytest.mark.parametrize("linking", [max_linking, is_linked])
def test_unknown_vertex_is_named(linking):
    g = Digraph("ab", [("a", "b")])
    with pytest.raises(ValueError, match=r"^source 'zz' is not a vertex$"):
        linking(g, iter(["a", "zz"]), "b")
    with pytest.raises(ValueError, match=r"^target 'zz' is not a vertex$"):
        linking(g, iter("a"), ["b", "zz"])


def test_sources_may_be_an_iterator():
    # validating the sources must not use them up before routing
    g = Digraph("ab", [("a", "b")])
    assert max_linking(g, iter("a"), "b").paths == (("a", "b"),)
    assert is_linked(g, iter("a"), "b")


class TestLinkageMatroid:
    def test_no_arcs_all_targets_is_free(self):
        g = Digraph("abc")
        m = linkage_matroid(Presentation(g, "abc", "abc"))
        assert m.rank == 3 and m.circuits() == []

    def test_no_targets_is_rank_zero(self):
        g = Digraph("abc")
        m = linkage_matroid(Presentation(g, "abc", ""))
        assert m.rank == 0

    def test_five_vertex_example(self):
        g = Digraph(
            ["s1", "s2", "s3", "t1", "t2"],
            [("s1", "t1"), ("s1", "t2"), ("s2", "t1"), ("s3", "t2")],
        )
        m = linkage_matroid(Presentation(g, ["s1", "s2", "s3"], ["t1", "t2"]))
        assert m.rank == 2
        assert m.is_independent(["s2", "s3"])
        assert not m.is_independent(["s1", "s2", "s3"])

    def test_ground_cap(self):
        labels = [f"g{i}" for i in range(25)]
        with pytest.raises(GroundSetTooLarge):
            linkage_matroid(Presentation(Digraph(labels), labels, labels))

    def test_materialization_leaves_no_reference_cycle(self):
        p = Presentation(Digraph("abcdtu", [("a", "t"), ("b", "u"), ("c", "u")]), "abcd", "tu")
        gc.disable()
        try:
            gc.collect()
            assert linkage_matroid(p).rank == 2
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_unused_outside_vertex_can_be_dropped(self):
        # delete a vertex outside ground and targets that no linking of any
        # subset ever touches; the matroid must not change
        rng = random.Random(3)
        checked = 0
        while checked < 10:
            g = random_digraph(rng, 6)
            verts = g.vertices
            ground = tuple(v for v in verts[:-1] if rng.random() < 0.7)
            targets = random_vertex_subset(rng, g, 0.4)
            spare = verts[-1]
            if spare in ground or spare in targets or not ground:
                continue
            p = Presentation(g, ground, targets)
            used = set()
            for mask in range(1 << len(ground)):
                chosen = [ground[i] for i in range(len(ground)) if mask >> i & 1]
                for path in max_linking(g, chosen, targets).paths:
                    used.update(path)
            if spare in used:
                continue
            q = Presentation(g.without_vertex(spare), ground, targets)
            assert q.matroid.equals(p.matroid)
            checked += 1


class TestLinkageDifferential:
    def test_random_presentations(self):
        rng = random.Random(0xD1FF)
        ranks = set()
        for _ in range(200):
            p = random_presentation(rng, max_vertices=8)
            m = linkage_matroid(p)
            assert np.array_equal(m.table, plain_linkage_matroid(p).table)
            ranks.add(m.rank)
        assert {0, 1, 2, 3} <= ranks

    @pytest.mark.parametrize(
        "vertices, arcs, ground, targets, rank, loops, coloops",
        [
            # rank 0: no targets
            ("abc", [("a", "b")], "abc", "", 0, "abc", ""),
            # rank 1: everything funnels through one target, d is a loop
            ("abcd", [("a", "b"), ("b", "c")], "abcd", "c", 1, "d", ""),
            # a reaches t alone (coloop); b and c share u (parallel); d is a loop
            ("abcdtu", [("a", "t"), ("b", "u"), ("c", "u")], "abcd", "tu", 2, "d", "a"),
            # two parallel classes {a,b} and {c,d}
            ("abcdtu", [("a", "t"), ("b", "t"), ("c", "u"), ("d", "u")], "abcd", "tu", 2, "", ""),
            # ground inside the targets: the free matroid
            ("abc", [("a", "b")], "abc", "abc", 3, "", "abc"),
        ],
    )
    def test_hand_made(self, vertices, arcs, ground, targets, rank, loops, coloops):
        p = Presentation(Digraph(vertices, arcs), ground, targets)
        m = linkage_matroid(p)
        assert np.array_equal(m.table, plain_linkage_matroid(p).table)
        assert m.rank == rank
        assert "".join(g for g in ground if m.is_loop(g)) == loops
        assert "".join(g for g in ground if m.delete(g).rank < rank) == coloops


class TestReverseSearch:
    """One residual search from the sink decides every extension of a set."""

    # {a} is routed a -> m -> t1, its shortest path; b reaches the targets
    # only through m, so adding b reroutes a onto a -> p -> q -> t2 by
    # walking the flow arc into m backwards
    GRAPH = Digraph(
        ["a", "b", "m", "p", "q", "t1", "t2"],
        [("a", "m"), ("b", "m"), ("m", "t1"), ("a", "p"), ("p", "q"), ("q", "t2")],
    )
    TARGETS = ("t1", "t2")

    def test_extension_walks_a_flow_arc_backwards(self):
        net = _FlowNetwork(self.GRAPH, self.TARGETS)
        idx = self.GRAPH.index
        caps = net.fresh()
        assert net.route(caps, [idx["a"]]) == [idx["a"]]
        toward = net.sink_tree(caps, {2 * idx["b"]})
        path, v = [], 2 * idx["b"]
        while v != net.snk:
            path.append(toward[v])
            v = net.heads[toward[v]]
        # odd positions hold residual twins: one step undoes flow
        assert any(a % 2 for a in path)

    @pytest.mark.parametrize("ground", ["ab", "ba"])
    def test_rerouted_extension_is_linked(self, ground):
        m = linkage_matroid(Presentation(self.GRAPH, ground, self.TARGETS))
        assert m.rank == 2 and m.is_independent("ab")
        assert brute_force_linking_oracle(self.GRAPH, "ab", self.TARGETS) == 2

    def test_random_presentations_against_brute_force(self):
        rng = random.Random(0xB0F)
        seen = {"rank 0": 0, "loop": 0, "coloop": 0, "parallel pair": 0}
        for _ in range(100):
            p = random_presentation(rng, max_vertices=9)
            m = linkage_matroid(p)
            n = len(p.ground)
            for mask in range(1 << n):
                chosen = [p.ground[i] for i in range(n) if mask >> i & 1]
                linked = brute_force_linking_oracle(p.graph, chosen, p.targets)
                assert m.is_independent(chosen) == (linked == len(chosen)), (p, chosen)
            seen["rank 0"] += m.rank == 0
            seen["loop"] += any(m.is_loop(g) for g in p.ground)
            seen["coloop"] += any(m.delete([g]).rank < m.rank for g in p.ground)
            seen["parallel pair"] += any(c.bit_count() == 2 for c in m.circuit_masks())
        assert all(seen.values()), seen


def presents_cases():
    """300 presentations, each with four matroids it may or may not present."""
    rng = random.Random(0x9E5E)
    for _ in range(300):
        p = random_presentation(rng, max_vertices=8)
        order = list(p.ground)
        rng.shuffle(order)
        verts = p.graph.vertices
        arcs = [(u, v) for u in verts for v in verts if u != v and rng.random() < 0.3]
        other = Presentation(Digraph(verts, arcs), order, random_vertex_subset(rng, p.graph, 0.4))
        yield p, other, {
            "itself": p.matroid,
            "reordered": Matroid(order, p.matroid.table_in(order)),
            "other": other.matroid,
            "relabeled": Matroid([g + "'" for g in p.ground], p.matroid.table),
        }


def independent_sets(m: Matroid, order) -> np.ndarray:
    return m.table_in(order) == _popcounts(len(order))


class TestPresents:
    """presents agrees with building the table and comparing it whole."""

    def test_agrees_with_equals(self):
        seen = set()
        for p, other, candidates in presents_cases():
            for case, m in candidates.items():
                verdict = p.presents(m)
                assert verdict == p.matroid.equals(m), (case, p, other)
                seen.add((case, verdict))
        assert seen == {
            ("itself", True), ("reordered", True), ("other", True), ("other", False),
            ("relabeled", False),
        }

    def test_exact_against_every_down_closed_family(self):
        """Matroid's or not: a family of larger sets than the rank is refused."""
        pairs = 0
        for doc in json.loads(FIXTURE.read_text(encoding="utf-8")):
            p = parse_presentation(doc)
            n = len(p.ground)
            linked = independent_sets(p.matroid, p.ground)
            for family in down_closed_families(n):
                indep = np.zeros(1 << n, dtype=bool)
                indep[list(family)] = True
                m = Matroid._from_independent_sets(p.ground, indep)
                assert p.presents(m) == np.array_equal(indep, linked), (doc, sorted(family))
                pairs += 1
        assert pairs == 3015  # 2, 4, 8 and 17 presentations on 1-4 elements


# U(4,16): each of 16 vertices reaches each of 4 targets
WIDE_GROUND = [f"g{i}" for i in range(16)]
WIDE_TARGETS = ["t0", "t1", "t2", "t3"]
WIDE_UNIFORM = Presentation(
    Digraph(WIDE_GROUND + WIDE_TARGETS, [(g, t) for g in WIDE_GROUND for t in WIDE_TARGETS]),
    WIDE_GROUND,
    WIDE_TARGETS,
)


class TestEarlyStop:
    """A comparison stops at the first set whose linkedness differs."""

    def compare(self, m: Matroid):
        p = WIDE_UNIFORM
        return digraph._linkage_independence(
            p.graph, p.ground, p.targets, independent_sets(m, p.ground)
        )

    def test_honest_record_searches_in_full(self):
        found = self.compare(WIDE_UNIFORM.matroid)
        assert found.equal and found.differs_at == -1
        # every linked set of size at most 3 with an element below its lowest
        assert found.searches == 1 + 15 + comb(15, 2) + comb(15, 3)

    @pytest.mark.parametrize(
        "small, searches, differs_at",
        [
            # four coloops and twelve loops: the root search meets g4
            (Matroid.from_bases(WIDE_GROUND, [WIDE_GROUND[:4]]), 1, 1 << 4),
            # rank 4 on eight parallel pairs g_i, g_i+8: the routed g0..g3 is a
            # basis, and the search of {g15} meets g7
            (
                Matroid.from_independence_oracle(
                    WIDE_GROUND, lambda x: x.bit_count() <= 4 and not x & x >> 8 & 0xFF
                ),
                2,
                1 << 7 | 1 << 15,
            ),
        ],
        ids=["coloops", "parallel-pairs"],
    )
    def test_larger_family_stops_within_the_expected_sets(self, small, searches, differs_at):
        found = self.compare(small)
        assert (found.equal, found.searches, found.differs_at) == (False, searches, differs_at)
        assert found.searches <= int(independent_sets(small, WIDE_GROUND).sum()) + 1

    def test_rank_is_compared_first(self):
        found = self.compare(Matroid.from_bases(WIDE_GROUND, [WIDE_GROUND[:3]]))
        assert (found.equal, found.searches, found.differs_at) == (False, 0, 0b1111)


@pytest.mark.usefixtures("python_engine")
class TestLinkageMatroidPythonEngine(TestLinkageMatroid):
    pass


@pytest.mark.usefixtures("python_engine")
class TestPresentsPythonEngine(TestPresents):
    pass


@pytest.mark.usefixtures("python_engine")
class TestLinkageDifferentialPythonEngine(TestLinkageDifferential):
    pass


@pytest.mark.usefixtures("python_engine")
class TestReverseSearchPythonEngine(TestReverseSearch):
    pass


@pytest.mark.usefixtures("python_engine")
class TestEarlyStopPythonEngine(TestEarlyStop):
    pass


MULTIWORD_SIZES = (63, 64, 65, 127, 128, 129, 200, 300)


def multiword_cases():
    """Presentations that span several 64-vertex words of the kernel's bitsets.

    Targets sit at indices 0, 1, 62 and 63 modulo 64, on both sides of each
    word boundary; arcs join vertices anywhere, so paths cross words.
    """
    rng = random.Random(0x3264)
    for n_vertices in MULTIWORD_SIZES:
        for n, degree in ((1, 3), (rng.randint(2, 9), 2), (10, 1), (10, 2)):
            vertices = [f"v{i}" for i in range(n_vertices)]
            arcs = {
                (u, v) for u in vertices for v in rng.sample(vertices, degree) if u != v
            }
            targets = [v for i, v in enumerate(vertices) if i % 64 in (0, 1, 62, 63)]
            yield Presentation(Digraph(vertices, arcs), rng.sample(vertices, n), targets)


PADDED_SIZES = (65, 129)


def kernel_variants(cases):
    """Copies of small presentations that take the kernel's other paths.

    Each presentation comes back padded with isolated vertices, neither
    ground nor targets, to every size in PADDED_SIZES, so that its linked
    family goes through the multi-word search as well as the one-word
    one; the originals keep their order among the padding. Then it comes
    back with its ground listed in a shuffled order, which the kernel
    numbers first but must still route in vertex order.
    """
    rng = random.Random(0x9AD5)
    for p in cases:
        vertices = p.graph.vertices
        for size in PADDED_SIZES:
            padded = [f"pad{i}" for i in range(size)]
            for slot, v in zip(sorted(rng.sample(range(size), len(vertices))), vertices):
                padded[slot] = v
            yield Presentation(Digraph(padded, p.graph.arcs), p.ground, p.targets)
        yield p.with_ground(rng.sample(p.ground, len(p.ground)))


def engines_agree(kernel, cases) -> int:
    """Assert that ``kernel`` and the Python engine agree in both modes.

    For each presentation: the linked sets, then ``(equal, searches,
    differs_at, rank)`` against the linked sets with one set flipped.
    Returns the number of cases.
    """
    rng = random.Random(0xF11B)
    saved = digraph._KERNEL
    count = 0
    try:
        for p in cases:
            args = (p.graph, p.ground, p.targets)
            digraph._KERNEL = None
            python = digraph._linkage_independence(*args)
            flipped = python.copy()
            flipped[rng.randrange(1, len(flipped))] ^= True
            compared = digraph._linkage_independence(*args, flipped)
            digraph._KERNEL = kernel
            assert np.array_equal(digraph._linkage_independence(*args), python), p
            assert digraph._linkage_independence(*args, flipped) == compared, p
            count += 1
    finally:
        digraph._KERNEL = saved
    return count


def call_kernel(n_vertices, arcs, ground, targets, expected=None):
    """Call the kernel directly: its status, linked-set array and stats."""
    arcs = np.array(arcs, dtype=np.int32).reshape(-1)
    ends = np.array(list(ground) + list(targets), dtype=np.int32)
    indep = np.zeros(1 << len(ground), dtype=np.uint8)
    indep[0] = 1
    stats = np.zeros(3, dtype=np.int64)
    status = digraph._KERNEL(
        n_vertices, len(arcs) // 2, arcs.ctypes.data,
        len(ground), ends.ctypes.data, len(targets), ends[len(ground):].ctypes.data,
        None if expected is None else expected.ctypes.data,
        None if expected is not None else indep.ctypes.data,
        stats.ctypes.data,
    )
    return status, indep.tolist(), stats.tolist()


class TestKernelCall:
    """What the kernel's caller refuses, and the failures it reports."""

    def test_mis_shaped_table_is_refused(self):
        p = Presentation(Digraph("ab", [("a", "b")]), "ab", "b")
        message = r"^bad kernel call: a table of \(3,\) for 2 elements$"
        with pytest.raises(ValueError, match=message):
            digraph._grow_linked_c(p.graph, p.ground, p.targets, None, np.zeros(3, dtype=bool))

    @pytest.mark.parametrize(
        "status, error, message",
        [
            (1, MemoryError, "linkage kernel could not allocate its search state"),
            (2, RuntimeError, r"linkage kernel rejected its query \(status 2\)"),
        ],
    )
    def test_kernel_failure_status_raises(self, monkeypatch, status, error, message):
        monkeypatch.setattr(digraph, "_KERNEL", lambda *args: status)
        p = Presentation(Digraph("ab", [("a", "b")]), "ab", "b")
        with pytest.raises(error, match=f"^{message}$"):
            p.matroid


@requires_kernel
class TestKernel:
    """The C kernel marks exactly the sets the Python enumeration marks."""

    def test_random_presentations(self):
        rng = random.Random(0xC0DE)
        small = [random_presentation(rng, max_vertices=10) for _ in range(500)]
        cases = chain(small, kernel_variants(small))
        assert engines_agree(digraph._KERNEL, cases) == (len(PADDED_SIZES) + 2) * len(small)

    def test_every_rank3_materialization(self, monkeypatch):
        seen = []
        enumerate_linked = digraph._linkage_independence

        def spy(graph, ground, targets, *expected):
            seen.append(Presentation(graph, ground, targets))
            return enumerate_linked(graph, ground, targets, *expected)

        with monkeypatch.context() as m:
            m.setattr(digraph, "_linkage_independence", spy)
            cert = certify(construct(parse_presentation(RANK3_DOC)))
            verify_certificate(cert)
        assert len(seen) > 50 and max(len(p.ground) for p in seen) == 14
        assert engines_agree(digraph._KERNEL, seen) == len(seen)

    def test_inconsistent_network_is_refused(self):
        # vertices a, b; arc a -> b; ground a, b; target b
        p = Presentation(Digraph("ab", [("a", "b")]), "ab", "b")
        stats = np.zeros(3, dtype=np.int64)

        def call(n_vertices=2, arcs=(0, 1), ground=(0, 1), targets=(1,), n=None):
            arrays = [
                np.array(arcs, dtype=np.int32),
                np.array(ground, dtype=np.int32),
                np.array(targets, dtype=np.int32),
                np.zeros(4, dtype=np.uint8),
            ]
            arcs, ground_, targets_, indep = (a.ctypes.data for a in arrays)
            return digraph._KERNEL(
                n_vertices, len(arrays[0]) // 2, arcs,
                len(ground) if n is None else n, ground_,
                len(targets), targets_, None, indep, stats.ctypes.data,
            )

        assert call() == 0
        assert stats[2] == digraph._grow_linked(p.graph, p.ground, p.targets, None, None)[2] == 1
        assert call(arcs=(0, 2)) == 2  # an endpoint out of range
        assert call(arcs=(-1, 1)) == 2
        assert call(ground=(0, -1)) == 2  # a ground index out of range
        assert call(ground=(0, 2)) == 2
        assert call(ground=(1, 1)) == 2  # a repeated ground index
        assert call(targets=(2,)) == 2  # a target index out of range
        assert call(targets=(1, 1)) == 2  # a repeated target index
        assert call(n=-1) == 2  # ground sizes the kernel must refuse
        assert call(n=25) == 2
        assert call(n_vertices=-1, arcs=()) == 2

    def test_builds_no_flow_network(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the kernel builds its own network")

        p = WIDE_UNIFORM
        monkeypatch.setattr(digraph, "_FlowNetwork", refuse)
        assert p.presents(linkage_matroid(p))

    def test_engines_stop_at_the_same_set(self, monkeypatch):
        """Same verdict, same searches, same first difference, in every case."""
        stopped = 0
        for p, _, candidates in presents_cases():
            for m in candidates.values():
                if set(m.ground) != set(p.ground):
                    continue
                expected = independent_sets(m, p.ground)
                args = (p.graph, p.ground, p.targets, expected)
                kernel = digraph._linkage_independence(*args)
                with monkeypatch.context() as patched:
                    patched.setattr(digraph, "_KERNEL", None)
                    assert digraph._linkage_independence(*args) == kernel, p
                assert kernel.equal == p.matroid.equals(m)
                if not kernel.equal:
                    assert kernel.searches <= int(expected.sum()) + 1
                    stopped += 1
        assert stopped > 20

    def test_multiword_presentations(self):
        assert engines_agree(digraph._KERNEL, multiword_cases()) == 4 * len(MULTIWORD_SIZES)

    def test_self_loops_and_repeated_arcs_change_nothing(self):
        rng = random.Random(0x5E1F)
        cases = chain(
            (random_presentation(rng, max_vertices=10) for _ in range(100)),
            islice(multiword_cases(), 0, None, 4),
        )
        for p in cases:
            idx = p.graph.index
            arcs = [(idx[u], idx[v]) for u, v in p.graph.arcs]
            repeats = rng.choices(arcs, k=len(arcs)) if arcs else []
            loops = [(v, v) for v in rng.sample(range(len(idx)), min(5, len(idx)))]
            hostile = arcs + repeats + loops
            rng.shuffle(hostile)
            ground = [idx[g] for g in p.ground]
            targets = [idx[t] for t in p.targets]
            clean = call_kernel(len(idx), arcs, ground, targets)
            assert call_kernel(len(idx), hostile, ground, targets) == clean, p
            python = digraph._grow_linked(p.graph, p.ground, p.targets, None, None)
            assert clean[2][2] == python[2], p  # the routed rank
            flipped = np.array(clean[1], dtype=np.uint8)
            flipped[rng.randrange(1, len(flipped))] ^= 1
            assert call_kernel(len(idx), hostile, ground, targets, flipped) == call_kernel(
                len(idx), arcs, ground, targets, flipped
            ), p

    def test_largest_vertex_count_allocates_no_square_table(self):
        # a table of (1 << 20) ** 2 bits would take about 137 GB
        start = time.monotonic()
        assert call_kernel(1 << 20, [(0, 1)], [0], [1]) == (0, [1, 1], [1, -1, 1])
        assert time.monotonic() - start < 5
        assert call_kernel((1 << 20) + 1, [(0, 1)], [0], [1])[0] == 2


# a fresh interpreter imports the package with a given C compiler and
# cache directory, and prints its engine and a few linkage tables
LOAD_SCRIPT = """
import json, random, sys, sysconfig
if sys.argv[1]:
    sysconfig.get_config_vars()["CC"] = sys.argv[1]
from gammoids import digraph
from gammoids.corpus import random_presentation
rng = random.Random(7)
tables = [digraph.linkage_matroid(random_presentation(rng)).table.tolist() for _ in range(30)]
print(json.dumps([digraph.ENGINE, tables]))
"""


def import_in_fresh_interpreter(cache: Path, cc: str = "") -> tuple[str, list]:
    env = dict(os.environ, XDG_CACHE_HOME=str(cache))
    env["PYTHONPATH"] = str(Path(digraph.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-c", LOAD_SCRIPT, cc],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    engine, tables = json.loads(done.stdout)
    rng = random.Random(7)
    expected = [linkage_matroid(random_presentation(rng)).table.tolist() for _ in range(30)]
    assert tables == expected
    return engine


# a fresh interpreter loads a kernel built with the undefined-behaviour
# sanitizer in place of the live one and runs the differential cases, so
# that the sanitizer's abort fails the test instead of ending pytest
UBSAN_SCRIPT = """
import random, sys
from itertools import chain
from pathlib import Path
sys.path.insert(0, sys.argv[2])
from gammoids import digraph
from gammoids.corpus import random_presentation
from test_digraph import engines_agree, kernel_variants, multiword_cases
try:
    kernel = digraph._bind(Path(sys.argv[1]))
except OSError as exc:
    sys.exit(f"unloadable: {exc}")
rng = random.Random(0x0B5A)
small = [random_presentation(rng, max_vertices=10) for _ in range(200)]
print(engines_agree(kernel, chain(multiword_cases(), small, kernel_variants(small))))
"""


class TestKernelBuild:
    def test_missing_compiler_falls_back_to_python(self, tmp_path):
        assert import_in_fresh_interpreter(tmp_path, "/nonexistent/bin/cc") == "python"
        assert list((tmp_path / "gammoids").iterdir()) == []  # no partial library left

    def test_cache_others_can_write_is_not_used(self, tmp_path):
        cache = tmp_path / "gammoids"
        cache.mkdir()
        cache.chmod(0o777)
        assert import_in_fresh_interpreter(tmp_path) == "python"
        assert list(cache.iterdir()) == []

    def test_kernel_compiles_without_warnings(self, tmp_path):
        cc = shlex.split(sysconfig.get_config_var("CC") or "")
        if not cc or shutil.which(cc[0]) is None:
            pytest.skip("no C compiler")
        source = Path(digraph.__file__).with_name("_linkage.c")
        flags = ["-Wall", "-Wextra", "-Werror", "-O2", "-shared", "-fPIC"]
        done = subprocess.run(
            cc + flags + ["-o", str(tmp_path / "linkage.so"), str(source)],
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr

    def test_kernel_runs_clean_under_the_sanitizer(self, tmp_path):
        cc = shlex.split(sysconfig.get_config_var("CC") or "")
        if not cc or shutil.which(cc[0]) is None:
            pytest.skip("no C compiler")
        source = Path(digraph.__file__).with_name("_linkage.c")
        library = tmp_path / "linkage-ubsan.so"
        flags = ["-fsanitize=undefined", "-fno-sanitize-recover=all", "-O1", "-shared", "-fPIC"]
        built = subprocess.run(
            cc + flags + ["-o", str(library), str(source)],
            capture_output=True, text=True, timeout=120,
        )
        if built.returncode:
            pytest.skip(f"the sanitizer does not build here: {built.stderr[-300:]}")
        env = dict(os.environ, PYTHONPATH=str(Path(digraph.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-c", UBSAN_SCRIPT, str(library), str(Path(__file__).parent)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        if done.stderr.startswith("unloadable"):
            pytest.skip(f"the sanitized kernel does not load: {done.stderr[:300]}")
        assert done.returncode == 0, done.stderr[-2000:]
        assert int(done.stdout) == 4 * len(MULTIWORD_SIZES) + (len(PADDED_SIZES) + 2) * 200

    @requires_kernel
    def test_cold_cache_compiles_once(self, tmp_path):
        assert import_in_fresh_interpreter(tmp_path) == "c"
        cache = tmp_path / "gammoids"
        assert cache.stat().st_mode & 0o777 == 0o700
        (library,) = cache.iterdir()
        assert library.name.startswith("linkage-") and library.suffix == ".so"
        built = library.stat().st_mtime_ns
        assert import_in_fresh_interpreter(tmp_path) == "c"
        assert [p.stat().st_mtime_ns for p in cache.iterdir()] == [built]


class TestBruteForceOracle:
    def test_trivial_cases(self):
        g = Digraph("ab")
        assert brute_force_linking_oracle(g, "a", "a") == 1
        assert brute_force_linking_oracle(g, "a", "b") == 0

    def test_vertex_cap(self):
        labels = [f"v{i}" for i in range(11)]
        with pytest.raises(GraphTooLarge):
            brute_force_linking_oracle(Digraph(labels), labels[:1], labels[1:2])

    def test_agrees_with_flow_engine(self):
        rng = random.Random(23)
        for _ in range(120):
            g = random_digraph(rng, 7)
            xs = random_vertex_subset(rng, g)
            ts = random_vertex_subset(rng, g)
            assert max_linking(g, xs, ts).size == brute_force_linking_oracle(g, xs, ts)


class TestTransversalDuality:
    def test_no_arcs_all_targets(self):
        g = Digraph("abc")
        assert transversal_duality_check(Presentation(g, "abc", "abc"))

    def test_no_arcs_no_targets(self):
        g = Digraph("abc")
        assert transversal_duality_check(Presentation(g, "abc", ""))

    def test_requires_strict_presentation(self):
        g = Digraph("abc")
        with pytest.raises(NotStrict):
            transversal_duality_check(Presentation(g, "ab", "a"))

    def test_u24_presentation(self):
        g = Digraph("abcd", [("c", "a"), ("c", "b"), ("d", "a"), ("d", "b")])
        p = Presentation(g, "abcd", "ab")
        assert p.matroid.equals(uniform("abcd", 2))
        assert transversal_duality_check(p)

    def test_random_strict_presentations(self):
        rng = random.Random(31)
        for _ in range(30):
            p = random_presentation(rng, max_vertices=6, strict=True)
            assert transversal_duality_check(p)
