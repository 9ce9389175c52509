"""Directed graphs, vertex-disjoint linkings, and linkage matroids.

A linking from X to T is a family of pairwise vertex-disjoint directed
paths, one per element of X, each starting in X and ending in T; a vertex
lying in both X and T may serve as its own single-vertex path. Linkings
are computed by max-flow on the vertex-split network: each vertex becomes
an in/out pair joined by a unit-capacity internal arc, graph arcs get
capacity 1 (the unit vertex capacities bound their flow anyway), and a
super-sink attaches outside the splitting; a source's unit starts at its
in-node, with no super-source. Sources are routed one at a time in the
order given (:func:`max_linking` gives vertex-index order), each by one
reverse BFS from the sink that scans arcs in a fixed order, so every
result is deterministic.

A linkage matroid is materialized by growing linked sets one element at
a time. One reverse BFS from the sink over the residual network of a
linked set's flow decides all of its one-element extensions at once (an
extension is linked iff its vertex reaches the sink), and the search
tree carries each extension's augmenting path, so an extension's flow is
a copy plus a walk along that path.

That enumeration runs in a small C kernel, ``_linkage.c`` beside this
file, called through ``ctypes`` once per enumeration. It receives the
query itself as int32 arrays (vertex count, arc tails and heads, ground
and target indices) and numbers the vertices ground first, so every set
of candidates is one 64-bit word; it still routes the rank in the
caller's vertex order. It builds no split network: a flow is each
vertex's successor and predecessor on its path plus two vertex bitsets,
and the reverse search reads the residual arcs off that state, level by
level. On a graph of at most 64 vertices the search keeps each vertex
set in one word and each vertex's in-neighbours in one word; on a larger
one it runs over bitsets of 64-vertex words with sparse in-neighbour
rows. A search whose extensions all have full rank records no path,
since none is followed. Given the independent sets of a matroid
instead of an array to fill, it compares the linked sets with them and
stops at the first difference, so a record that does not present its
minor costs at most one search per independent set of the minor
(:func:`_linkage_independence`). Importing this module compiles the
kernel with the interpreter's C compiler into the per-user cache
(``$XDG_CACHE_HOME/gammoids``, else ``~/.cache/gammoids``), under a name
hashed from the source, the compiler command and the interpreter's
extension suffix, so only a cold cache compiles. Without a
compiler, or if any step fails, the same enumeration runs in Python
(``_grow_linked``), which is also the kernel's test reference.
:data:`ENGINE` records which one is live.
"""

from __future__ import annotations

import ctypes
import os
import reprlib
import shlex
import subprocess
import sysconfig
import tempfile
import zlib
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import Collection, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import GraphTooLarge, GroundSetTooLarge, NotStrict
from .matroid import MAX_GROUND, Matroid, _popcounts

MAX_BRUTE_VERTICES = 10


def _load_kernel():
    """Compile ``_linkage.c`` into the per-user cache if needed, then load it.

    Returns the kernel's entry point, or None when there is no compiler
    or any step fails; the Python enumeration then runs instead.
    """
    source = Path(__file__).with_name("_linkage.c")
    cc = sysconfig.get_config_var("CC")
    if not cc:
        return None
    try:
        command = shlex.split(cc) + ["-O2", "-shared", "-fPIC"]
        # crc32, not hashlib: hashlib loads OpenSSL into every process
        key = zlib.crc32(source.read_bytes())
        key = zlib.crc32("\0".join(command).encode(), key)
        key = zlib.crc32(str(sysconfig.get_config_var("EXT_SUFFIX")).encode(), key)
        cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache")
        cache = cache / "gammoids"
        library = cache / f"linkage-{key:08x}.so"
        cache.mkdir(mode=0o700, parents=True, exist_ok=True)
        owner = cache.stat()
        if owner.st_uid != os.getuid() or owner.st_mode & 0o022:
            return None  # build and load only where no other user can write
        if not library.exists():
            fd, partial = tempfile.mkstemp(suffix=".so", dir=cache)
            os.close(fd)
            try:
                subprocess.run(
                    command + ["-o", partial, str(source)],
                    check=True, capture_output=True, timeout=120,
                )
                os.replace(partial, library)  # atomic: racing builds agree
            finally:
                if os.path.exists(partial):
                    os.remove(partial)
        return _bind(library)
    except (OSError, ValueError, RuntimeError, AttributeError, subprocess.SubprocessError):
        return None


def _bind(library: Path):
    """Load a compiled ``_linkage.c`` and declare its entry point's signature."""
    kernel = ctypes.CDLL(str(library)).linkage_independence
    count, array = ctypes.c_int32, ctypes.c_void_p
    kernel.argtypes = [count, count, array, count, array, count] + [array] * 4
    kernel.restype = ctypes.c_int
    return kernel


_KERNEL = _load_kernel()
ENGINE = "python" if _KERNEL is None else "c"
"""Which linked-set enumeration is live: "c" (the kernel) or "python"."""


@dataclass(frozen=True)
class Digraph:
    """Immutable digraph with labeled vertices and no self-loops."""

    vertices: tuple[str, ...]
    arcs: tuple[tuple[str, str], ...]
    index: dict[str, int] = field(init=False, compare=False, repr=False)  # vertex positions

    def __init__(self, vertices: Iterable[str], arcs: Iterable[Sequence[str]] = ()):
        vertices = tuple(vertices)
        index = {v: i for i, v in enumerate(vertices)}
        if len(index) != len(vertices):
            raise ValueError("duplicate vertices")
        seen = set()
        for u, v in arcs:
            if u == v:
                raise ValueError(f"self-loop at {reprlib.repr(u)}")
            if u not in index or v not in index:
                raise ValueError(
                    f"arc ({reprlib.repr(u)}, {reprlib.repr(v)}) uses an undeclared vertex"
                )
            seen.add((u, v))
        canon = tuple(sorted(seen, key=lambda a: (index[a[0]], index[a[1]])))
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "arcs", canon)
        object.__setattr__(self, "index", index)

    @cached_property
    def _out(self) -> tuple[tuple[int, ...], ...]:
        idx = self.index
        out: list[list[int]] = [[] for _ in self.vertices]
        for u, v in self.arcs:
            out[idx[u]].append(idx[v])
        return tuple(tuple(o) for o in out)

    def out_neighbors(self, v: str) -> tuple[str, ...]:
        return tuple(self.vertices[w] for w in self._out[self.index[v]])

    def extended(self, vertices: Iterable[str], arcs: Iterable[Sequence[str]]) -> "Digraph":
        """This graph with ``vertices`` appended and ``arcs`` added, built once."""
        return Digraph(self.vertices + tuple(vertices), chain(self.arcs, arcs))

    def without_vertex(self, v: str) -> "Digraph":
        if v not in self.index:
            raise ValueError(f"no vertex {reprlib.repr(v)}")
        return Digraph(
            tuple(w for w in self.vertices if w != v),
            [a for a in self.arcs if v not in a],
        )

    def relabeled(self, mapping: dict[str, str]) -> "Digraph":
        ren = lambda x: mapping.get(x, x)  # noqa: E731
        return Digraph(
            tuple(ren(v) for v in self.vertices),
            [(ren(u), ren(v)) for u, v in self.arcs],
        )


@dataclass(frozen=True)
class Linking:
    """A family of pairwise vertex-disjoint directed paths."""

    paths: tuple[tuple[str, ...], ...]

    @property
    def size(self) -> int:
        return len(self.paths)

    def check_valid(self, graph: Digraph, targets: Iterable[str]) -> None:
        """Assert disjointness, arc membership, and target endpoints."""
        tset = set(targets)
        used: set[str] = set()
        arcs = set(graph.arcs)
        for path in self.paths:
            assert path, "empty path"
            assert path[-1] in tset, f"path {path} does not end in the targets"
            for v in path:
                assert v not in used, f"vertex {v} reused across paths"
                used.add(v)
            for u, v in zip(path, path[1:]):
                assert (u, v) in arcs, f"missing arc ({u}, {v})"


@dataclass(frozen=True)
class Presentation:
    """A gammoid presentation: a digraph with ground and target vertex sets."""

    graph: Digraph
    ground: tuple[str, ...]
    targets: tuple[str, ...]

    def __init__(self, graph: Digraph, ground: Iterable[str], targets: Iterable[str]):
        ground = tuple(ground)
        targets = tuple(targets)
        index = graph.index
        for name, part in (("ground", ground), ("targets", targets)):
            if len(set(part)) != len(part):
                raise ValueError(f"duplicate labels in {name}")
            for v in part:
                if v not in index:
                    raise ValueError(f"{name} label {reprlib.repr(v)} is not a vertex")
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "targets", targets)

    @cached_property
    def matroid(self) -> Matroid:
        return linkage_matroid(self)

    def presents(self, m: Matroid) -> bool:
        """Whether the linked sets are exactly the independent sets of ``m``.

        Compares the enumeration with ``m``'s table read in this ground
        order. No rank table is built and no axiom is checked: a family
        equal to the independent sets of the matroid ``m`` satisfies them.
        """
        if set(self.ground) != set(m.ground):
            return False
        expected = m.table_in(self.ground) == _popcounts(len(self.ground))
        return _linkage_independence(self.graph, self.ground, self.targets, expected).equal

    def with_ground(self, ground: Iterable[str]) -> "Presentation":
        return Presentation(self.graph, ground, self.targets)

    def to_doc(self) -> dict:
        return {
            "vertices": list(self.graph.vertices),
            "arcs": [list(a) for a in self.graph.arcs],
            "ground": list(self.ground),
            "targets": list(self.targets),
        }


class _FlowNetwork:
    """Unit-vertex-capacity flow network for one (graph, targets) pair.

    It serves :func:`max_linking` (so :func:`is_linked`), the strict
    lift in ``surgery.retarget`` and the Python engine, with one search,
    :meth:`sink_tree`, and one walk, :meth:`push`. The C kernel builds no such network: it searches the
    same residual arcs from a per-vertex record of the flow.

    Node numbering: vertex i splits into in-node 2i and out-node 2i+1,
    and the super-sink sits at 2n; there is no source node. Arc k and
    its residual twin are stored at positions 2k and 2k+1 of the
    capacity array, so one bytearray and the routed sources describe a flow.
    """

    def __init__(self, graph: Digraph, targets: Iterable[str]):
        idx = graph.index
        n = len(graph.vertices)
        self.snk = 2 * n
        self.n_nodes = 2 * n + 1
        heads: list[int] = []
        caps = bytearray()
        adj: list[list[int]] = [[] for _ in range(self.n_nodes)]

        def add(u: int, v: int) -> None:  # a unit arc and its empty residual twin
            a = len(heads)
            heads.append(v)
            caps.append(1)
            adj[u].append(a)
            heads.append(u)
            caps.append(0)
            adj[v].append(a + 1)

        for i in range(n):
            add(2 * i, 2 * i + 1)
        for u, v in graph.arcs:
            add(2 * idx[u] + 1, 2 * idx[v])
        for t in sorted(targets, key=idx.__getitem__):
            add(2 * idx[t] + 1, self.snk)
        self.heads = heads
        self.base = bytes(caps)
        self.adj = adj

    @cached_property
    def into(self) -> list[tuple[tuple[int, int], ...]]:
        """Arcs entering each node, paired with their tails."""
        heads = self.heads
        return [tuple((a ^ 1, heads[a]) for a in out) for out in self.adj]

    def fresh(self) -> bytearray:
        return bytearray(self.base)

    def sink_tree(self, caps: bytearray, wanted: set[int]) -> list[int]:
        """Reverse BFS from the sink over residual arcs.

        Entry v is the first arc of a shortest residual path from node v
        to the sink: -1 if v does not reach it, -2 at the sink itself.
        The search stops early once every node in ``wanted`` is reached.
        """
        into = self.into
        toward = [-1] * self.n_nodes
        toward[self.snk] = -2
        queue = [self.snk]
        left = len(wanted)
        for w in queue:
            for a, v in into[w]:
                if caps[a] and toward[v] == -1:
                    toward[v] = a
                    if v in wanted:
                        left -= 1
                        if not left:
                            return toward
                    queue.append(v)
        return toward

    def push(self, caps: bytearray, toward: list[int], i: int) -> None:
        """Send one unit from the in-node of vertex i to the sink along ``toward``."""
        heads = self.heads
        v = 2 * i
        while v != self.snk:
            a = toward[v]
            caps[a] -= 1
            caps[a ^ 1] += 1
            v = heads[a]

    def route(self, caps: bytearray, source_indices: Iterable[int]) -> list[int]:
        """Route the given sources in the order given; return those routed, in that order.

        Each source gets one reverse search from the sink and, if its
        in-node is reached, a push along that search's tree. Routing a
        source never unroutes another, so the routed sources are the
        greedy basis in the order given.
        """
        routed = []
        for i in source_indices:
            toward = self.sink_tree(caps, {2 * i})
            if toward[2 * i] != -1:
                self.push(caps, toward, i)
                routed.append(i)
        return routed

    def linking_paths(
        self, caps: bytearray, graph: Digraph, routed: Iterable[int]
    ) -> list[tuple[str, ...]]:
        """The path of each routed source's unit, in the order given."""
        heads = self.heads
        verts = graph.vertices
        paths = []
        for i in routed:
            path = [verts[i]]
            node = i
            while True:
                nxt = -1
                for b in self.adj[2 * node + 1]:
                    if b % 2 == 0 and caps[b ^ 1]:
                        nxt = b
                        break
                assert nxt >= 0, "flow decomposition lost a unit"
                if heads[nxt] == self.snk:
                    break
                node = heads[nxt] // 2
                path.append(verts[node])
            paths.append(tuple(path))
        return paths


def max_linking(graph: Digraph, sources: Iterable[str], targets: Iterable[str]) -> Linking:
    """A maximum family of vertex-disjoint paths from ``sources`` into ``targets``.

    Sources are routed greedily in vertex-index order.
    """
    idx = graph.index
    sources, targets = tuple(sources), tuple(targets)
    for name, part in (("source", sources), ("target", targets)):
        for v in part:
            if v not in idx:
                raise ValueError(f"{name} {reprlib.repr(v)} is not a vertex")
    net = _FlowNetwork(graph, targets)
    caps = net.fresh()
    routed = net.route(caps, sorted(map(idx.__getitem__, sources)))
    return Linking(tuple(net.linking_paths(caps, graph, routed)))


def is_linked(graph: Digraph, sources: Iterable[str], targets: Iterable[str]) -> bool:
    """Whether every source is linked into ``targets`` by disjoint paths."""
    sources = tuple(sources)
    return max_linking(graph, sources, targets).size == len(sources)


class _Comparison(NamedTuple):
    """How a presentation's linked sets compare with a matroid's independent sets."""

    equal: bool
    searches: int  # linked sets searched before the verdict
    differs_at: int  # the first set found in one family only, by mask; -1 if none


def _linkage_independence(
    graph: Digraph,
    ground: Sequence[str],
    targets: Iterable[str],
    expected: np.ndarray | None = None,
) -> np.ndarray | _Comparison:
    """Which subsets of the ground set are linked to the targets, by mask.

    One route over the whole ground gives the rank; no larger subset is
    linked. Linked sets are then grown depth first, one element at a
    time, from a maximum flow of each. For a linked set I with flow f,
    I + e is linked iff the in-node of e reaches the sink in the
    residual network of f, so one reverse search from the sink decides
    every one-element extension of I, and its tree holds each
    extension's augmenting path. An extension's flow is f plus a walk
    along that path, with no search of its own.

    A set is extended only by elements below its lowest bit, so each
    mask is reached once, from the mask without its lowest bit. The
    elements that may extend I + e are those below e that extend I:
    any other extension contains an unlinked set. A set with no such
    element, or of full rank, is a leaf and is never searched.

    With ``expected``, the independent sets of a matroid on ``ground``
    by mask, the linked sets are compared with them instead of returned,
    and the growing stops at the first difference. The routed set R
    must be a basis there: independent, with no independent R + e. Then
    every candidate e of every searched set I must be reached exactly
    when I + e is expected. Each linked set is checked as its parent's
    candidate, and the smallest expected set that is not linked is
    either larger than the rank or some searched set's candidate, so
    the verdict is exact, and a mismatch costs at most one search per
    expected set.

    The growing runs in the C kernel when it is loaded, else in
    :func:`_grow_linked`. Both route the rank greedily in vertex order,
    keep the same stack and candidate order, and stop a search once
    every candidate is reached. They may route a set along different
    augmenting paths, but which sets a search reaches, and so which set
    is routed, depends only on the linked family, so the two return the
    same sets, the same number of searches and the same first difference.
    """
    indep = None
    if expected is None:
        indep = np.zeros(1 << len(ground), dtype=bool)
        indep[0] = True
    grow = _grow_linked if _KERNEL is None else _grow_linked_c
    searches, differs_at = grow(graph, ground, targets, expected, indep)
    if expected is None:
        return indep
    return _Comparison(differs_at < 0, searches, differs_at)


def _grow_linked(
    graph: Digraph,
    ground: Sequence[str],
    targets: Iterable[str],
    expected: np.ndarray | None,
    indep: np.ndarray | None,
) -> tuple[int, int]:
    """Grow the linked sets in Python (the reference engine).

    Marks every non-empty linked set in ``indep`` if given, compares them
    with ``expected`` if given, and returns the number of searches made
    and the first set found to differ, or -1.
    """
    net = _FlowNetwork(graph, targets)
    idx = graph.index
    n = len(ground)
    vertex = [idx[g] for g in ground]
    in_node = [2 * v for v in vertex]
    routed = set(net.route(net.fresh(), sorted(vertex)))
    rank = len(routed)
    if expected is not None:
        expected = expected.tobytes()  # bytes index to ints, fast in a loop
        basis = sum(1 << e for e in range(n) if vertex[e] in routed)
        if not expected[basis]:
            return 0, basis
        for e in range(n):
            if not basis >> e & 1 and expected[basis | 1 << e]:
                return 0, basis | 1 << e
    if not rank:
        return 0, -1
    searches = 0
    linked: list[int] = []
    # linked sets still to search: mask, size, elements that may extend it, flow
    stack = [(0, 0, list(range(n)), net.fresh())]
    while stack:
        parent, size, cands, caps = stack.pop()
        searches += 1
        toward = net.sink_tree(caps, {in_node[e] for e in cands})
        reached = [e for e in cands if toward[in_node[e]] != -1]
        if expected is not None:
            hits = [e for e in cands if expected[parent | 1 << e]]
            if hits != reached:  # both ascend: the first difference is the least
                return searches, parent | 1 << min(set(hits).symmetric_difference(reached))
        grow = size + 1 < rank
        for i, e in enumerate(reached):
            child = parent | 1 << e
            linked.append(child)
            if grow and i:
                flow = bytearray(caps)
                net.push(flow, toward, vertex[e])
                stack.append((child, size + 1, reached[:i], flow))
    if indep is not None:
        indep[linked] = True
    return searches, -1


def _grow_linked_c(
    graph: Digraph,
    ground: Sequence[str],
    targets: Iterable[str],
    expected: np.ndarray | None,
    indep: np.ndarray | None,
) -> tuple[int, int]:
    """:func:`_grow_linked` through the C kernel, which takes the graph as index arrays.

    The arrays use the graph's vertex order; the kernel renumbers the
    ground first inside, and picks its one-word search for graphs of at
    most 64 vertices, without changing any result.
    """
    idx = graph.index
    n = len(ground)
    for table in (expected, indep):
        if table is not None and not (
            table.dtype == bool and table.shape == (1 << n,) and table.flags.c_contiguous
        ):
            raise ValueError(f"bad kernel call: a table of {table.shape} for {n} elements")
    arcs = np.fromiter(
        map(idx.__getitem__, chain.from_iterable(graph.arcs)), np.int32, 2 * len(graph.arcs)
    )
    ends = np.fromiter(map(idx.__getitem__, chain(ground, targets)), np.int32)
    stats = np.zeros(2, dtype=np.int64)
    # plain addresses: numpy's ctypes adapters (ndpointer, data_as) leave one
    # reference cycle per argument, which holds its array until a collection
    status = _KERNEL(
        len(graph.vertices), len(graph.arcs), arcs.ctypes.data,
        n, ends.ctypes.data, len(ends) - n, ends[n:].ctypes.data,
        None if expected is None else expected.ctypes.data,
        None if indep is None else indep.ctypes.data,
        stats.ctypes.data,
    )
    if status == 1:
        raise MemoryError("linkage kernel could not allocate its search state")
    if status not in (0, 3):
        raise RuntimeError(f"linkage kernel rejected its query (status {status})")
    return tuple(stats.tolist())


def linkage_matroid(presentation: Presentation) -> Matroid:
    """The matroid on the ground set whose independent sets are linked to T.

    Gammoids are matroids (Perfect 1968; Mason 1972): no axiom check."""
    if len(presentation.ground) > MAX_GROUND:
        raise GroundSetTooLarge(
            f"{len(presentation.ground)} ground elements exceeds cap {MAX_GROUND}"
        )
    indep = _linkage_independence(
        presentation.graph, presentation.ground, presentation.targets
    )
    return Matroid._from_independent_sets(presentation.ground, indep)


def brute_force_linking_oracle(
    graph: Digraph, sources: Iterable[str], targets: Iterable[str]
) -> int:
    """Maximum linking size by exhaustive search over path families.

    Shares no machinery with the flow solver; used as its test oracle.
    """
    if len(graph.vertices) > MAX_BRUTE_VERTICES:
        raise GraphTooLarge(
            f"{len(graph.vertices)} vertices exceeds cap {MAX_BRUTE_VERTICES}"
        )
    idx = graph.index
    out = graph._out
    tset = {idx[t] for t in targets}
    srcs = sorted(idx[s] for s in sources)

    def best(k: int, used: frozenset[int]) -> int:
        if k == len(srcs):
            return 0
        top = best(k + 1, used)  # leave source k unrouted
        v = srcs[k]
        if v in used:
            return top

        def walk(node: int, path: tuple[int, ...]) -> int:
            score = 0
            if node in tset:
                score = 1 + best(k + 1, used | frozenset(path))
            for w in out[node]:
                if w not in used and w not in path:
                    score = max(score, walk(w, path + (w,)))
            return score

        return max(top, walk(v, (v,)))

    return best(0, frozenset())


def kuhn_matching(elements: Sequence, parts: Sequence[Collection]) -> list | None:
    """Match each element to a distinct part containing it (Kuhn search).

    Returns the element matched into each part (None for a part left
    free), or None if some element cannot be matched. Each element's
    augmenting path is searched depth first, trying parts in index order;
    the path is kept on an explicit stack, so a call leaves no reference
    cycle.
    """
    n_parts = len(parts)
    owner: list = [None] * n_parts
    for e in elements:
        seen: set[int] = set()
        path = [[e, 0]]  # elements on the augmenting path, with the next part to try
        while path:
            frame = path[-1]
            x, p = frame
            while p < n_parts and (p in seen or x not in parts[p]):
                p += 1
            if p == n_parts:
                path.pop()
                continue
            frame[1] = p + 1
            seen.add(p)
            if owner[p] is None:
                for y, after in path:
                    owner[after - 1] = y
                break
            path.append([owner[p], 0])
        else:
            return None
    return owner


def dual_transversal_parts(graph: Digraph, targets: Iterable[str]) -> list[frozenset[str]]:
    """The transversal system dual to the strict gammoid on ``targets``.

    One part per vertex outside the targets, in vertex order: the vertex
    and its out-neighbors (Ingleton-Piff duality).
    """
    tset = set(targets)
    return [
        frozenset((v,) + graph.out_neighbors(v)) for v in graph.vertices if v not in tset
    ]


def transversal_duality_check(presentation: Presentation) -> bool:
    """Cross-check a strict presentation against transversal-matroid duality.

    Builds the transversal matroid of :func:`dual_transversal_parts` by a
    matching oracle, dualizes it, and compares against the linkage
    matroid. Used purely as a test oracle.
    """
    if set(presentation.ground) != set(presentation.graph.vertices):
        raise NotStrict("duality check requires ground = all vertices")
    ground = presentation.ground
    parts = dual_transversal_parts(presentation.graph, presentation.targets)

    def oracle(mask: int) -> bool:
        elements = [g for b, g in enumerate(ground) if mask >> b & 1]
        return kuhn_matching(elements, parts) is not None

    transversal = Matroid.from_independence_oracle(presentation.ground, oracle)
    return transversal.dual().equals(presentation.matroid)
