"""Seeded input generators for the benchmark workloads.

Every generator takes an explicit seed and returns plain JSON documents,
the same ones on every call, so the program under test sees only the
generated inputs. Nothing here imports the package under test.
"""

from __future__ import annotations

import random
import string

RELAYS = 2
ARC_DENSITY = 0.35


def matched_basis_gammoid(seed: int, rank: int) -> dict:
    """A rank-``rank`` gammoid presentation whose ground splits into two bases.

    ``rank`` targets and ``rank`` sources, with a seeded perfect matching
    from the sources onto the targets plus seeded extra arcs, some of them
    through ``RELAYS`` non-ground relay vertices. Targets are a basis and
    the matching makes the sources a second, disjoint basis, so the
    normalized rank is ``rank`` by construction and the construction's
    result has ``3 * rank + 5`` elements. The number of extra arcs is the
    same for every seed (``ARC_DENSITY`` of the candidates), which keeps the
    cost of one input close to that of another.
    """
    rng = random.Random(f"matched-basis/{rank}/{seed}")
    targets = [f"t{i}" for i in range(rank)]
    sources = [f"s{i}" for i in range(rank)]
    hubs = [f"h{i}" for i in range(RELAYS)]
    image = targets[:]
    rng.shuffle(image)
    matching = set(zip(sources, image))
    candidates = [(s, v) for s in sources for v in targets + hubs if (s, v) not in matching]
    candidates += [(h, t) for h in hubs for t in targets]
    arcs = matching | set(rng.sample(candidates, round(ARC_DENSITY * len(candidates))))
    vertices = targets + sources + hubs
    order = {v: i for i, v in enumerate(vertices)}
    return {  # arcs in the package's canonical order, so certificates record them unchanged
        "vertices": vertices,
        "arcs": [list(a) for a in sorted(arcs, key=lambda a: (order[a[0]], order[a[1]]))],
        "ground": targets + sources,
        "targets": targets,
    }


# The rank3 workload fixes one matched-basis structure and vertex order;
# the seed only names the vertices. Rank-4 structures drawn with different
# seeds differed in build cost by more than 10% (39-46 s), and reordering
# one structure moved verify cost by about 10%; renaming keeps the work
# the same, so runs differ only by the machine's own noise.
FIXED_STRUCTURE = 0


def fixed_gammoid(seed: int, rank: int) -> dict:
    """``matched_basis_gammoid(FIXED_STRUCTURE, rank)`` under seeded vertex names."""
    doc = matched_basis_gammoid(FIXED_STRUCTURE, rank)
    rng = random.Random(f"fixed-names/{rank}/{seed}")
    names: dict[str, str] = {}
    for v in doc["vertices"]:
        while v not in names:
            name = v[0] + "".join(rng.choice(string.ascii_lowercase) for _ in range(4))
            if name not in names.values():
                names[v] = name
    return {
        "vertices": [names[v] for v in doc["vertices"]],
        "arcs": [[names[u], names[v]] for u, v in doc["arcs"]],
        "ground": [names[v] for v in doc["ground"]],
        "targets": [names[v] for v in doc["targets"]],
    }


def _linking_size(arcs: list[list[str]], sources, targets) -> int:
    """Maximum number of vertex-disjoint paths from ``sources`` into ``targets``.

    A plain augmenting-path max flow on the vertex-split graph; it is an
    independent reference for the package's own linkage engine.
    """
    cap: dict[tuple, int] = {}
    adj: dict[tuple, list[tuple]] = {}

    def edge(u, v):
        cap[u, v] = cap.get((u, v), 0) + 1
        cap.setdefault((v, u), 0)
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)

    verts = {v for arc in arcs for v in arc} | set(sources) | set(targets)
    for v in verts:
        edge(("in", v), ("out", v))
    for u, v in arcs:
        edge(("out", u), ("in", v))
    for s in sources:
        edge("src", ("in", s))
    for t in targets:
        edge(("out", t), "snk")
    flow = 0
    while True:
        parent = {"src": None}
        queue = ["src"]
        for u in queue:
            for v in adj.get(u, ()):
                if v not in parent and cap[u, v] > 0:
                    parent[v] = u
                    queue.append(v)
        if "snk" not in parent:
            return flow
        v = "snk"
        while parent[v] is not None:
            u = parent[v]
            cap[u, v] -= 1
            cap[v, u] += 1
            v = u
        flow += 1


def normalized_rank(doc: dict) -> int:
    """The rank the construction normalizes ``doc`` to.

    Normalization retargets onto the greedy basis ``B`` (grown in ground
    order) and attaches a private target to each element of the rest
    outside a maximum independent subset, so the two bases have
    ``|ground| - rank(ground - B)`` elements each.
    """
    arcs, targets = doc["arcs"], doc["targets"]
    basis: list[str] = []
    for g in doc["ground"]:
        if _linking_size(arcs, basis + [g], targets) == len(basis) + 1:
            basis.append(g)
    rest = [g for g in doc["ground"] if g not in basis]
    return len(doc["ground"]) - _linking_size(arcs, rest, targets)


def random_presentation(rng: random.Random) -> dict:
    """A random presentation of at most 8 vertices, drawn as
    ``gammoids.corpus.random_presentation`` draws it."""
    n = rng.randint(1, 8)
    vertices = [chr(ord("a") + i) for i in range(n)]
    density = rng.uniform(0.1, 0.5)
    arcs = [[u, v] for u in vertices for v in vertices if u != v and rng.random() < density]
    ground = [v for v in vertices if rng.random() < 0.7] or vertices[:1]
    targets = [v for v in vertices if rng.random() < 0.4]
    return {"vertices": vertices, "arcs": arcs, "ground": ground, "targets": targets}


# Normalized ranks of one small-corpus round; 3 stands for "3 or more",
# which the workload's size cap turns away. Free draws normalize to rank 1,
# 2 and 3+ about 27%, 23% and 50% of the time, and never to rank 0 (the
# normalized rank is at least half the ground, which is never empty). A
# round keeps the too-large half but not the 27:23 split: a rank-2 build
# takes about ten times as long as a rank-1 build, and with that split the
# median call sat among the slowest rank-1 calls and spread 16-19% between
# runs. With one rank-1 instance for four of rank 2 the median is a rank-2
# call. perfbench/README.md gives the measurements.
ROUND_RANKS = (1, 2, 2, 2, 2, 3, 3, 3, 3, 3)
CORPUS_ROUNDS = 8


def small_corpus(seed: int, rounds: int = CORPUS_ROUNDS) -> list[list[tuple[dict, int]]]:
    """``rounds`` rounds of random presentations, each paired with its normalized rank.

    Presentations are drawn as the package's own random corpus draws them,
    in order, and kept when their rank is still missing from the round's mix.
    """
    rng = random.Random(f"small-corpus/{seed}")
    out = []
    for _ in range(rounds):
        missing = list(ROUND_RANKS)
        batch = []
        while missing:
            doc = random_presentation(rng)
            r = normalized_rank(doc)
            if min(r, 3) in missing:
                missing.remove(min(r, 3))
                batch.append((doc, r))
        out.append(batch)
    return out


def tamper(cert: dict, k: int) -> dict:
    """``cert`` with record ``k`` presenting the deletion as the contraction.

    The result shares every unchanged part with ``cert``, which is left as
    it was, so tampering a large certificate copies almost nothing.
    """
    record = cert["minors"][k]
    contraction = {**record["contraction"], "presentation": record["deletion"]["presentation"]}
    minors = list(cert["minors"])
    minors[k] = {**record, "contraction": contraction}
    return {**cert, "minors": minors}
