"""Write ``small_matroids.json``: one gammoid presentation per isomorphism
class of matroids on 1-4 elements, 31 in all.

Every matroid on at most 4 elements is a gammoid, presented on at most 4
vertices. The search tries 1-4 vertices and, for each count, arc sets by
size, then every ground set and target set, and stops once it has met
all 31 classes. Two matroids are isomorphic when the smallest of their
rank tables over every ordering of the ground set agree.
``test_small_matroids.py`` reads the file. Run from the repository root::

    PYTHONPATH=src python tests/small_matroids.py
"""

from __future__ import annotations

import json
from itertools import chain, combinations, permutations
from pathlib import Path

from gammoids import Digraph, Matroid, Presentation

FIXTURE = Path(__file__).with_name("small_matroids.json")
CLASS_COUNTS = {1: 2, 2: 4, 3: 8, 4: 17}  # matroids on n elements, up to isomorphism


def isomorphism_key(m: Matroid) -> bytes:
    """The smallest rank table of ``m`` over every ordering of its ground set."""
    return min(m.table_in(order).tobytes() for order in permutations(m.ground))


def _subsets(items, min_size: int = 0):
    return chain.from_iterable(combinations(items, k) for k in range(min_size, len(items) + 1))


def search() -> list[Presentation]:
    """A presentation of each class, the first the search meets, by ground size."""
    found: dict[tuple[int, bytes], Presentation] = {}
    seen: set[tuple[int, bytes]] = set()  # tables in their ground's order
    for n_vertices in range(1, 5):
        vertices = "abcd"[:n_vertices]
        pairs = list(permutations(vertices, 2))
        for arcs in _subsets(pairs):
            graph = Digraph(vertices, arcs)
            for ground in _subsets(vertices, 1):
                for targets in _subsets(vertices):
                    p = Presentation(graph, ground, targets)
                    table = (len(ground), p.matroid.table.tobytes())
                    if table in seen:
                        continue
                    seen.add(table)
                    key = (len(ground), isomorphism_key(p.matroid))
                    found.setdefault(key, p)
                    if len(found) == sum(CLASS_COUNTS.values()):
                        return [found[k] for k in sorted(found)]
    raise AssertionError(f"the search met {len(found)} classes")


def main() -> None:
    lines = [json.dumps(p.to_doc()) for p in search()]  # one presentation a line
    FIXTURE.write_text("[\n" + ",\n".join(lines) + "\n]\n", encoding="utf-8")
    print(f"wrote {len(lines)} presentations to {FIXTURE}")


if __name__ == "__main__":
    main()
