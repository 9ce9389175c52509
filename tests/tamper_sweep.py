"""Grade every single-arc edit of the u24 certificate's records against an
oracle that shares no code with either flow engine, and flip every r-set of
its excluded minor.

Each edit deletes one arc of one record (``minors[k].deletion`` or
``minors[k].contraction``), or adds one arc between two of its vertices
that it lacks, and runs ``verify_certificate`` on the edited certificate.
The oracle decides whether the edited record still presents its minor by
Ingleton-Piff duality (:func:`presents_by_duality`). An edit is
``accepted`` when verify accepts it and the oracle says the record
presents its minor, ``rejected`` when verify rejects it at that record
and the oracle says it does not, and ``disagreeing`` otherwise.
``test_tamper.py`` grades a part of the deletions with the same oracle.

Each flip removes one r-set from the excluded minor's basis family if it is
listed, or inserts it in mask order if not. Every flip must be rejected: a
flipped r-set B changes M\\x for each x outside B, and the record for that x
presents the unflipped minor. The sweep counts where verify rejects each
flip; ``test_tamper.py`` runs all of them.

The script exits 1 if an edit disagrees with the oracle or a flip is
accepted, else 0. Run from the repository root::

    PYTHONPATH=src python tests/tamper_sweep.py
"""

from __future__ import annotations

import re
import sys
import time
from bisect import bisect
from collections import Counter
from itertools import combinations, permutations

from gammoids import certify, construct, parse_presentation, verify_certificate
from gammoids.corpus import U24_DOC
from gammoids.digraph import dual_transversal_parts, kuhn_matching
from gammoids.errors import ReverifyFailed
from gammoids.matroid import Matroid

SIDES = ("deletion", "contraction")


def presents_by_duality(doc: dict, minor: Matroid) -> bool:
    """Whether the presentation ``doc`` presents ``minor``, by matching alone.

    A set X of ground elements is linked into the targets exactly when
    each part of the dual transversal system (a vertex outside the
    targets, with its out-neighbours) can be matched to a distinct vertex
    outside X: ``kuhn_matching`` with the parts as its elements. Every
    subset of the ground is tested.
    """
    p = parse_presentation(doc)
    if set(p.ground) != set(minor.ground):
        return False
    parts = dual_transversal_parts(p.graph, p.targets)
    # each vertex, as the set of the parts it lies in
    holders = {v: {i for i, part in enumerate(parts) if v in part} for v in p.graph.vertices}
    table = minor.table_in(p.ground)
    for mask in range(1 << len(p.ground)):
        xs = {g for b, g in enumerate(p.ground) if mask >> b & 1}
        free = [holders[v] for v in p.graph.vertices if v not in xs]
        linked = kuhn_matching(range(len(parts)), free) is not None
        if linked != (int(table[mask]) == len(xs)):
            return False
    return True


def arc_deletions(doc: dict):
    """``doc`` without each of its arcs in turn."""
    for k in range(len(doc["arcs"])):
        yield {**doc, "arcs": doc["arcs"][:k] + doc["arcs"][k + 1 :]}


def arc_additions(doc: dict):
    """``doc`` with each arc between two distinct vertices that it lacks, in turn."""
    present = {tuple(arc) for arc in doc["arcs"]}
    for arc in permutations(doc["vertices"], 2):
        if arc not in present:
            yield {**doc, "arcs": doc["arcs"] + [list(arc)]}


def minor_of(m: Matroid, cert: dict, k: int, side: str) -> Matroid:
    """The minor of ``m`` that record ``minors[k].<side>`` stands for."""
    x = [cert["minors"][k]["x"]]
    return m.delete(x) if side == "deletion" else m.contract(x)


def grade(cert: dict, k: int, side: str, edited: dict, minor: Matroid) -> str:
    """``accepted``, ``rejected`` or ``disagreeing``, for ``cert`` with the
    presentation of ``minors[k].<side>`` replaced by ``edited``."""
    minors = list(cert["minors"])
    minors[k] = {**minors[k], side: {**minors[k][side], "presentation": edited}}
    try:
        verify_certificate({**cert, "minors": minors})
    except ReverifyFailed as exc:
        deserved = exc.location == f"minors[{k}].{side}" and not presents_by_duality(edited, minor)
        return "rejected" if deserved else "disagreeing"
    return "accepted" if presents_by_duality(edited, minor) else "disagreeing"


def sweep(cert: dict, m: Matroid, edits, records) -> Counter:
    """The grades of every edit ``edits(presentation)`` of each record ``(k, side)``."""
    grades: Counter = Counter()
    for k, side in records:
        minor = minor_of(m, cert, k, side)
        for edited in edits(cert["minors"][k][side]["presentation"]):
            grades[grade(cert, k, side, edited, minor)] += 1
    return grades


def basis_flips(cert: dict):
    """``cert`` with each r-set of its excluded minor flipped in turn: removed
    from the basis family if listed, inserted in mask order if not."""
    em = cert["recipe"]["excluded_minor"]
    ground, bases = em["ground"], em["bases"]
    index = {g: i for i, g in enumerate(ground)}
    masks = [sum(1 << index[g] for g in basis) for basis in bases]
    for combo in combinations(range(len(ground)), len(bases[0])):
        mask = sum(1 << i for i in combo)
        k = bisect(masks, mask)
        if k and masks[k - 1] == mask:
            flipped = bases[: k - 1] + bases[k:]
        else:
            flipped = bases[:k] + [[ground[i] for i in combo]] + bases[k:]
        recipe = {**cert["recipe"], "excluded_minor": {**em, "bases": flipped}}
        yield {**cert, "recipe": recipe}


def rejected_at(cert: dict) -> str:
    """Where ``verify_certificate`` rejects ``cert``, with a record's index
    written ``k``, or ``accepted``."""
    try:
        verify_certificate(cert)
    except ReverifyFailed as exc:
        return re.sub(r"^minors\[\d+\]\.", "minors[k].", exc.location)
    return "accepted"


def main() -> int:
    bundle = construct(parse_presentation(U24_DOC))
    cert = certify(bundle)
    records = [(k, side) for k in range(len(cert["minors"])) for side in SIDES]
    failed = False
    for name, edits in (("deletions", arc_deletions), ("additions", arc_additions)):
        start = time.perf_counter()
        grades = sweep(cert, bundle.result, edits, records)
        elapsed = time.perf_counter() - start
        print(
            f"{name}: {sum(grades.values())} edits, {grades['accepted']} accepted, "
            f"{grades['rejected']} rejected, {grades['disagreeing']} disagreeing "
            f"({elapsed:.1f} s)"
        )
        failed |= grades["disagreeing"] > 0
    start = time.perf_counter()
    places = Counter(map(rejected_at, basis_flips(cert)))
    elapsed = time.perf_counter() - start
    where = ", ".join(f"{n} at {place}" for place, n in sorted(places.items()))
    print(f"r-set flips: {sum(places.values())} edits, {where} ({elapsed:.1f} s)")
    return 1 if failed or places["accepted"] else 0


if __name__ == "__main__":
    sys.exit(main())
