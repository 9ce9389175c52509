"""The excluded-minor construction pipeline.

Starting from any gammoid presentation, the pipeline normalizes the input
so its ground set splits into two disjoint bases, grows a gadget around
it in two symmetric branches, relaxes a circuit-hyperplane, and certifies
the result: the relaxed matroid violates a rank inequality that every
gammoid satisfies, it contains the input as a minor, and every
single-element deletion and contraction comes with an explicitly verified
gammoid presentation. Every claim is checked by exhaustive enumeration;
nothing is taken on faith from the construction itself.

This module is where identities are checked. The surgeries only check
their inputs and build presentations. ``construct`` checks what they
built through its claims and its recipe check, and no rank axiom: a
linkage table is a matroid (Mason 1972), and so is the relaxation of a
circuit-hyperplane of a matroid (Oxley, *Matroid Theory*, 1.5), which
``relax`` tests exactly. Each fact is checked once: the gadget circuit
families on branch 1's gadget alone, since a claim proves branch 2's
gadget matroid equal to it, which also makes the apexed matroids, the
gadgets minus C + D, equal; and the Ingleton violation by the ten ranks
that fix both of its sides. ``certify`` compares each record with the
table-level minor it stands for, by one rule. A failed check raises, so
``certify`` returns a certificate only when every check has held.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from itertools import combinations

from .certificate import CLAIM_NAMES, check_graph_size
from .digraph import Digraph, Presentation
from .errors import ClaimFailed, LabelCollision, NotACircuitHyperplane, TooLarge
from .matroid import MAX_GROUND, IngletonCheck, Matroid
from .surgery import (
    TwoBasesEmbedding,
    contract_any,
    delete_element,
    free_extension,
    retarget,
    two_bases_embedding,
)

APEXES = ("v#1", "v#2")


@dataclass(frozen=True)
class Branch:
    """One symmetric half of the construction, keyed 1 or 2 in ``Bundle.branches``.

    Each stage is a presentation; its table is that presentation's cached
    ``matroid``, which ``construct`` materializes while it checks its claims.
    The branch's apexed matroid is its gadget matroid minus C + D.
    """

    gadget: Presentation           # apexed input, blocks C and D, collectors, exit
    bypass: Presentation           # gadget plus arcs from block C to the far apex


@dataclass(frozen=True)
class Bundle:
    """Everything the pipeline builds.

    The input's table is ``source.matroid`` and the normalized input's is
    ``normalized.presentation.matroid``. ``core``, ``gadget`` and ``result``
    name the common values that the claims establish.
    """

    source: Presentation
    normalized: TwoBasesEmbedding
    s1: tuple[str, ...]
    s2: tuple[str, ...]
    r: int
    block_c: tuple[str, ...]
    block_d: tuple[str, ...]
    branches: dict[int, Branch]
    core: Matroid                  # the gadget minus C + D: the apexed matroid
    gadget: Matroid                # common value of the two gadget matroids
    result: Matroid                # the excluded minor
    ingleton: IngletonCheck
    ingleton_witness: dict[str, tuple[str, ...]]
    recipe_delete: tuple[str, ...]
    recipe_contract: tuple[str, ...]

    @property
    def relaxed_set(self) -> tuple[str, ...]:
        return self.block_c + self.block_d


def normalize(p: Presentation) -> TwoBasesEmbedding:
    """Retarget to a greedy basis, then embed into a two-bases gammoid."""
    if not p.ground:
        raise ValueError("cannot normalize an empty ground set")
    return two_bases_embedding(retarget(p, p.matroid.greedy_basis()))


def _build_gadget(
    rebased: Presentation,
    s_own: tuple[str, ...],
    s_far: tuple[str, ...],
    block_c: tuple[str, ...],
    block_d: tuple[str, ...],
    i: int,
) -> Presentation:
    """Build this branch's gadget in one graph.

    The copy of ``rebased`` renames this side's basis to primed copies, the
    targets; the basis comes back as new sources beside the apexes, blocks
    C and D, their collectors and the exit. The gadget matroid minus C + D
    is exactly the apexed matroid: the arcs added for the blocks leave a
    block or a collector, and only those reach the exit.
    """
    primes = {x: x + "'" for x in s_own}
    copies = tuple(primes.values())
    exit_v, collect_c, collect_d = f"w#{i}", f"c#{i}", f"d#{i}"
    new = (exit_v, collect_c, collect_d) + block_c + block_d
    # before renaming, which would hide an input vertex named like an apex
    for label in APEXES + copies + new:
        if label in rebased.graph.index:
            raise LabelCollision(f"fresh label {label!r} already names a vertex")
    ren = lambda x: primes.get(x, x)  # noqa: E731
    v_own, v_far = APEXES[i - 1], APEXES[2 - i]
    arcs = [(ren(u), ren(v)) for u, v in rebased.graph.arcs]
    arcs += [(x, primes[x]) for x in s_own]
    arcs += [(x, v_own) for x in s_own]
    arcs += [(y, v_far) for y in s_far]
    arcs += [
        (collect_c, exit_v),
        (collect_c, v_far),
        (collect_d, exit_v),
        (collect_d, v_own),
    ]
    for block, collector in ((block_c, collect_c), (block_d, collect_d)):
        for x in block:
            arcs.append((x, collector))
            arcs += [(x, t) for t in copies]
    return Presentation(
        Digraph(tuple(map(ren, rebased.graph.vertices)) + s_own + APEXES + new, arcs),
        rebased.ground + APEXES + block_c + block_d,
        copies + APEXES + (exit_v,),
    )


def _build_bypass(gadget: Presentation, block_c: tuple[str, ...], i: int) -> Presentation:
    v_far = APEXES[2 - i]
    graph = gadget.graph.extended((), [(x, v_far) for x in block_c])
    return Presentation(graph, gadget.ground, gadget.targets)


def _check_circuit_families(m: Matroid, families, block, claim: str) -> None:
    """Both directions: circuits meeting the block are exactly the family subsets."""
    expected = {m.mask_of(c) for family in families for c in combinations(family, m.rank)}
    block_mask = m.mask_of(block)
    actual = {c for c in m.nonspanning_circuit_masks() if c & block_mask}
    if expected != actual:
        extra = sorted(actual - expected)
        missing = sorted(expected - actual)
        raise ClaimFailed(
            claim,
            f"{len(extra)} unexpected and {len(missing)} missing circuits; "
            f"first offender {m.labels_of((extra + missing)[0])}",
        )


def construct(p: Presentation, *, max_elements: int = MAX_GROUND) -> Bundle:
    """Run the construction and verify every structural claim.

    Raises :class:`TooLarge` if the final ground set would exceed the cap
    and :class:`ClaimFailed` if any exhaustive check fails.
    """
    input_matroid = p.matroid
    # the normalized rank, read off the input before anything larger is
    # built: normalize keeps the greedy basis B and attaches one target per
    # element of E - B outside a maximum independent subset of it
    basis = set(input_matroid.greedy_basis())
    r = len(p.ground) - input_matroid.rank_of(g for g in p.ground if g not in basis)
    total = 3 * r + 5
    cap = min(max_elements, MAX_GROUND)
    if total > cap:
        raise TooLarge(
            f"result would have {total} elements (rank {r} input); cap is {cap}"
        )
    norm = normalize(p)
    s1, s2 = norm.basis_one, norm.basis_two
    assert len(s1) == r, "normalized rank differs from its prediction"

    block_c = ("C#1", "C#2")
    block_d = tuple(f"D#{k + 1}" for k in range(r + 1))
    relaxed_set = block_c + block_d

    # the fans: each side's basis and apex, with block C or with block D
    c1, d1 = s1 + block_c + (APEXES[0],), s1 + block_d + (APEXES[0],)
    c2, d2 = s2 + block_c + (APEXES[1],), s2 + block_d + (APEXES[1],)

    branches: dict[int, Branch] = {}
    for i, s_own, s_far in ((1, s1, s2), (2, s2, s1)):
        rebased = retarget(norm.presentation, s_own)
        gadget_pres = _build_gadget(rebased, s_own, s_far, block_c, block_d, i)
        branches[i] = Branch(gadget_pres, _build_bypass(gadget_pres, block_c, i))

    # branch_matroids_equal is implied by gadget_matroids_equal below: each
    # apexed matroid is its gadget matroid minus C + D
    core = branches[1].gadget.matroid.delete(relaxed_set)

    if not core.contract(APEXES).equals(norm.presentation.matroid):
        raise ClaimFailed(
            "apex_contraction_restores_input", "contracting both apexes lost the input"
        )

    # checked on branch 1 alone: branch 2's gadget must show the same five
    # families, and the next claim makes its matroid this one
    gadget = branches[1].gadget.matroid
    _check_circuit_families(
        gadget, (relaxed_set, c1, d1, c2, d2), relaxed_set, "gadget_circuit_families"
    )

    if not gadget.equals(branches[2].gadget.matroid):
        raise ClaimFailed("gadget_matroids_equal", "the two gadget matroids differ")

    # a bypass shows the far side's fans and its own side's fan with D
    for i, families in ((1, (c2, d1, d2)), (2, (c1, d2, d1))):
        _check_circuit_families(
            branches[i].bypass.matroid, families, relaxed_set, "bypass_circuit_families"
        )

    try:
        result = gadget.relax(relaxed_set)
    except NotACircuitHyperplane:
        raise ClaimFailed(
            "relaxed_set_is_circuit_hyperplane",
            "the union of the blocks is not a circuit-hyperplane",
        ) from None

    witness = {"A": s1 + APEXES[:1], "B": s2 + APEXES[1:], "C": block_c, "D": block_d}
    check = result.ingleton_check(*(witness[z] for z in "ABCD"))
    # these ten ranks fix both sides of the inequality: 5r + 11 against 5r + 10
    ranks = {"A": r + 1, "B": r + 1, "ABC": r + 3, "ABD": r + 3, "CD": r + 3}
    ranks.update(dict.fromkeys(("AB", "AC", "AD", "BC", "BD"), r + 2))
    if any(
        result.rank_of(x for z in key for x in witness[z]) != rank for key, rank in ranks.items()
    ):
        raise ClaimFailed(
            "ingleton_violated", f"expected {5 * r + 11} > {5 * r + 10}, got {check}"
        )

    # result minus C + D is core: relaxing changes only the rank of C + D.
    # This is the one check of the retargeting in normalize
    recipe_delete = relaxed_set + norm.delete_back
    recipe_contract = APEXES + norm.contract_back
    if not result.delete(recipe_delete).contract(recipe_contract).equals(input_matroid):
        raise ClaimFailed("input_minor_present", "the recipe does not recover the input")

    return Bundle(
        source=p,
        normalized=norm,
        s1=s1,
        s2=s2,
        r=r,
        block_c=block_c,
        block_d=block_d,
        branches=branches,
        core=core,
        gadget=gadget,
        result=result,
        ingleton=check,
        ingleton_witness=witness,
        recipe_delete=recipe_delete,
        recipe_contract=recipe_contract,
    )


def _block_deletion(gadget: Presentation, x: str) -> Presentation:
    """Present the deletion of a block element by removing its vertex."""
    return Presentation(
        gadget.graph.without_vertex(x),
        tuple(g for g in gadget.ground if g != x),
        gadget.targets,
    )


def _certify_element(
    bundle: Bundle, block_deleted: dict[str, Presentation], k: int, x: str
) -> dict:
    """The record of x, the result's k-th element: presentations of its
    deletion and contraction, each within the graph caps and verified.

    Each side is checked as soon as it is built, the deletion first, by
    the rule ``certify`` states: the one check of the surgeries that built it.
    """
    m = bundle.result
    record = {"x": x}

    def check(side, pres, minor, known=None):
        check_graph_size(len(pres.graph.vertices), len(pres.graph.arcs), f"minors[{k}].{side}")
        if not (known.equals(minor) if known else pres.presents(minor)):
            raise ClaimFailed(claim, f"{side} presentation at {x!r} did not verify")
        record[side] = {"presentation": pres.to_doc(), "verified": True}

    if x in bundle.relaxed_set:
        claim = "block_minors_gammoid"
        first = x in block_deleted
        deletion = block_deleted[x] if first else _block_deletion(bundle.branches[1].gadget, x)
        check("deletion", deletion, m.delete([x]), first and deletion.matroid)
        y = (bundle.block_d if x in bundle.block_c else bundle.block_c)[0]
        # contraction presents (M\y)/x = (M/x)\y. A coloop of M/x is a coloop
        # of M, and y is none: y lies in the relaxed circuit-hyperplane H, and
        # H - y plus any element outside H is a basis of M that misses y. So
        # y always comes back as a free extension.
        contraction = free_extension(contract_any(block_deleted[y], x), y)
    else:
        claim = "side_minors_gammoid"
        branch = bundle.branches[1 if x in bundle.s1 or x == APEXES[0] else 2]
        bypass = branch.bypass
        deletion = delete_element(bypass, x)
        # tested on the record itself: any other record is enumerated
        restricted = deletion == bypass.with_ground(g for g in bypass.ground if g != x)
        check("deletion", deletion, m.delete([x]), restricted and bypass.matroid.delete([x]))
        contraction = contract_any(branch.gadget, x)
    check("contraction", contraction, m.contract([x]))
    return record


def certify(bundle: Bundle, *, jobs: int = 1) -> dict:
    """Certify every element of the result and return the certificate document.

    The document is the JSON object that ``certificate_to_json`` writes
    and ``verify_certificate`` reads: the keys ``claims``,
    ``ingleton``, ``minors``, ``recipe`` and ``notes``, in that order.
    Every claim and every record reads true, since a failed check raises.

    Before any record, the deletions of the first element of each block
    are built and materialized, as ``contract_any`` reads their tables.
    Then each record side is checked as soon as it is built, the deletion
    before the contraction: held to the caps that ``verify_certificate``
    enforces, then compared with its minor of the result, by table for
    those two deletions and for a side deletion that is its bypass
    restricted away from its element, and by its linked sets otherwise.
    Past a cap, :class:`GraphTooLarge` names the record, as in
    ``minors[k].deletion: ...``; a mismatch raises :class:`ClaimFailed`.
    Branch 1's gadget presentation backs the records for the block
    elements; the structural claims cover both branches.
    With ``jobs`` above 1 the records are built on a pool of at most one
    thread per CPU and per result element; the C kernel releases the GIL
    while it enumerates. Records keep element order and the first failure
    in that order is raised, so output and errors are independent of
    ``jobs``. Workers read only tables materialized before the pool
    starts: ``functools.cached_property`` holds one lock per property
    across all instances (Python 3.11), so an enumeration inside
    ``Presentation.matroid`` would serialize the workers.
    """
    m = bundle.result

    firsts = (bundle.block_c[0], bundle.block_d[0])
    block_deleted = {y: _block_deletion(bundle.branches[1].gadget, y) for y in firsts}
    for pres in block_deleted.values():
        pres.matroid  # contract_any reads these tables

    certify_one = partial(_certify_element, bundle, block_deleted)
    elements = list(m.ground)
    workers = min(jobs, os.cpu_count() or 1, len(elements))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(certify_one, range(len(elements)), elements))
    else:
        records = list(map(certify_one, range(len(elements)), elements))

    witness = bundle.ingleton_witness
    return {
        "claims": dict.fromkeys(CLAIM_NAMES, True),
        "ingleton": {
            **{key: list(witness[key]) for key in "ABCD"},
            "lhs": bundle.ingleton.lhs,
            "rhs": bundle.ingleton.rhs,
            "violated": not bundle.ingleton.holds,
        },
        "minors": records,
        "recipe": {
            "excluded_minor": m.to_doc(),
            "delete": list(bundle.recipe_delete),
            "contract": list(bundle.recipe_contract),
            "input": {
                "presentation": bundle.source.to_doc(),
                "bases": bundle.source.matroid.to_doc()["bases"],
            },
        },
        "notes": [
            f"rank {bundle.r} input; result has {m.size} elements of rank {m.rank}",
            "branch 1 presentations back the block element records",
            "side deletions are checked against the bypass matroid of the element's "
            "own branch, whose fan circuit families run through that branch's far apex",
            "the result admits no linkage presentation: it violates the rank "
            "inequality recorded under 'ingleton', which every linkage matroid "
            "satisfies",
        ],
    }
