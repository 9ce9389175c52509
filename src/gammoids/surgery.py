"""Surgeries on gammoid presentations.

Each operation checks its input (membership, label collisions, the
basis it is given) and builds a new presentation. It does not check that
the presented matroid satisfies the operation's defining identity: that
is checked where a presentation enters the certificate, in
:mod:`gammoids.construction`, by ``construct``'s claims and recipe check
and by ``certify``'s comparison of each record with the table-level
minor. So no operation materializes its result; ``retarget``,
``contract_any``, ``free_extension`` with targets outside the ground
set and ``two_bases_embedding`` read the input's matroid.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import digraph
from .digraph import Digraph, Presentation, dual_transversal_parts, kuhn_matching
from .errors import (
    GroundSetTooLarge,
    IsLoop,
    LabelCollision,
    NotABasis,
    NotInGround,
    NotInSAndT,
    PreconditionViolated,
    RetargetFailed,
)
from .matroid import MAX_GROUND


def contract_target(p: Presentation, t: str) -> Presentation:
    """Contract an element that is also a target.

    Removing the vertex from the graph, the ground set, and the targets
    presents the contraction.
    """
    if t not in p.ground or t not in p.targets:
        raise NotInSAndT(f"{t!r} must be both a ground element and a target")
    return Presentation(
        p.graph.without_vertex(t),
        tuple(g for g in p.ground if g != t),
        tuple(x for x in p.targets if x != t),
    )


def delete_element(p: Presentation, x: str) -> Presentation:
    """Delete a ground element: drop it from the ground set only.

    Exact by definition of restriction.
    """
    if x not in p.ground:
        raise NotInGround(f"{x!r} is not a ground element")
    return p.with_ground(tuple(g for g in p.ground if g != x))


def retarget(p: Presentation, basis) -> Presentation:
    """Re-present the same matroid with the given basis as the target set.

    Works on the strict lift: extend the basis to a basis of the full
    vertex matroid, rebuild a presentation with that target set from the
    transversal system dual to the lift, then drop the extension vertices
    and restrict back to the ground set. A failed extension or matching
    raises :class:`RetargetFailed` rather than guessing.
    """
    basis = tuple(basis)
    bset = set(basis)
    if not bset <= set(p.ground) or not p.matroid.is_basis(basis):
        raise NotABasis(f"{sorted(basis)} is not a basis inside the ground set")
    if bset == set(p.targets):
        return p

    graph = p.graph
    verts = graph.vertices
    idx = graph.index
    targets = p.targets

    # extend to a basis of the strict lift on one network, greedily in
    # vertex order; its rank is |T| (each target is its own one-vertex
    # path), and the basis spans the ground set, so extensions avoid it
    extension: set[str] = set()
    if len(bset) < len(targets):
        net = digraph._FlowNetwork(graph, targets)
        order = sorted(map(idx.__getitem__, bset))
        order += [i for i, v in enumerate(verts) if v not in bset]
        routed = net.route(net.fresh(), order)
        if len(routed) != len(targets):
            raise RetargetFailed("could not extend the basis through the strict lift")
        extension = {verts[i] for i in routed[len(bset):]}
    tp = bset | extension

    # the lift's dual is a transversal system; each vertex outside the new
    # targets takes arcs to the rest of the part it is matched into
    parts = dual_transversal_parts(graph, targets)
    tails = [v for v in verts if v not in tp]
    owners = kuhn_matching(tails, parts)
    if owners is None:
        raise RetargetFailed("dual transversal system admitted no full matching")
    # no arc leaves an extension vertex (tails are matched); drop arcs into one
    arcs = [
        (b, u) for b, part in zip(owners, parts) if b is not None for u in part - {b} - extension
    ]
    rebuilt = Digraph([v for v in verts if v not in extension], arcs)

    return Presentation(
        rebuilt,
        p.ground,
        tuple(g for g in p.ground if g in bset),
    )


def contract_any(p: Presentation, x: str) -> Presentation:
    """Contract an arbitrary non-loop element.

    Routes through a greedy basis containing the element: retarget so the
    basis is the target set, then contract the element as a target.
    """
    if x not in p.ground:
        raise NotInGround(f"{x!r} is not a ground element")
    m = p.matroid
    if m.is_loop(x):
        raise IsLoop(f"{x!r} is a loop; delete it instead of contracting")
    basis = m.greedy_basis(containing=(x,))
    return contract_target(retarget(p, basis), x)


def free_extension(p: Presentation, x: str) -> Presentation:
    """Add a new element in generic position (rank preserved).

    Requires the target set to be a basis of the presented matroid; the
    new vertex gets one arc to every target. Targets inside the ground set
    always form a basis: each is its own one-vertex path, and no linking
    is larger than the target set. Targets outside it must number the rank.
    """
    if x in p.graph.index:
        raise LabelCollision(f"{x!r} already names a vertex")
    tset = set(p.targets)
    gset = set(p.ground)
    if not (tset <= gset or tset.isdisjoint(gset)):
        raise PreconditionViolated("targets must lie inside or outside the ground set")
    if not tset <= gset and len(p.targets) != p.matroid.rank:
        raise PreconditionViolated("target count must equal the rank")
    graph = p.graph.extended([x], [(x, t) for t in p.targets])
    return Presentation(graph, p.ground + (x,), p.targets)


def add_coloop(p: Presentation, x: str) -> Presentation:
    """Add a new element as a coloop via a private target vertex."""
    if x in p.graph.index:
        raise LabelCollision(f"{x!r} already names a vertex")
    star = "tstar"
    if star in p.graph.index or star == x:
        raise LabelCollision(f"{star!r} already names a vertex")
    graph = p.graph.extended([x, star], [(x, star)])
    return Presentation(graph, p.ground + (x,), p.targets + (star,))


@dataclass(frozen=True)
class TwoBasesEmbedding:
    """Result of embedding a gammoid into one whose ground splits into two bases."""

    presentation: Presentation
    basis_one: tuple[str, ...]
    basis_two: tuple[str, ...]
    delete_back: tuple[str, ...]
    contract_back: tuple[str, ...]


def two_bases_embedding(p: Presentation) -> TwoBasesEmbedding:
    """Embed the presented matroid into one partitioned into two bases.

    Requires the target set to be a basis inside the ground set. For each
    non-target element outside a greedy maximum independent set, a private
    target ``t#k`` is attached; ``u#k`` vertices with arcs onto every
    target pad the second basis to full rank. The input is recovered by
    deleting the ``u#k`` and contracting the ``t#k``. ``construct``
    checks that recovery; ``retarget`` checks each basis it is given.
    """
    m = p.matroid
    tset = set(p.targets)
    if not tset <= set(p.ground) or not m.is_basis(p.targets):
        raise PreconditionViolated("targets must form a basis inside the ground set")
    rest = [g for g in p.ground if g not in tset]
    independent = m.greedy_max_independent(within=rest)
    iset = set(independent)
    attached = [g for g in rest if g not in iset]
    pad = len(p.targets) - len(independent)
    t_labels = tuple(f"t#{k + 1}" for k in range(len(attached)))
    u_labels = tuple(f"u#{k + 1}" for k in range(pad))
    for label in t_labels + u_labels:
        if label in p.graph.index:
            raise LabelCollision(f"{label!r} already names a vertex")
    if len(p.ground) + len(t_labels) + len(u_labels) > MAX_GROUND:
        raise GroundSetTooLarge("embedded ground set would exceed the cap")

    arcs = [(v, t) for v, t in zip(attached, t_labels)]
    arcs += [(u, t) for u in u_labels for t in p.targets]
    graph = p.graph.extended(t_labels + u_labels, arcs)
    result = Presentation(
        graph, p.ground + t_labels + u_labels, p.targets + t_labels
    )
    basis_one = tuple(g for g in result.ground if g in tset or g in set(attached))
    basis_two = tuple(
        g for g in result.ground if g in iset or g in set(t_labels) or g in set(u_labels)
    )
    # the counting identity behind the second basis
    assert len(independent) + len(attached) + pad == len(basis_two) == len(basis_one)
    return TwoBasesEmbedding(result, basis_one, basis_two, u_labels, t_labels)
