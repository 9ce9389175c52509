"""Certificate documents: writing, JSON schema, and re-verification.

A certificate is one JSON document, in memory as on disk: ``certify``
returns it, :func:`certificate_to_json` writes it, and
:func:`verify_certificate` reads it. It has exactly the top-level keys
``claims``, ``ingleton``, ``minors``, ``recipe``, and ``notes``. It
embeds the excluded minor as a basis family (rank tables are
reconstructed on verify) and one gammoid presentation per element and
side. Re-verification checks the axioms of the excluded minor alone,
enumerates every recorded presentation's linked sets from scratch
through the linkage engine, compares them with the independent sets of
the minor the record stands for, and re-runs the Ingleton and recipe
checks without re-running the construction.

Certificates are written by a small writer of their own that gives the
bytes of ``json.dumps(doc, indent=2)``: the standard library uses its C
encoder only without ``indent``, and the basis family is most of a
certificate.
"""

from __future__ import annotations

import reprlib
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from typing import Any

import numpy as np

from .digraph import Digraph, Presentation
from .errors import (
    AxiomViolation,
    GammoidError,
    GraphTooLarge,
    GroundSetTooLarge,
    ParseError,
    ReverifyFailed,
    TooLarge,
)
from .matroid import MAX_GROUND, Matroid

# a materialization may search the whole graph once per linked subset of
# the ground. The ground cap bounds the number of searches; these caps
# bound the cost of one search, to under 20 times its cost on a small
# graph presenting the same matroid (ROADMAP item 4). They
# leave room for inputs of a few hundred vertices: a certificate's
# records add 16 vertices and about 50 arcs to its input's.
MAX_VERTICES = 512
MAX_ARCS = 2048

_PRESENTATION_KEYS = ("vertices", "arcs", "ground", "targets")
_CERTIFICATE_KEYS = ("claims", "ingleton", "minors", "recipe", "notes")

# the claims a certificate records, in its order; construct establishes each
CLAIM_NAMES = (
    "branch_matroids_equal",
    "apex_contraction_restores_input",
    "gadget_circuit_families",
    "gadget_matroids_equal",
    "bypass_circuit_families",
    "relaxed_set_is_circuit_hyperplane",
    "input_minor_present",
    "ingleton_violated",
    "block_minors_gammoid",
    "side_minors_gammoid",
)


def _string_list(doc: Any, where: str) -> list[str]:
    if not isinstance(doc, list) or not all(isinstance(x, str) for x in doc):
        raise ParseError(f"{where} must be a list of strings")
    return doc


def check_graph_size(n_vertices: int, n_arcs: int, where: str = "") -> None:
    """Raise :class:`GraphTooLarge`, its message led by ``where`` if given,
    past :data:`MAX_VERTICES` or :data:`MAX_ARCS`."""
    lead = f"{where}: " if where else ""
    if n_vertices > MAX_VERTICES:
        raise GraphTooLarge(f"{lead}{n_vertices} vertices exceeds cap {MAX_VERTICES}")
    if n_arcs > MAX_ARCS:
        raise GraphTooLarge(f"{lead}{n_arcs} arcs exceeds cap {MAX_ARCS}")


def parse_presentation(doc: Any) -> Presentation:
    """Decode and validate one presentation document.

    Raises :class:`ParseError` on a malformed document,
    :class:`GraphTooLarge` past :data:`MAX_VERTICES` or :data:`MAX_ARCS`,
    and :class:`GroundSetTooLarge` past ``MAX_GROUND`` ground elements.
    """
    if not isinstance(doc, dict):
        raise ParseError("presentation must be a JSON object")
    if set(doc) != set(_PRESENTATION_KEYS):
        raise ParseError(
            f"presentation keys must be exactly {list(_PRESENTATION_KEYS)}, "
            f"got {sorted(doc)}"
        )
    vertices = _string_list(doc["vertices"], "vertices")
    ground = _string_list(doc["ground"], "ground")
    targets = _string_list(doc["targets"], "targets")
    if not isinstance(doc["arcs"], list):
        raise ParseError("arcs must be a list")
    check_graph_size(len(vertices), len(doc["arcs"]))
    arcs = []
    for entry in doc["arcs"]:
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or not all(isinstance(x, str) for x in entry)
        ):
            raise ParseError(f"arc {reprlib.repr(entry)} must be a pair of vertex labels")
        arcs.append((entry[0], entry[1]))
    if len(set(arcs)) != len(arcs):
        raise ParseError("duplicate arcs")  # Digraph would merge them silently
    try:
        # vertices, arc endpoints, ground and targets are checked here
        presentation = Presentation(Digraph(vertices, arcs), ground, targets)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    if not ground:
        raise ParseError("ground set must be nonempty")
    if len(ground) > MAX_GROUND:
        raise GroundSetTooLarge(f"{len(ground)} ground elements exceeds cap {MAX_GROUND}")
    return presentation


def _write(doc: Any, pad: str, out: list[str]) -> None:
    """Append ``doc`` as ``json.dumps(doc, indent=2)`` writes it, nested at ``pad``.

    Only the types a certificate holds are written: dict with string keys,
    list, str, int and bool. Anything else raises ``TypeError``.
    """
    if isinstance(doc, str):
        out.append(encode_basestring_ascii(doc))
    elif isinstance(doc, bool):
        out.append("true" if doc else "false")
    elif isinstance(doc, int):
        out.append(int.__repr__(doc))
    elif isinstance(doc, list):
        inner = pad + "  "
        sep = ",\n" + inner
        if not doc:
            out.append("[]")
        elif all(map(isinstance, doc, repeat(str))):
            out.append(f"[\n{inner}{sep.join(map(encode_basestring_ascii, doc))}\n{pad}]")
        elif all(map(isinstance, doc, repeat(list))) and all(doc) and all(
            map(isinstance, chain.from_iterable(doc), repeat(str))
        ):
            # nonempty lists of strings, such as the bases and the arcs: one join
            deeper = inner + "  "
            opening, closing = "[\n" + deeper, "\n" + inner + "]"
            rows = map((",\n" + deeper).join, map(map, repeat(encode_basestring_ascii), doc))
            out.append("[\n" + inner + opening)
            out.append((closing + sep + opening).join(rows))
            out.append(closing + "\n" + pad + "]")
        else:
            out.append("[\n" + inner)
            for k, item in enumerate(doc):
                if k:
                    out.append(sep)
                _write(item, inner, out)
            out.append("\n" + pad + "]")
    elif isinstance(doc, dict):
        inner = pad + "  "
        sep = ",\n" + inner
        if not doc:
            out.append("{}")
            return
        out.append("{\n" + inner)
        for k, (key, value) in enumerate(doc.items()):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            if k:
                out.append(sep)
            out.append(encode_basestring_ascii(key) + ": ")
            _write(value, inner, out)
        out.append("\n" + pad + "}")
    else:
        raise TypeError(f"Object of type {type(doc).__name__} is not JSON serializable")


def certificate_to_json(doc: dict) -> str:
    """The bytes of ``json.dumps(doc, indent=2)`` plus a newline, for the
    certificate document that ``certify`` returns.

    This only writes: ``certify`` has already refused a record past the
    graph caps that :func:`verify_certificate` enforces.
    """
    out: list[str] = []
    _write(doc, "", out)
    out.append("\n")
    return "".join(out)


def _check_certificate_schema(doc: Any) -> None:
    if not isinstance(doc, dict):
        raise ParseError("certificate must be a JSON object")
    if set(doc) != set(_CERTIFICATE_KEYS):
        raise ParseError(
            f"certificate keys must be exactly {list(_CERTIFICATE_KEYS)}, "
            f"got {sorted(doc)}"
        )
    claims = doc["claims"]
    if not isinstance(claims, dict) or set(claims) != set(CLAIM_NAMES):
        raise ParseError("claims must map exactly the known claim names")
    if not all(isinstance(v, bool) for v in claims.values()):
        raise ParseError("claim verdicts must be booleans")
    ing = doc["ingleton"]
    if not isinstance(ing, dict) or set(ing) != {"A", "B", "C", "D", "lhs", "rhs", "violated"}:
        raise ParseError("ingleton record has wrong keys")
    for key in "ABCD":
        _string_list(ing[key], f"ingleton.{key}")
    if not isinstance(ing["lhs"], int) or not isinstance(ing["rhs"], int):
        raise ParseError("ingleton sides must be integers")
    if not isinstance(ing["violated"], bool):
        raise ParseError("ingleton.violated must be a boolean")
    recipe = doc["recipe"]
    if not isinstance(recipe, dict) or set(recipe) != {
        "excluded_minor",
        "delete",
        "contract",
        "input",
    }:
        raise ParseError("recipe record has wrong keys")
    em = recipe["excluded_minor"]
    if not isinstance(em, dict) or set(em) != {"ground", "bases"}:
        raise ParseError("recipe.excluded_minor must carry ground and bases")
    ground = _string_list(em["ground"], "recipe.excluded_minor.ground")
    if not ground:
        raise ParseError("excluded minor ground set has a bad size")
    if len(ground) > MAX_GROUND:
        raise GroundSetTooLarge(
            f"recipe.excluded_minor.ground: {len(ground)} ground elements exceeds cap "
            f"{MAX_GROUND}"
        )
    bases = em["bases"]
    if not isinstance(bases, list) or not bases:
        raise ParseError("excluded minor must list at least one basis")
    if not all(map(isinstance, bases, repeat(list))) or not all(
        map(isinstance, chain.from_iterable(bases), repeat(str))
    ):
        raise ParseError("recipe.excluded_minor.bases[] must be a list of strings")
    _string_list(recipe["delete"], "recipe.delete")
    _string_list(recipe["contract"], "recipe.contract")
    inp = recipe["input"]
    if not isinstance(inp, dict) or set(inp) != {"presentation", "bases"}:
        raise ParseError("recipe.input must carry presentation and bases")
    if not isinstance(inp["bases"], list):
        raise ParseError("recipe.input.bases must be a list")
    if not isinstance(doc["minors"], list):
        raise ParseError("minors must be a list")
    for k, entry in enumerate(doc["minors"]):
        if not isinstance(entry, dict) or set(entry) != {"x", "deletion", "contraction"}:
            raise ParseError(f"minors[{k}] has wrong keys")
        if not isinstance(entry["x"], str):
            raise ParseError(f"minors[{k}].x must be a string")
        for side in ("deletion", "contraction"):
            rec = entry[side]
            if not isinstance(rec, dict) or set(rec) != {"presentation", "verified"}:
                raise ParseError(f"minors[{k}].{side} has wrong keys")
            if not isinstance(rec["verified"], bool):
                raise ParseError(f"minors[{k}].{side}.verified must be a boolean")
    if not isinstance(doc["notes"], list) or not all(
        isinstance(x, str) for x in doc["notes"]
    ):
        raise ParseError("notes must be a list of strings")


def _excluded_minor(em: dict) -> Matroid:
    """Decode the excluded minor, whose bases must be listed as ``to_doc`` lists them."""
    ground = tuple(em["ground"])
    if len(set(ground)) != len(ground):
        raise ReverifyFailed("recipe.excluded_minor.ground", "duplicate ground labels")
    try:
        indices, masks = Matroid._read_bases(ground, em["bases"])
        m = Matroid._from_basis_masks(ground, masks)
    except (AxiomViolation, ValueError) as exc:
        raise ReverifyFailed("recipe.excluded_minor.bases", str(exc)) from None
    # label indices strictly increase within each basis (a marker, len(ground),
    # opens each one), and the masks are the bases in ascending order
    n = len(ground)
    inner = (indices[:-1] != n) & (indices[1:] != n)
    if np.any(indices[1:][inner] <= indices[:-1][inner]) or not np.array_equal(
        masks, m._basis_mask_array()
    ):
        raise ReverifyFailed(
            "recipe.excluded_minor.bases", "basis family is not in canonical form"
        )
    return m


def verify_certificate(doc: Any) -> None:
    """Re-validate a certificate document from scratch.

    Raises :class:`ParseError` on schema problems and
    :class:`ReverifyFailed` (with a location) on the first check that
    fails. Success means the linked sets of every recorded presentation
    are the independent sets of the claimed minor and every recorded
    quantity recomputes.
    """
    _check_certificate_schema(doc)
    for name, verdict in doc["claims"].items():
        if verdict is not True:
            raise ReverifyFailed(f"claims.{name}", "certificate is not complete")

    m = _excluded_minor(doc["recipe"]["excluded_minor"])

    ing = doc["ingleton"]
    try:
        check = m.ingleton_check(ing["A"], ing["B"], ing["C"], ing["D"])
    except ValueError as exc:
        raise ReverifyFailed("ingleton", str(exc)) from None
    if check.lhs != ing["lhs"] or check.rhs != ing["rhs"] or check.holds == ing["violated"]:
        raise ReverifyFailed(
            "ingleton",
            f"recomputed {check.lhs} vs {check.rhs}, recorded "
            f"{ing['lhs']} vs {ing['rhs']}",
        )
    if not ing["violated"]:
        raise ReverifyFailed("ingleton", "certificate does not record a violation")

    recorded = [entry["x"] for entry in doc["minors"]]
    if recorded != list(m.ground):
        raise ReverifyFailed("minors", "element list does not match the ground set")
    for k, entry in enumerate(doc["minors"]):
        x = entry["x"]
        for side, minor in (("deletion", m.delete([x])), ("contraction", m.contract([x]))):
            where = f"minors[{k}].{side}"
            rec = entry[side]
            if rec["verified"] is not True:
                raise ReverifyFailed(where, "record is marked unverified")
            try:
                presents = parse_presentation(rec["presentation"]).presents(minor)
            except TooLarge as exc:
                raise type(exc)(f"{where}: {exc}") from None
            except (GammoidError, ValueError) as exc:
                raise ReverifyFailed(where, f"presentation invalid: {exc}") from None
            if not presents:
                raise ReverifyFailed(where, "presentation does not present the minor")

    recipe = doc["recipe"]
    labels = set(m.ground)
    dels, cons = recipe["delete"], recipe["contract"]
    if not set(dels) <= labels or not set(cons) <= labels or set(dels) & set(cons):
        raise ReverifyFailed("recipe", "delete/contract lists are not disjoint subsets")
    try:
        input_matroid = parse_presentation(recipe["input"]["presentation"]).matroid
    except TooLarge as exc:
        raise type(exc)(f"recipe.input.presentation: {exc}") from None
    except (GammoidError, ValueError) as exc:
        raise ReverifyFailed("recipe.input.presentation", str(exc)) from None
    if not m.delete(dels).contract(cons).equals(input_matroid):
        raise ReverifyFailed("recipe", "recipe does not recover the input matroid")
    if input_matroid.to_doc()["bases"] != recipe["input"]["bases"]:
        raise ReverifyFailed("recipe.input.bases", "input basis family does not match")
