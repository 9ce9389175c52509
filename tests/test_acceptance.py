"""Acceptance suite: one test per criterion, each printing a verdict line."""

import copy
import json
import random
from itertools import combinations

from click.testing import CliRunner

from conftest import complete, uniform
from gammoids import parse_presentation
from gammoids.certificate import verify_certificate
from gammoids.cli import main
from gammoids.construction import APEXES
from gammoids.corpus import random_digraph, random_presentation, random_vertex_subset
from gammoids.digraph import (
    Presentation,
    brute_force_linking_oracle,
    linkage_matroid,
    max_linking,
    transversal_duality_check,
)
from gammoids.errors import ReverifyFailed
from gammoids.surgery import (
    contract_any,
    contract_target,
    delete_element,
    free_extension,
    retarget,
    two_bases_embedding,
)


def verdict(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number}: PASS  {text}")


def expected_family_masks(m, families, size):
    out = set()
    for family in families:
        if len(family) >= size:
            out.update(m.mask_of(c) for c in combinations(sorted(family), size))
    return out


def block_circuits(m, block):
    mask = m.mask_of(block)
    return {c for c in m.nonspanning_circuit_masks() if c & mask}


def test_criterion_1_end_to_end_r2(u24_run):
    bundle, cert, elapsed = u24_run
    assert bundle.r == 2
    assert bundle.result.size == 11
    assert bundle.result.rank == 5
    assert bundle.ingleton.lhs == 21 and bundle.ingleton.rhs == 20
    assert not bundle.ingleton.holds
    assert len(cert["minors"]) == 11
    assert all(r[side]["verified"] for r in cert["minors"] for side in ("deletion", "contraction"))
    assert complete(cert)
    recovered = bundle.result.delete(bundle.relaxed_set).contract(APEXES)
    assert recovered.equals(uniform("abcd", 2))
    assert elapsed < 10.0
    verdict(1, f"r=2: 11 elements, rank 5, 21 > 20, 22 minors verified in {elapsed:.2f}s")


def test_criterion_2_end_to_end_r3(r3_run):
    bundle, cert, elapsed = r3_run
    assert bundle.r == 3
    assert bundle.result.size == 14
    assert bundle.result.rank == 6
    assert bundle.ingleton.lhs == 26 and bundle.ingleton.rhs == 25
    assert not bundle.ingleton.holds
    assert complete(cert) and len(cert["minors"]) == 14
    assert elapsed < 120.0
    verdict(2, f"r=3: 14 elements, rank 6, 26 > 25, 28 minors verified in {elapsed:.2f}s")


def test_criterion_3_circuit_family_characterizations(u24_run, r3_run):
    total = 0
    for bundle, _, _ in (u24_run, r3_run):
        c, d = bundle.block_c, bundle.block_d
        block = c + d
        size = bundle.r + 3
        for i, s_own, s_far in ((1, bundle.s1, bundle.s2), (2, bundle.s2, bundle.s1)):
            v_own, v_far = APEXES[i - 1], APEXES[2 - i]
            gm = bundle.branches[i].gadget.matroid
            gadget_families = [
                block,
                s_own + c + (v_own,),
                s_own + d + (v_own,),
                s_far + c + (v_far,),
                s_far + d + (v_far,),
            ]
            assert expected_family_masks(gm, gadget_families, size) == block_circuits(
                gm, block
            )
            bm = bundle.branches[i].bypass.matroid
            bypass_families = [
                s_far + c + (v_far,),
                s_own + d + (v_own,),
                s_far + d + (v_far,),
            ]
            assert expected_family_masks(bm, bypass_families, size) == block_circuits(
                bm, block
            )
            total += 2
    verdict(3, f"{total} circuit-family characterizations hold in both directions")


def test_criterion_4_linkage_engine_vs_brute_force():
    rng = random.Random(0xACCE55)
    for _ in range(500):
        g = random_digraph(rng, 8)
        xs = random_vertex_subset(rng, g)
        ts = random_vertex_subset(rng, g)
        assert max_linking(g, xs, ts).size == brute_force_linking_oracle(g, xs, ts)
    verdict(4, "500 random digraphs: flow engine agrees with the brute-force oracle")


def test_criterion_5_axiom_suite(u24_run, r3_run):
    checked = 0
    for bundle, _, _ in (u24_run, r3_run):
        for m in (
            bundle.source.matroid,
            bundle.normalized.presentation.matroid,
            bundle.core,
            bundle.gadget,
            bundle.result,
            bundle.branches[1].bypass.matroid,
            bundle.branches[2].bypass.matroid,
        ):
            m.verify_axioms()
            checked += 1
    rng = random.Random(0xA10)
    for _ in range(200):
        p = random_presentation(rng, 8)
        linkage_matroid(p).verify_axioms()
        checked += 1
    verdict(5, f"{checked} materialized matroids pass rank-axiom verification")


def test_criterion_6_surgery_identities():
    rng = random.Random(0x5C1)
    ops = 0
    for _ in range(200):
        p = random_presentation(rng, 8)
        m = p.matroid
        basis = m.greedy_basis()
        rebased = retarget(p, basis)
        assert rebased.matroid.equals(m)
        ops += 1

        if basis:
            t = basis[0]
            assert contract_target(rebased, t).matroid.equals(m.contract([t]))
            ops += 1

        x = p.ground[rng.randrange(len(p.ground))]
        assert delete_element(p, x).matroid.equals(m.delete([x]))
        ops += 1

        non_loops = [e for e in p.ground if not m.is_loop(e)]
        if non_loops:
            x = rng.choice(non_loops)
            assert contract_any(p, x).matroid.equals(m.contract([x]))
            ops += 1

        extended = free_extension(rebased, "fx")
        assert extended.matroid.delete(["fx"]).equals(m)
        assert extended.matroid.is_freely_placed("fx")
        ops += 1

        emb = two_bases_embedding(rebased)
        em = emb.presentation.matroid
        assert em.is_basis(emb.basis_one) and em.is_basis(emb.basis_two)
        recovered = emb.presentation
        for u in emb.delete_back:
            recovered = delete_element(recovered, u)
        for t in emb.contract_back:
            recovered = contract_target(recovered, t)
        assert recovered.matroid.equals(m)
        ops += 1
    verdict(6, f"{ops} surgery identities verified with zero mismatches")


def test_criterion_7_duality_cross_check():
    rng = random.Random(0xD0A1)
    for _ in range(100):
        p = random_presentation(rng, 6, strict=True)
        assert transversal_duality_check(p)
    verdict(7, "100 random strict presentations pass the transversal duality check")


def test_criterion_8_relaxation_contract(u24_run, r3_run):
    for bundle, _, _ in (u24_run, r3_run):
        block = bundle.relaxed_set
        assert set(bundle.result.basis_masks()) == set(
            bundle.gadget.basis_masks()
        ) | {bundle.gadget.mask_of(block)}
        assert bundle.result.delete(block).equals(bundle.gadget.delete(block))
    verdict(8, "bases(M) = bases(M') + relaxed set; deletions of the block agree")


def _mutations():
    """50 deterministic single-field mutations of the u24 certificate.

    Each entry is (name, location, mutate): verify must reject the mutated
    document with :class:`ReverifyFailed` at ``location``.
    """
    muts = []

    def claim_flip(name):
        return lambda doc: doc["claims"].__setitem__(name, False)

    for name in (
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
    ):
        muts.append((f"claims.{name}", f"claims.{name}", claim_flip(name)))

    def ing(field, delta):
        return lambda doc: doc["ingleton"].__setitem__(
            field, doc["ingleton"][field] + delta
        )

    muts += [
        ("ingleton.lhs+1", "ingleton", ing("lhs", 1)),
        ("ingleton.lhs-1", "ingleton", ing("lhs", -1)),
        ("ingleton.rhs+1", "ingleton", ing("rhs", 1)),
        ("ingleton.rhs-1", "ingleton", ing("rhs", -1)),
        ("ingleton.violated", "ingleton",
         lambda doc: doc["ingleton"].__setitem__("violated", False)),
        ("ingleton.A.drop", "ingleton", lambda doc: doc["ingleton"]["A"].pop()),
        ("ingleton.A.swap", "ingleton", lambda doc: doc["ingleton"]["A"].__setitem__(0, "C#1")),
        ("ingleton.B.drop", "ingleton", lambda doc: doc["ingleton"]["B"].pop(0)),
        ("ingleton.C.extend", "ingleton", lambda doc: doc["ingleton"]["C"].append("D#1")),
        ("ingleton.D.drop", "ingleton", lambda doc: doc["ingleton"]["D"].pop()),
    ]

    def em(doc):
        return doc["recipe"]["excluded_minor"]

    def pres(doc):
        return doc["recipe"]["input"]["presentation"]

    bases = "recipe.excluded_minor.bases"
    muts += [
        # the last basis is the relaxed set: without it the family is the
        # gadget matroid, a matroid that satisfies the Ingleton inequality
        ("bases.drop_last", "ingleton", lambda doc: em(doc)["bases"].pop()),
        ("bases.drop_first", bases, lambda doc: em(doc)["bases"].pop(0)),
        ("bases.add_bogus", bases, lambda doc: em(doc)["bases"].append(em(doc)["ground"][:5])),
        ("bases.mutate_entry", bases,
         lambda doc: em(doc)["bases"][0].__setitem__(0, em(doc)["ground"][-1])),
        ("bases.duplicate", bases,
         lambda doc: em(doc)["bases"].append(list(em(doc)["bases"][0]))),
        ("ground.rename", bases, lambda doc: em(doc)["ground"].__setitem__(0, "zz")),
        ("recipe.delete.drop", "recipe", lambda doc: doc["recipe"]["delete"].pop()),
        ("recipe.delete.add", "recipe", lambda doc: doc["recipe"]["delete"].append("v#1")),
        ("recipe.contract.drop", "recipe", lambda doc: doc["recipe"]["contract"].pop()),
        ("recipe.contract.swap", "recipe",
         lambda doc: doc["recipe"]["contract"].__setitem__(0, "C#1")),
        # a valid presentation of another matroid: the recipe no longer recovers it
        ("input.arc.drop", "recipe", lambda doc: pres(doc)["arcs"].pop()),
        ("input.ground.drop", "recipe", lambda doc: pres(doc)["ground"].pop()),
        ("input.target.drop", "recipe", lambda doc: pres(doc)["targets"].pop()),
        ("input.bases.drop", "recipe.input.bases",
         lambda doc: doc["recipe"]["input"]["bases"].pop()),
        ("input.bases.mutate", "recipe.input.bases",
         lambda doc: doc["recipe"]["input"]["bases"][0].__setitem__(0, "d")),
    ]

    def minor(k, side, action):
        def apply(doc):
            action(doc["minors"][k][side])

        return apply

    def pres_action(fn):
        return lambda rec: fn(rec["presentation"])

    arc_drop = pres_action(lambda p: p["arcs"].pop())
    arcs_clear = pres_action(lambda p: p["arcs"].clear())
    target_drop = pres_action(lambda p: p["targets"].pop())
    ground_drop = pres_action(lambda p: p["ground"].pop())
    vertex_drop = pres_action(lambda p: p["vertices"].pop())
    flag_flip = lambda rec: rec.__setitem__("verified", False)  # noqa: E731

    for k, side, name, action in [
        (0, "deletion", "arc.drop", arc_drop),
        (0, "contraction", "arcs.clear", arcs_clear),
        (1, "deletion", "flag", flag_flip),
        (1, "contraction", "target.drop", target_drop),
        (2, "deletion", "ground.drop", ground_drop),
        (2, "contraction", "vertex.drop", vertex_drop),
        (3, "deletion", "arcs.clear", arcs_clear),
        (3, "contraction", "flag", flag_flip),
        (4, "deletion", "target.drop", target_drop),
        (4, "contraction", "arc.drop", arc_drop),
        (5, "deletion", "vertex.drop", vertex_drop),
        (6, "contraction", "ground.drop", ground_drop),
        (7, "deletion", "arc.drop", arc_drop),
        (8, "contraction", "arcs.clear", arcs_clear),
    ]:
        muts.append((f"minors[{k}].{side}.{name}", f"minors[{k}].{side}", minor(k, side, action)))

    muts.append(
        ("minors.x.rename", "minors", lambda doc: doc["minors"][0].__setitem__("x", "b"))
    )
    assert len(muts) == 50
    return muts


def test_criterion_9_certificate_robustness(u24_cert_doc, r3_run, tmp_path):
    runner = CliRunner()
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(u24_cert_doc), encoding="utf-8")
    assert runner.invoke(main, ["verify", str(path)]).exit_code == 0

    _, r3_cert, _ = r3_run
    verify_certificate(r3_cert)

    caught = 0
    for name, location, mutate in _mutations():
        doc = copy.deepcopy(u24_cert_doc)
        mutate(doc)
        try:
            verify_certificate(doc)
        except ReverifyFailed as exc:
            assert exc.location == location, (name, str(exc))
            caught += 1
        else:
            raise AssertionError(f"mutation {name} was not detected")
    assert caught == 50
    verdict(9, "built certificates re-verify; 50/50 mutations detected")


def test_criterion_9_cli_exit_codes(u24_cert_doc, tmp_path):
    runner = CliRunner()
    doc = copy.deepcopy(u24_cert_doc)
    doc["minors"][0]["deletion"]["presentation"]["arcs"].pop()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    assert runner.invoke(main, ["verify", str(bad)]).exit_code == 5
