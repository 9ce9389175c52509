"""Tests of the benchmark's own input generators.

    PYTHONPATH=src python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import random
import sys
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import workloads  # noqa: E402
from gammoids import construct, normalize, parse_presentation  # noqa: E402

DEFAULT_SEED = 1


@pytest.mark.parametrize("rank", [3, 4])
def test_matched_basis_gammoid_repeats_per_seed(rank):
    assert workloads.matched_basis_gammoid(5, rank) == workloads.matched_basis_gammoid(5, rank)
    assert workloads.matched_basis_gammoid(5, rank) != workloads.matched_basis_gammoid(6, rank)


def test_fixed_gammoid_repeats_per_seed_and_only_renames():
    assert workloads.fixed_gammoid(5, 3) == workloads.fixed_gammoid(5, 3)
    assert workloads.fixed_gammoid(5, 3) != workloads.fixed_gammoid(6, 3)
    structure = workloads.matched_basis_gammoid(workloads.FIXED_STRUCTURE, 3)
    doc = workloads.fixed_gammoid(5, 3)
    names = dict(zip(structure["vertices"], doc["vertices"]))
    assert len(set(names.values())) == len(names)
    assert doc["arcs"] == [[names[u], names[v]] for u, v in structure["arcs"]]
    assert doc["ground"] == [names[v] for v in structure["ground"]]
    assert doc["targets"] == [names[v] for v in structure["targets"]]


def test_small_corpus_repeats_per_seed():
    assert workloads.small_corpus(5) == workloads.small_corpus(5)
    assert workloads.small_corpus(5) != workloads.small_corpus(6)


def test_small_corpus_rounds_have_the_fixed_mix():
    for batch in workloads.small_corpus(DEFAULT_SEED):
        assert sorted(min(r, 3) for _, r in batch) == sorted(workloads.ROUND_RANKS)


def test_round_keeps_the_too_large_share_of_free_draws():
    rng = random.Random("free-draws")
    counts = Counter(min(workloads.normalized_rank(workloads.random_presentation(rng)), 3)
                     for _ in range(2000))
    assert 0 not in counts
    share = Counter(workloads.ROUND_RANKS)[3] / len(workloads.ROUND_RANKS)
    assert abs(counts[3] / 2000 - share) < 0.05


def test_normalized_rank_matches_the_package():
    for batch in workloads.small_corpus(DEFAULT_SEED, rounds=3):
        for doc, r in batch:
            assert len(normalize(parse_presentation(doc)).basis_one) == r


def test_default_seed_rank3_input_has_the_stated_rank_and_result_size():
    rank = 3
    doc = workloads.fixed_gammoid(DEFAULT_SEED, rank)
    assert workloads.normalized_rank(doc) == rank
    presentation = parse_presentation(doc)
    assert presentation.to_doc() == doc  # arcs come in the package's canonical order
    bundle = construct(presentation)
    assert bundle.r == rank
    assert (bundle.result.size, bundle.result.rank) == (3 * rank + 5, rank + 3)


def test_tamper_changes_only_the_chosen_contraction():
    cert = {"minors": [
        {"x": x, "deletion": {"presentation": {"d": x}}, "contraction": {"presentation": {"c": x}}}
        for x in "ab"
    ]}
    bad = workloads.tamper(cert, 1)
    assert bad["minors"][0] == cert["minors"][0]
    assert bad["minors"][1]["contraction"]["presentation"] == {"d": "b"}
    assert cert["minors"][1]["contraction"]["presentation"] == {"c": "b"}
