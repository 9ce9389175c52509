"""The paper's theorem on every matroid of at most 4 elements.

``small_matroids.json`` holds one gammoid presentation per isomorphism
class; ``small_matroids.py`` writes it. There are 2, 4, 8 and 17 matroids
on 1, 2, 3 and 4 elements up to isomorphism, so a fixture of that many
pairwise non-isomorphic presentations per size covers every one.
"""

import json
from collections import Counter

import pytest

from gammoids import certify, construct, parse_presentation
from gammoids.certificate import certificate_to_json, verify_certificate
from small_matroids import CLASS_COUNTS, FIXTURE, isomorphism_key

DOCS = json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_one_presentation_per_class():
    matroids = [parse_presentation(doc).matroid for doc in DOCS]
    assert Counter(m.size for m in matroids) == CLASS_COUNTS
    keys = {(m.size, isomorphism_key(m)) for m in matroids}
    assert len(keys) == len(matroids)  # pairwise non-isomorphic


@pytest.mark.parametrize("doc", DOCS, ids=[f"class{k}" for k in range(len(DOCS))])
def test_every_class_is_certified(doc):
    p = parse_presentation(doc)
    bundle = construct(p)
    cert = json.loads(certificate_to_json(certify(bundle)))
    verify_certificate(cert)
    recipe = cert["recipe"]
    assert recipe["input"]["presentation"] == doc
    recovered = bundle.result.delete(recipe["delete"]).contract(recipe["contract"])
    assert recovered.equals(p.matroid)
