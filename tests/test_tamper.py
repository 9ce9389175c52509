"""Single-arc deletions from u24 certificate records, graded by an oracle
that shares no code with either flow engine, and every r-set flip of the
u24 excluded minor.

``tamper_sweep.py`` holds the oracle and runs every single-arc deletion
and addition of every record; this part covers both sides of the first
two records. An accepted edit must still present its minor by the
oracle, and a rejected one must be rejected at its record and fail the
oracle.
"""

from collections import Counter
from math import comb

from tamper_sweep import (
    SIDES,
    arc_deletions,
    basis_flips,
    minor_of,
    presents_by_duality,
    rejected_at,
    sweep,
)


def test_the_oracle_accepts_every_record(u24_run):
    bundle, cert, _ = u24_run
    for k, entry in enumerate(cert["minors"]):
        for side in SIDES:
            minor = minor_of(bundle.result, cert, k, side)
            assert presents_by_duality(entry[side]["presentation"], minor), (k, side)


def test_single_arc_deletions_get_the_oracles_verdict(u24_run):
    bundle, cert, _ = u24_run
    records = [(k, side) for k in (0, 1) for side in SIDES]
    grades = sweep(cert, bundle.result, arc_deletions, records)
    assert grades["disagreeing"] == 0
    # both verdicts occur, so both rules are exercised
    assert grades["accepted"] > 0 and grades["rejected"] > 0


def test_every_r_set_flip_of_the_excluded_minor_is_rejected(u24_run):
    bundle, cert, _ = u24_run
    places = Counter(map(rejected_at, basis_flips(cert)))
    assert sum(places.values()) == comb(bundle.result.size, bundle.result.rank)
    assert set(places) <= {
        "recipe.excluded_minor.bases",
        "ingleton",
        "minors[k].deletion",
        "minors[k].contraction",
    }
