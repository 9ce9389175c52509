import time

import pytest

from gammoids import certify, construct, digraph, parse_presentation
from gammoids.certificate import certificate_to_doc
from gammoids.corpus import RANK3_DOC, U24_DOC
from gammoids.matroid import Matroid

requires_kernel = pytest.mark.skipif(
    digraph.ENGINE != "c", reason="the C kernel is not loaded (no compiler, or its build failed)"
)


@pytest.fixture
def python_engine(monkeypatch):
    """Run the Python enumeration, the kernel's reference and fallback."""
    monkeypatch.setattr(digraph, "_KERNEL", None)


def uniform(ground: str, k: int) -> Matroid:
    return Matroid.from_independence_oracle(ground, lambda mask: mask.bit_count() <= k)


def complete(doc: dict) -> bool:
    """Every claim and every minor record of a certificate document reads true."""
    return all(doc["claims"].values()) and all(
        rec[side]["verified"] for rec in doc["minors"] for side in ("deletion", "contraction")
    )


@pytest.fixture(scope="session")
def u24_run():
    presentation = parse_presentation(U24_DOC)
    start = time.monotonic()
    bundle = construct(presentation)
    cert = certify(bundle)
    elapsed = time.monotonic() - start
    return bundle, cert, elapsed


@pytest.fixture(scope="session")
def r3_run():
    presentation = parse_presentation(RANK3_DOC)
    start = time.monotonic()
    bundle = construct(presentation)
    cert = certify(bundle)
    elapsed = time.monotonic() - start
    return bundle, cert, elapsed


@pytest.fixture(scope="session")
def u24_cert_doc(u24_run):
    _, cert, _ = u24_run
    return certificate_to_doc(cert)
