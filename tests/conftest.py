import faulthandler
import os
import time

import pytest

from gammoids import certify, construct, digraph, parse_presentation
from gammoids.corpus import RANK3_DOC, U24_DOC
from gammoids.matroid import Matroid

requires_kernel = pytest.mark.skipif(
    digraph.ENGINE != "c", reason="the C kernel is not loaded (no compiler, or its build failed)"
)


# in-process kernel tests, with the seconds each may run before the test
# run is ended: the kernel follows flow pointers with no step limit, so
# a defect that corrupts a flow hangs the call instead of failing it
WATCHED_CLASSES = ("TestKernel", "TestEarlyStop")
WATCHDOG_S = 120
STDERR_FD = pytest.StashKey[int]()


def pytest_configure(config):
    # capture is suspended here, so this copies the terminal's stderr, not a
    # test's captured stream; the watchdog writes its tracebacks to it
    config.stash[STDERR_FD] = os.dup(2)


def pytest_unconfigure(config):
    os.close(config.stash[STDERR_FD])


@pytest.fixture(autouse=True)
def kernel_watchdog(request):
    """End the test run with every thread's stack if a kernel test hangs."""
    if request.cls is None or not any(c.__name__ in WATCHED_CLASSES for c in request.cls.__mro__):
        yield
        return
    stderr = request.config.stash[STDERR_FD]
    faulthandler.dump_traceback_later(WATCHDOG_S, exit=True, file=stderr)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()


@pytest.fixture
def python_engine(monkeypatch):
    """Run the Python enumeration, the kernel's reference and fallback."""
    monkeypatch.setattr(digraph, "_KERNEL", None)


def record_instances(monkeypatch, cls) -> list:
    """Record each instance of ``cls`` constructed from now on, in a live list."""
    made = []
    init = cls.__init__

    def recording(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", recording)
    return made


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
    """``certify``'s own document, shared: a test that mutates it deep-copies it first."""
    _, cert, _ = u24_run
    return cert
