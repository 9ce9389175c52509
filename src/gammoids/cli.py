"""Command-line front end.

Exit codes are a stable contract: 0 success, 2 parse problem, 3 input too
large, 4 claim failed, 5 re-verification failed. Human-readable progress
goes to stderr; certificates are JSON on stdout or the --output path.
"""

from __future__ import annotations

import json
import random
import sys
from typing import NoReturn

import click

from . import corpus
from .certificate import certificate_to_json, parse_presentation, verify_certificate
from .construction import CLAIM_NAMES, Bundle, certify, construct
from .digraph import transversal_duality_check
from .errors import (
    GammoidError,
    LabelCollision,
    ParseError,
    ReverifyFailed,
    TooLarge,
    UnknownDemo,
)
from .matroid import MAX_GROUND

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_TOO_LARGE = 3
EXIT_CLAIM_FAILED = 4
EXIT_REVERIFY_FAILED = 5


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParseError(f"cannot write {path}: {exc.strerror}") from None


def _load_json(path: str) -> object:
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not UTF-8: {exc}") from None
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from None


def _say(msg: str) -> None:
    click.echo(msg, err=True)


def _fail(exc: GammoidError) -> NoReturn:
    """Report a package error on stderr and exit with its code."""
    if isinstance(exc, (ParseError, LabelCollision)):
        # LabelCollision: an input vertex is named like a generated label
        _say(f"parse error: {exc}")
        sys.exit(EXIT_PARSE)
    if isinstance(exc, TooLarge):
        _say(f"too large: {exc}")
        sys.exit(EXIT_TOO_LARGE)
    if isinstance(exc, ReverifyFailed):
        _say(str(exc))
        sys.exit(EXIT_REVERIFY_FAILED)
    # a failed claim, or an internal check that failed on the way to one
    _say(f"claim failed: {exc}")
    sys.exit(EXIT_CLAIM_FAILED)


def _report(bundle: Bundle, cert: dict) -> str:
    """One line per claim, then the certificate summary."""
    ing = cert["ingleton"]
    lines = []
    for name in CLAIM_NAMES:
        line = f"{name} OK"
        if name == "ingleton_violated":
            line += f" ({ing['lhs']} > {ing['rhs']})"
        lines.append(line)
    m = bundle.result
    lines.append(
        f"certificate COMPLETE: {m.size} elements, rank {m.rank}, "
        f"{2 * len(cert['minors'])} minor presentations verified"
    )
    return "\n".join(lines)


@click.group()
def main() -> None:
    """Build and verify excluded-minor certificates for gammoids."""


@main.command()
@click.option("--input", "-i", "input_path", default="-", help="Presentation JSON, or - for stdin.")
@click.option("--output", "-o", "output_path", default="-", help="Certificate path, or - for stdout.")
@click.option("--jobs", type=click.IntRange(min=1), default=1,
              help="Parallel minor certifications, at most one worker per CPU "
                   "and per result element.")
@click.option("--max-elements", type=int, default=MAX_GROUND,
              help="Cap on the result's ground set size.")
def build(input_path: str, output_path: str, jobs: int, max_elements: int) -> None:
    """Build an excluded-minor certificate from a gammoid presentation."""
    try:
        presentation = parse_presentation(_load_json(input_path))
        bundle = construct(presentation, max_elements=max_elements)
        cert = certify(bundle, jobs=jobs)
        # a record past the graph caps that verify enforces is refused here
        text = certificate_to_json(cert)
        _write_text(output_path, text)
    except GammoidError as exc:
        _fail(exc)
    _say(_report(bundle, cert))
    sys.exit(EXIT_OK)


@main.command()
@click.argument("certificate", default="-")
def verify(certificate: str) -> None:
    """Re-validate a certificate without rebuilding the construction."""
    try:
        verify_certificate(_load_json(certificate))
    except GammoidError as exc:
        _fail(exc)
    _say("certificate OK")
    sys.exit(EXIT_OK)


@main.command()
@click.argument("name")
def demo(name: str) -> None:
    """Run a named demo scenario: u24, rank3-gammoid, or strict-gammoid-duality."""
    if name not in corpus.DEMO_NAMES:
        _say(str(UnknownDemo(f"unknown demo {name!r}; choose from {corpus.DEMO_NAMES}")))
        sys.exit(EXIT_PARSE)
    if name == "strict-gammoid-duality":
        rng = random.Random(0x5717)
        count = 100
        for k in range(count):
            presentation = corpus.random_presentation(rng, max_vertices=6, strict=True)
            if not transversal_duality_check(presentation):
                click.echo(f"duality check FAILED on sample {k}")
                sys.exit(EXIT_CLAIM_FAILED)
        click.echo(f"{count} random strict presentations pass the duality cross-check")
        sys.exit(EXIT_OK)
    presentation = parse_presentation(corpus.PIPELINE_DEMOS[name])
    try:
        bundle = construct(presentation)
        cert = certify(bundle)
    except GammoidError as exc:
        _fail(exc)
    click.echo(_report(bundle, cert))
    sys.exit(EXIT_OK)


if __name__ == "__main__":  # pragma: no cover
    main()
