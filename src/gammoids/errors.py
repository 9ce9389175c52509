"""Exception types shared across the package."""


class GammoidError(Exception):
    """Base class for every error raised by this package."""


class TooLarge(GammoidError):
    """An input or the construction exceeds a size cap."""


class GroundSetTooLarge(TooLarge):
    """Ground set exceeds the exhaustive-enumeration cap."""


class GraphTooLarge(TooLarge):
    """Graph exceeds a vertex or arc cap (input parsing, brute-force oracle)."""


class AxiomViolation(GammoidError):
    """Materialized independence data fails the matroid axioms.

    Signals a buggy oracle or tampered basis family, never valid input.
    """


class NotACircuitHyperplane(GammoidError):
    """Relaxation requested at a set that is not a circuit-hyperplane."""


class NotStrict(GammoidError):
    """Operation requires a strict presentation (ground = all vertices)."""


class NotInSAndT(GammoidError):
    """Target contraction requires a vertex that is both ground and target."""


class NotInGround(GammoidError):
    """Element is not part of the presentation's ground set."""


class NotABasis(GammoidError):
    """The given set is not a basis of the presented matroid."""


class IsLoop(GammoidError):
    """Contraction through a basis refuses loops; delete them instead."""


class LabelCollision(GammoidError):
    """A fresh label generated by a surgery already names a vertex."""


class PreconditionViolated(GammoidError):
    """Caller broke a documented surgery precondition."""


class RetargetFailed(GammoidError):
    """Re-targeting could not extend the basis or match the dual system.

    This never fires on a correct engine; it surfaces bugs instead of
    letting a wrong presentation flow into a certificate.
    """


class ClaimFailed(GammoidError):
    """A pipeline claim did not verify on the constructed data."""

    def __init__(self, claim: str, detail: str = ""):
        self.claim = claim
        self.detail = detail
        msg = f"claim {claim!r} failed"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class ParseError(GammoidError):
    """Malformed input or certificate document."""


class ReverifyFailed(GammoidError):
    """Certificate re-validation found a mismatch."""

    def __init__(self, location: str, detail: str = ""):
        self.location = location
        self.detail = detail
        msg = f"re-verification failed at {location}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class UnknownDemo(GammoidError):
    """Demo name not in the built-in corpus."""
