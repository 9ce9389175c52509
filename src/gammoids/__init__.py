"""Linkage matroids, presentation surgery, and excluded-minor certificates.

Given any gammoid as a directed-graph presentation, this package builds a
matroid that lies just outside the class of gammoids, contains the input
as a minor, and has every single-element deletion and contraction
certified as a gammoid by an explicit, machine-verified presentation.
"""

from .construction import (
    Branch,
    Bundle,
    certify,
    construct,
    normalize,
)
from .certificate import (
    certificate_to_json,
    parse_presentation,
    verify_certificate,
)
from .digraph import (
    Digraph,
    Linking,
    Presentation,
    brute_force_linking_oracle,
    is_linked,
    linkage_matroid,
    max_linking,
    transversal_duality_check,
)
from .errors import (
    AxiomViolation,
    ClaimFailed,
    GammoidError,
    GraphTooLarge,
    GroundSetTooLarge,
    IsLoop,
    LabelCollision,
    NotABasis,
    NotACircuitHyperplane,
    NotInGround,
    NotInSAndT,
    NotStrict,
    ParseError,
    PreconditionViolated,
    RetargetFailed,
    ReverifyFailed,
    TooLarge,
    UnknownDemo,
)
from .matroid import MAX_GROUND, IngletonCheck, Matroid
from .surgery import (
    TwoBasesEmbedding,
    add_coloop,
    contract_any,
    contract_target,
    delete_element,
    free_extension,
    retarget,
    two_bases_embedding,
)

__version__ = "0.1.0"

__all__ = [
    "AxiomViolation",
    "Branch",
    "Bundle",
    "ClaimFailed",
    "Digraph",
    "GammoidError",
    "GraphTooLarge",
    "GroundSetTooLarge",
    "IngletonCheck",
    "IsLoop",
    "LabelCollision",
    "Linking",
    "MAX_GROUND",
    "Matroid",
    "NotABasis",
    "NotACircuitHyperplane",
    "NotInGround",
    "NotInSAndT",
    "NotStrict",
    "ParseError",
    "PreconditionViolated",
    "Presentation",
    "RetargetFailed",
    "ReverifyFailed",
    "TooLarge",
    "TwoBasesEmbedding",
    "UnknownDemo",
    "add_coloop",
    "brute_force_linking_oracle",
    "certificate_to_json",
    "certify",
    "construct",
    "contract_any",
    "contract_target",
    "delete_element",
    "free_extension",
    "is_linked",
    "linkage_matroid",
    "max_linking",
    "normalize",
    "parse_presentation",
    "retarget",
    "transversal_duality_check",
    "two_bases_embedding",
    "verify_certificate",
]
