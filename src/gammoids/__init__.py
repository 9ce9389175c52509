"""Linkage matroids, presentation surgery, and excluded-minor certificates.

Given any gammoid as a directed-graph presentation, this package builds a
matroid that lies just outside the class of gammoids, contains the input
as a minor, and has every single-element deletion and contraction
certified as a gammoid by an explicit, machine-verified presentation.

Each public name below is listed once, under the module that defines it.
Importing the package imports none of its modules: a module is imported
the first time one of its names, or the module itself, is read from the
package (PEP 562). So ``import gammoids.certificate`` loads only the
modules that certificate verification uses.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "construction": ("Branch", "Bundle", "certify", "construct", "normalize"),
    "certificate": ("certificate_to_json", "parse_presentation", "verify_certificate"),
    "digraph": (
        "Digraph", "Linking", "Presentation", "brute_force_linking_oracle", "is_linked",
        "linkage_matroid", "max_linking", "transversal_duality_check",
    ),
    "errors": (
        "AxiomViolation", "ClaimFailed", "GammoidError", "GraphTooLarge",
        "GroundSetTooLarge", "IsLoop", "LabelCollision", "NotABasis",
        "NotACircuitHyperplane", "NotInGround", "NotInSAndT", "NotStrict", "ParseError",
        "PreconditionViolated", "RetargetFailed", "ReverifyFailed", "TooLarge",
        "UnknownDemo",
    ),
    "matroid": ("MAX_GROUND", "IngletonCheck", "Matroid"),
    "surgery": (
        "TwoBasesEmbedding", "add_coloop", "contract_any", "contract_target",
        "delete_element", "free_extension", "retarget", "two_bases_embedding",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """Import the module that defines ``name``, or the submodule ``name``."""
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # read from the module each time, so a rebinding there shows here too
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__() -> list[str]:
    """Every public name and submodule, loaded or not."""
    return sorted(set(globals()) | set(_HOME) | set(_EXPORTS))
