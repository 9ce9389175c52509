"""The package root: its public names, and the modules that importing loads."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import gammoids

# the package root's public names, under the module that defines each
HOMES = {
    "certificate": ["certificate_to_json", "parse_presentation", "verify_certificate"],
    "construction": ["Branch", "Bundle", "certify", "construct", "normalize"],
    "digraph": [
        "Digraph", "Linking", "Presentation", "brute_force_linking_oracle", "is_linked",
        "linkage_matroid", "max_linking", "transversal_duality_check",
    ],
    "errors": [
        "AxiomViolation", "ClaimFailed", "GammoidError", "GraphTooLarge", "GroundSetTooLarge",
        "IsLoop", "LabelCollision", "NotABasis", "NotACircuitHyperplane", "NotInGround",
        "NotInSAndT", "NotStrict", "ParseError", "PreconditionViolated", "RetargetFailed",
        "ReverifyFailed", "TooLarge", "UnknownDemo",
    ],
    "matroid": ["IngletonCheck", "MAX_GROUND", "Matroid"],
    "surgery": [
        "TwoBasesEmbedding", "add_coloop", "contract_any", "contract_target", "delete_element",
        "free_extension", "retarget", "two_bases_embedding",
    ],
}


def test_public_names_are_unchanged():
    assert sorted(gammoids.__all__) == sorted(n for names in HOMES.values() for n in names)
    assert len(gammoids.__all__) == 45
    assert set(gammoids.__all__) | set(HOMES) <= set(dir(gammoids))


def test_each_name_is_its_modules_object():
    for module, names in HOMES.items():
        home = importlib.import_module(f"gammoids.{module}")
        assert gammoids.__getattr__(module) is home
        for name in names:
            scope: dict = {}
            exec(f"from gammoids import {name}", scope)
            assert scope[name] is getattr(home, name), name
            assert getattr(gammoids, name) is getattr(home, name), name


def test_a_rebinding_in_the_module_shows_at_the_root(monkeypatch):
    original = gammoids.construction.certify
    monkeypatch.setattr(gammoids.construction, "certify", len)
    assert gammoids.certify is len
    monkeypatch.undo()
    assert gammoids.certify is original


def loaded_after(code: str) -> list[str]:
    """The package modules a fresh interpreter holds after running ``code``."""
    src = str(Path(gammoids.__file__).parents[1])
    report = "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'gammoids')))"
    out = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport json, sys\n{report}"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


def test_importing_certificate_loads_only_what_verify_trusts():
    assert loaded_after("import gammoids.certificate") == [
        "gammoids", "gammoids.certificate", "gammoids.digraph", "gammoids.errors",
        "gammoids.matroid",
    ]


def test_a_module_loads_when_first_read():
    assert loaded_after("import gammoids") == ["gammoids"]
    assert loaded_after("import gammoids; print(gammoids.digraph.ENGINE)") == [
        "gammoids", "gammoids.digraph", "gammoids.errors", "gammoids.matroid",
    ]
    assert "gammoids.surgery" in loaded_after("from gammoids import retarget")
