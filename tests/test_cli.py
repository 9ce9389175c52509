import ast
import copy
import errno
import hashlib
import json
import os
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gammoids
from conftest import complete, requires_kernel
from gammoids import certificate, cli, construction, digraph
from gammoids.certificate import parse_presentation, verify_certificate
from gammoids.cli import main
from gammoids.corpus import PIPELINE_DEMOS, RANK3_DOC, U24_DOC
from gammoids.errors import (
    AxiomViolation,
    NotACircuitHyperplane,
    ParseError,
    RetargetFailed,
    ReverifyFailed,
)
from gammoids.matroid import Matroid, _popcounts


@pytest.fixture()
def runner():
    return CliRunner()


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")


# 25 isolated vertices, all ground and targets: one ground element past the cap
WIDE_DOC = {
    "vertices": [f"g{i}" for i in range(25)],
    "arcs": [],
    "ground": [f"g{i}" for i in range(25)],
    "targets": [f"g{i}" for i in range(25)],
}


def u24_with_vertex(label):
    """U(2,4) with one extra vertex, named ``label``, feeding a target."""
    doc = copy.deepcopy(U24_DOC)
    doc["vertices"].append(label)
    doc["arcs"].append([label, "a"])
    return doc


KEYS = "presentation keys must be exactly ['vertices', 'arcs', 'ground', 'targets'], got "

# each malformed presentation document and its exact parse error
INVALID_DOCUMENTS = {
    lambda d: d.pop("targets"): KEYS + "['arcs', 'ground', 'vertices']",
    lambda d: d.update(extra=[]): KEYS + "['arcs', 'extra', 'ground', 'targets', 'vertices']",
    lambda d: d["vertices"].append("a"): "duplicate vertices",
    lambda d: d["arcs"].append(["a", "a"]): "self-loop at 'a'",
    lambda d: d["arcs"].append(["a", "zz"]): "arc ('a', 'zz') uses an undeclared vertex",
    lambda d: d["arcs"].append("ab"): "arc 'ab' must be a pair of vertex labels",
    lambda d: d["arcs"].append(["c", "a"]): "duplicate arcs",
    lambda d: d["ground"].append("zz"): "ground label 'zz' is not a vertex",
    lambda d: d["ground"].clear(): "ground set must be nonempty",
    lambda d: d["targets"].append(7): "targets must be a list of strings",
    lambda d: d["ground"].append("a"): "duplicate labels in ground",
    lambda d: d["targets"].append("a"): "duplicate labels in targets",
    lambda d: d["targets"].append("zz"): "targets label 'zz' is not a vertex",
}


class TestParsePresentation:
    def test_round_trip(self):
        p = parse_presentation(U24_DOC)
        assert parse_presentation(p.to_doc()).to_doc() == p.to_doc()

    @pytest.mark.parametrize("mutate", list(INVALID_DOCUMENTS))
    def test_invalid_documents(self, mutate):
        doc = copy.deepcopy(U24_DOC)
        mutate(doc)
        with pytest.raises(ParseError) as info:
            parse_presentation(doc)
        assert str(info.value) == INVALID_DOCUMENTS[mutate]


class TestBuildCommand:
    def test_build_and_verify_files(self, runner, tmp_path):
        inp = tmp_path / "in.json"
        out = tmp_path / "cert.json"
        write_json(inp, U24_DOC)
        result = runner.invoke(main, ["build", "-i", str(inp), "-o", str(out)])
        assert result.exit_code == 0, result.output
        doc = json.loads(out.read_text())
        assert sorted(doc) == ["claims", "ingleton", "minors", "notes", "recipe"]
        check = runner.invoke(main, ["verify", str(out)])
        assert check.exit_code == 0

    def test_build_stdin_stdout(self, runner):
        result = runner.invoke(main, ["build"], input=json.dumps(U24_DOC))
        assert result.exit_code == 0
        doc = json.loads(result.stdout)
        verify_certificate(doc)

    def test_parse_error_exit(self, runner, tmp_path):
        inp = tmp_path / "bad.json"
        inp.write_text("{not json", encoding="utf-8")
        result = runner.invoke(main, ["build", "-i", str(inp)])
        assert result.exit_code == 2

    def test_empty_ground_is_a_parse_error(self, runner, tmp_path):
        doc = copy.deepcopy(U24_DOC)
        doc["ground"] = []
        inp = tmp_path / "empty.json"
        write_json(inp, doc)
        result = runner.invoke(main, ["build", "-i", str(inp)])
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "label, doc",
        [
            ("C#1", u24_with_vertex("C#1")),
            ("w#1", u24_with_vertex("w#1")),
            ("a'", u24_with_vertex("a'")),
            ("v#1", json.loads(json.dumps(U24_DOC).replace('"a"', '"v#1"'))),
        ],
    )
    def test_reserved_label_is_a_parse_error(self, runner, label, doc):
        result = runner.invoke(main, ["build"], input=json.dumps(doc))
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert f"parse error: fresh label {label!r} already names a vertex" in result.output

    def test_too_large_exit(self, runner, tmp_path):
        inp = tmp_path / "in.json"
        write_json(inp, U24_DOC)
        result = runner.invoke(main, ["build", "-i", str(inp), "--max-elements", "10"])
        assert result.exit_code == 3

    @pytest.mark.parametrize("cap, message", [("MAX_VERTICES", "4 vertices"), ("MAX_ARCS", "4 arcs")])
    def test_graph_cap_exit(self, runner, monkeypatch, cap, message):
        # lowered caps stand in for a huge input graph
        monkeypatch.setattr(certificate, cap, 3)
        result = runner.invoke(main, ["build"], input=json.dumps(U24_DOC))
        assert result.exit_code == 3
        assert isinstance(result.exception, SystemExit)
        assert f"too large: {message} exceeds cap 3" in result.output

    def test_ground_cap_exit(self, runner):
        result = runner.invoke(main, ["build"], input=json.dumps(WIDE_DOC))
        assert result.exit_code == 3
        assert isinstance(result.exception, SystemExit)
        assert "too large: 25 ground elements exceeds cap 24" in result.output

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_must_be_positive(self, runner, jobs):
        result = runner.invoke(main, ["build", "--jobs", jobs], input=json.dumps(U24_DOC))
        assert result.exit_code == 2
        assert "Invalid value for '--jobs'" in result.output

    @pytest.mark.parametrize(
        "cpus, jobs, pools",
        [(3, "64", [3]), (None, "64", []), (64, "64", [11]), (4, "1", [])],
        ids=["cpu-capped", "cpu-unknown", "element-capped", "serial"],
    )
    def test_jobs_pool_is_capped(self, runner, monkeypatch, cpus, jobs, pools):
        opened = []

        class RecordingPool:  # runs the tasks in this process
            def __init__(self, max_workers):
                opened.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(construction, "ThreadPoolExecutor", RecordingPool)
        result = runner.invoke(main, ["build", "--jobs", jobs], input=json.dumps(U24_DOC))
        assert result.exit_code == 0, result.output
        assert opened == pools  # the u24 result has 11 elements
        assert hashlib.sha256(result.stdout_bytes).hexdigest() == GOLDEN_SHA256["u24"]

    def test_branch_option_is_gone(self, runner):
        result = runner.invoke(main, ["build", "--branch", "1"], input=json.dumps(U24_DOC))
        assert result.exit_code == 2
        assert "No such option" in result.output and "--branch" in result.output

    def test_jobs_option_matches_serial(self, runner, tmp_path):
        inp = tmp_path / "in.json"
        write_json(inp, U24_DOC)
        serial = tmp_path / "serial.json"
        parallel = tmp_path / "parallel.json"
        assert runner.invoke(main, ["build", "-i", str(inp), "-o", str(serial)]).exit_code == 0
        assert (
            runner.invoke(
                main, ["build", "-i", str(inp), "-o", str(parallel), "--jobs", "2"]
            ).exit_code
            == 0
        )
        assert serial.read_text() == parallel.read_text()

    def test_long_path_builds_and_verifies(self, runner):
        # 300 vertices: more than a byte can count, so arc capacities must stay small
        verts = [f"v{i}" for i in range(300)]
        doc = {
            "vertices": verts,
            "arcs": [[u, v] for u, v in zip(verts, verts[1:])],
            "ground": ["v0", "v1"],
            "targets": ["v299"],
        }
        result = runner.invoke(main, ["build"], input=json.dumps(doc))
        assert result.exit_code == 0, result.output
        check = runner.invoke(main, ["verify"], input=result.stdout)
        assert check.exit_code == 0, check.output

    def test_record_past_the_graph_cap_is_not_written(self, runner, tmp_path):
        # the input fits under the vertex cap, but its records would not
        verts = [f"v{i}" for i in range(505)]
        inp, out = tmp_path / "in.json", tmp_path / "cert.json"
        write_json(inp, {
            "vertices": verts,
            "arcs": [[u, v] for u, v in zip(verts, verts[1:])],
            "ground": ["v0", "v1"],
            "targets": ["v504"],
        })
        result = runner.invoke(main, ["build", "-i", str(inp), "-o", str(out)])
        assert result.exit_code == 3
        assert isinstance(result.exception, SystemExit)
        assert "too large: minors[0].deletion: 515 vertices exceeds cap 512" in result.output
        assert not out.exists()


# sha256 of the `build` output for each demo input; any change to a
# certificate byte must show up here
GOLDEN_SHA256 = {
    "u24": "4617581447f4ed1ab49fe85b2ee5b6895416981a944eafb25fc678f56d93a42d",
    "rank3-gammoid": "2e7e711bdfcd183db75caac322dc147fed9cb7ccf7475988d711540bd2bf31af",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_golden_certificate(runner, name):
    result = runner.invoke(main, ["build"], input=json.dumps(PIPELINE_DEMOS[name]))
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == GOLDEN_SHA256[name]


# a rank-4 matched-basis gammoid (17-element result), with the sha256 of
# its `build` output: engine changes must keep every certificate byte
RANK4_DOC = {
    "vertices": [
        "tzvrv", "tchfi", "txzgq", "txjsh", "sulrc",
        "sanvq", "sjvmc", "sxmlp", "hocdm", "hqesr",
    ],
    "arcs": [
        ["sulrc", "tzvrv"],
        ["sulrc", "tchfi"],
        ["sanvq", "tzvrv"],
        ["sanvq", "txzgq"],
        ["sjvmc", "tchfi"],
        ["sjvmc", "txjsh"],
        ["sjvmc", "hocdm"],
        ["sxmlp", "tzvrv"],
        ["sxmlp", "tchfi"],
        ["sxmlp", "txjsh"],
        ["sxmlp", "hocdm"],
        ["sxmlp", "hqesr"],
        ["hocdm", "txzgq"],
        ["hqesr", "txjsh"],
    ],
    "ground": ["tzvrv", "tchfi", "txzgq", "txjsh", "sulrc", "sanvq", "sjvmc", "sxmlp"],
    "targets": ["tzvrv", "tchfi", "txzgq", "txjsh"],
}
RANK4_SHA256 = "2ee1f3bdda2c94de7e81be0ca7bd3dd6fa249147d03c1d3ee1241d71d09fe047"


def test_rank4_golden_certificate_verifies(runner):
    result = runner.invoke(main, ["build"], input=json.dumps(RANK4_DOC))
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == RANK4_SHA256
    check = runner.invoke(main, ["verify"], input=result.stdout)
    assert check.exit_code == 0, check.output
    assert "certificate OK" in check.output


@pytest.mark.parametrize(
    "doc, sha256, engine",
    [
        pytest.param(RANK4_DOC, RANK4_SHA256, "c", marks=requires_kernel, id="rank4-c"),
        pytest.param(
            PIPELINE_DEMOS["rank3-gammoid"], GOLDEN_SHA256["rank3-gammoid"], "python",
            id="rank3-python",
        ),
    ],
)
def test_jobs_keep_golden_bytes(runner, monkeypatch, request, doc, sha256, engine):
    if engine == "python":
        request.getfixturevalue("python_engine")
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # the pool runs on any box
    result = runner.invoke(main, ["build", "--jobs", "2"], input=json.dumps(doc))
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == sha256


@requires_kernel
@pytest.mark.parametrize(
    "doc, sha256",
    [
        (U24_DOC, GOLDEN_SHA256["u24"]),
        (RANK3_DOC, GOLDEN_SHA256["rank3-gammoid"]),
        (RANK4_DOC, RANK4_SHA256),
    ],
    ids=["u24", "rank3-gammoid", "rank4"],
)
def test_kernel_build_runs_no_python_max_flow(runner, monkeypatch, doc, sha256):
    """retarget knows the strict lift's rank, |T|, without routing it."""

    def refuse(*args):
        raise AssertionError("a Python flow network was built")

    monkeypatch.setattr(digraph, "_FlowNetwork", refuse)
    result = runner.invoke(main, ["build"], input=json.dumps(doc))
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == sha256
    check = runner.invoke(main, ["verify"], input=result.stdout)
    assert check.exit_code == 0, check.output


@pytest.mark.parametrize("command", ["build -i", "verify"])
@pytest.mark.parametrize(
    "content, message",
    [
        (b"[" * 200000, "parse error: invalid JSON: nested too deeply"),
        (b"\xff\xfe", "parse error: input is not UTF-8: "),
        (None, "parse error: cannot read "),
    ],
    ids=["nested", "not-utf8", "missing"],
)
def test_hostile_input_is_a_parse_error(runner, tmp_path, command, content, message):
    path = tmp_path / "input.json"
    if content is not None:
        path.write_bytes(content)
    result = runner.invoke(main, [*command.split(), str(path)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert message in result.output


@pytest.mark.parametrize(
    "name, code", [("missing/cert.json", errno.ENOENT), (".", errno.EISDIR)], ids=["no-dir", "dir"]
)
def test_unwritable_output_exits_2(runner, tmp_path, name, code):
    path = tmp_path / name
    result = runner.invoke(main, ["build", "-o", str(path)], input=json.dumps(U24_DOC))
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.stderr == f"parse error: cannot write {path}: {os.strerror(code)}\n"
    assert result.stdout == "" and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "name, code, writable",
    [
        ("missing/cert.json", errno.ENOENT, True),
        (".", errno.EISDIR, True),
        ("cert.json", errno.EACCES, False),
        ("existing.json", errno.EACCES, False),
    ],
    ids=["no-dir", "dir", "read-only-dir", "read-only-file"],
)
def test_unwritable_output_is_refused_before_construct(
    runner, tmp_path, monkeypatch, name, code, writable
):
    def construct(*args, **kwargs):
        raise AssertionError("construct ran before the output path was checked")

    (tmp_path / "existing.json").write_text("kept")
    monkeypatch.setattr(cli, "construct", construct)
    if not writable:  # permission bits do not bind every user, so access is refused here
        monkeypatch.setattr(os, "access", lambda path, mode: False)
    path = tmp_path / name
    result = runner.invoke(main, ["build", "-o", str(path)], input=json.dumps(U24_DOC))
    assert result.exit_code == 2
    assert result.stderr == f"parse error: cannot write {path}: {os.strerror(code)}\n"
    assert list(tmp_path.iterdir()) == [tmp_path / "existing.json"]
    assert (tmp_path / "existing.json").read_text() == "kept"


def test_write_failure_after_the_build_exits_2(runner, tmp_path, monkeypatch):
    # the path passes the early check, then cannot be opened for writing
    monkeypatch.setattr(cli, "_check_writable", lambda path: None)
    result = runner.invoke(main, ["build", "-o", str(tmp_path)], input=json.dumps(U24_DOC))
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.stderr == (
        f"parse error: cannot write {tmp_path}: {os.strerror(errno.EISDIR)}\n"
    )


def test_verify_imports_only_what_it_checks():
    """``gammoids.certificate`` reaches, through its in-package imports,
    only the modules a reader must trust to believe an accepted certificate."""
    package = Path(gammoids.__file__).parent
    seen, todo = set(), ["certificate"]
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            for node in ast.walk(ast.parse((package / f"{name}.py").read_text())):
                if isinstance(node, ast.ImportFrom) and node.level == 1:
                    todo += [node.module] if node.module else [a.name for a in node.names]
    assert seen == {"certificate", "digraph", "matroid", "errors"}


@pytest.mark.parametrize(
    "mutate",
    [
        lambda p: p["arcs"].append(["v"] * 1_000_000),
        lambda p: p["ground"].append("v" * 1_000_000),
        lambda p: p["arcs"].append(["a", "v" * 1_000_000]),
    ],
    ids=["arc-of-a-million-labels", "ground-label", "arc-endpoint"],
)
def test_hostile_values_are_not_echoed(runner, u24_cert_doc, mutate):
    """A parse error quotes at most a bounded excerpt of what it refuses."""
    doc = copy.deepcopy(U24_DOC)
    mutate(doc)
    built = runner.invoke(main, ["build"], input=json.dumps(doc))
    assert built.exit_code == 2
    assert len(built.stderr_bytes) < 1024
    # in a certificate, a malformed record fails re-verification at the record
    cert = copy.deepcopy(u24_cert_doc)
    mutate(cert["minors"][1]["contraction"]["presentation"])
    verified = runner.invoke(main, ["verify"], input=json.dumps(cert))
    assert verified.exit_code == 5
    assert verified.stderr.startswith("re-verification failed at minors[1].contraction: ")
    assert len(verified.stderr_bytes) < 1024


@pytest.mark.parametrize(
    "mutate, where",
    [
        (lambda doc: doc["recipe"]["excluded_minor"]["bases"][0].append("v" * 10**6),
         "recipe.excluded_minor.bases"),
        (lambda doc: doc["ingleton"]["A"].append("v" * 10**6), "ingleton"),
    ],
    ids=["basis-label", "ingleton-label"],
)
def test_hostile_labels_of_the_excluded_minor_are_not_echoed(
    runner, u24_cert_doc, mutate, where
):
    cert = copy.deepcopy(u24_cert_doc)
    mutate(cert)
    verified = runner.invoke(main, ["verify"], input=json.dumps(cert))
    assert verified.exit_code == 5
    assert verified.stderr.startswith(f"re-verification failed at {where}: ")
    assert len(verified.stderr_bytes) < 1024


# one edit of a certificate per refusal: (path to the field, new value, exit
# code, stderr). An empty path replaces the document; a record's malformed
# presentation fails re-verification at that record
VERIFY_REFUSALS = [
    ((), [], 2, "parse error: certificate must be a JSON object"),
    (("surprise",), True, 2,
     "parse error: certificate keys must be exactly "
     "['claims', 'ingleton', 'minors', 'recipe', 'notes'], "
     "got ['claims', 'ingleton', 'minors', 'notes', 'recipe', 'surprise']"),
    (("claims", "surprise"), True, 2,
     "parse error: claims must map exactly the known claim names"),
    (("claims", "ingleton_violated"), 1, 2, "parse error: claim verdicts must be booleans"),
    (("ingleton", "E"), [], 2, "parse error: ingleton record has wrong keys"),
    (("ingleton", "A"), "ab", 2, "parse error: ingleton.A must be a list of strings"),
    (("ingleton", "lhs"), "21", 2, "parse error: ingleton sides must be integers"),
    (("ingleton", "violated"), 1, 2, "parse error: ingleton.violated must be a boolean"),
    (("recipe", "surprise"), [], 2, "parse error: recipe record has wrong keys"),
    (("recipe", "excluded_minor", "rank"), 5, 2,
     "parse error: recipe.excluded_minor must carry ground and bases"),
    (("recipe", "excluded_minor", "ground"), [1], 2,
     "parse error: recipe.excluded_minor.ground must be a list of strings"),
    (("recipe", "excluded_minor", "bases"), [], 2,
     "parse error: excluded minor must list at least one basis"),
    (("recipe", "excluded_minor", "ground", 1), "a", 5,
     "re-verification failed at recipe.excluded_minor.ground: duplicate ground labels"),
    (("recipe", "delete"), "C#1", 2, "parse error: recipe.delete must be a list of strings"),
    (("recipe", "contract"), None, 2, "parse error: recipe.contract must be a list of strings"),
    (("recipe", "input", "surprise"), [], 2,
     "parse error: recipe.input must carry presentation and bases"),
    (("recipe", "input", "bases"), {}, 2, "parse error: recipe.input.bases must be a list"),
    (("minors",), {}, 2, "parse error: minors must be a list"),
    (("minors", 0, "y"), "a", 2, "parse error: minors[0] has wrong keys"),
    (("minors", 1, "x"), 1, 2, "parse error: minors[1].x must be a string"),
    (("minors", 2, "deletion", "surprise"), [], 2,
     "parse error: minors[2].deletion has wrong keys"),
    (("minors", 3, "contraction", "verified"), "true", 2,
     "parse error: minors[3].contraction.verified must be a boolean"),
    (("notes",), ["ok", 1], 2, "parse error: notes must be a list of strings"),
    (("minors", 4, "deletion", "verified"), False, 5,
     "re-verification failed at minors[4].deletion: record is marked unverified"),
    (("minors", 5, "deletion", "presentation"), [], 5,
     "re-verification failed at minors[5].deletion: presentation invalid: "
     "presentation must be a JSON object"),
    (("minors", 6, "contraction", "presentation", "arcs"), "ab", 5,
     "re-verification failed at minors[6].contraction: presentation invalid: "
     "arcs must be a list"),
    (("recipe", "input", "presentation", "arcs"), {}, 5,
     "re-verification failed at recipe.input.presentation: arcs must be a list"),
]


@pytest.mark.parametrize(
    "path, value, code, message",
    VERIFY_REFUSALS,
    ids=[".".join(map(str, path)) or "document" for path, *_ in VERIFY_REFUSALS],
)
def test_verify_refuses_each_malformed_field(runner, u24_cert_doc, path, value, code, message):
    doc = copy.deepcopy(u24_cert_doc)
    if path:
        *parents, last = path
        holder = doc
        for key in parents:
            holder = holder[key]
        holder[last] = value
    else:
        doc = value
    result = runner.invoke(main, ["verify"], input=json.dumps(doc))
    assert result.exit_code == code
    assert result.stderr == message + "\n"


class TestVerifyCommand:
    def test_fresh_certificate_verifies(self, u24_cert_doc):
        verify_certificate(copy.deepcopy(u24_cert_doc))

    def test_tampered_basis_detected(self, runner, tmp_path, u24_cert_doc):
        doc = copy.deepcopy(u24_cert_doc)
        doc["recipe"]["excluded_minor"]["bases"].pop()
        path = tmp_path / "cert.json"
        write_json(path, doc)
        result = runner.invoke(main, ["verify", str(path)])
        assert result.exit_code == 5

    def test_ingleton_that_holds_is_refused(self, runner, u24_cert_doc):
        # A and C swapped: the inequality holds, and is recorded honestly
        doc = copy.deepcopy(u24_cert_doc)
        ing = doc["ingleton"]
        ing.update(A=ing["C"], C=ing["A"], lhs=19, rhs=21, violated=False)
        result = runner.invoke(main, ["verify"], input=json.dumps(doc))
        assert result.exit_code == 5
        assert result.stderr == (
            "re-verification failed at ingleton: certificate does not record a violation\n"
        )

    def test_removed_arc_detected_at_record(self, u24_cert_doc):
        doc = copy.deepcopy(u24_cert_doc)
        doc["minors"][3]["deletion"]["presentation"]["arcs"].pop()
        with pytest.raises(ReverifyFailed) as err:
            verify_certificate(doc)
        assert err.value.location.startswith("minors[3]")

    @pytest.mark.parametrize("cap", ["MAX_VERTICES", "MAX_ARCS"])
    def test_graph_cap_exit(self, runner, monkeypatch, u24_cert_doc, cap):
        # the input presentation fits, every record's presentation is larger
        monkeypatch.setattr(certificate, cap, 4)
        result = runner.invoke(main, ["verify"], input=json.dumps(u24_cert_doc))
        assert result.exit_code == 3
        assert isinstance(result.exception, SystemExit)
        assert "too large: minors[0].deletion: " in result.output

    @pytest.mark.parametrize(
        "where",
        [
            "minors[0].deletion",
            "minors[10].contraction",
            "recipe.input.presentation",
            "recipe.excluded_minor.ground",
        ],
    )
    def test_ground_cap_exit(self, runner, u24_cert_doc, where):
        doc = copy.deepcopy(u24_cert_doc)
        if where.startswith("minors"):
            k, side = where[len("minors[") :].split("].")
            doc["minors"][int(k)][side]["presentation"] = WIDE_DOC
        elif where == "recipe.input.presentation":
            doc["recipe"]["input"]["presentation"] = WIDE_DOC
        else:
            ground = doc["recipe"]["excluded_minor"]["ground"]
            ground += [f"pad{i}" for i in range(25 - len(ground))]
        result = runner.invoke(main, ["verify"], input=json.dumps(doc))
        assert result.exit_code == 3
        assert isinstance(result.exception, SystemExit)
        assert f"too large: {where}: 25 ground elements exceeds cap 24" in result.output

    def test_empty_excluded_minor_is_a_parse_error(self, runner, u24_cert_doc):
        doc = copy.deepcopy(u24_cert_doc)
        doc["recipe"]["excluded_minor"]["ground"] = []
        result = runner.invoke(main, ["verify"], input=json.dumps(doc))
        assert result.exit_code == 2
        assert "parse error: excluded minor ground set has a bad size" in result.output

    def test_schema_error_is_parse_error(self, runner, tmp_path, u24_cert_doc):
        doc = copy.deepcopy(u24_cert_doc)
        doc["surprise"] = True
        path = tmp_path / "cert.json"
        write_json(path, doc)
        result = runner.invoke(main, ["verify", str(path)])
        assert result.exit_code == 2


    @pytest.mark.parametrize("side", ["deletion", "contraction"])
    def test_record_presenting_a_larger_family_stops_early(
        self, runner, monkeypatch, u24_cert_doc, side
    ):
        # record 2 presents the uniform matroid of the minor's rank on its ground
        doc = copy.deepcopy(u24_cert_doc)
        em = doc["recipe"]["excluded_minor"]
        x = doc["minors"][2]["x"]
        m = Matroid.from_bases(em["ground"], em["bases"])
        minor = m.delete([x]) if side == "deletion" else m.contract([x])
        assert len(minor.bases()) < comb(minor.size, minor.rank)  # not uniform
        targets = [f"~t{i}" for i in range(minor.rank)]
        doc["minors"][2][side]["presentation"] = {
            "vertices": list(minor.ground) + targets,
            "arcs": [[g, t] for g in minor.ground for t in targets],
            "ground": list(minor.ground),
            "targets": targets,
        }
        found = []
        compare = digraph._linkage_independence

        def spy(*args):
            found.append(compare(*args))
            return found[-1]

        monkeypatch.setattr(digraph, "_linkage_independence", spy)
        result = runner.invoke(main, ["verify"], input=json.dumps(doc))
        assert result.exit_code == 5
        assert result.output == (
            f"re-verification failed at minors[2].{side}: "
            "presentation does not present the minor\n"
        )
        stopped = found[-1]
        assert not stopped.equal
        assert stopped.searches <= int((minor.table == _popcounts(minor.size)).sum()) + 1


class TestBasisSchema:
    @pytest.mark.parametrize(
        "basis", ["ab", {"a": "b"}, None, ["a", 3], ["a", ["b"]], [None]]
    )
    def test_basis_must_be_a_list_of_strings(self, runner, u24_cert_doc, basis):
        doc = copy.deepcopy(u24_cert_doc)
        doc["recipe"]["excluded_minor"]["bases"][2] = basis
        result = runner.invoke(main, ["verify"], input=json.dumps(doc))
        assert result.exit_code == 2
        assert result.output == (
            "parse error: recipe.excluded_minor.bases[] must be a list of strings\n"
        )


class TestDemoCommand:
    def test_u24_demo(self, runner):
        result = runner.invoke(main, ["demo", "u24"])
        assert result.exit_code == 0
        assert "ingleton_violated OK (21 > 20)" in result.output
        assert "certificate COMPLETE" in result.output

    def test_duality_demo(self, runner):
        result = runner.invoke(main, ["demo", "strict-gammoid-duality"])
        assert result.exit_code == 0
        assert "100 random strict presentations pass" in result.output

    def test_failed_duality_check_exits_4(self, runner, monkeypatch):
        monkeypatch.setattr(cli, "transversal_duality_check", lambda presentation: False)
        result = runner.invoke(main, ["demo", "strict-gammoid-duality"])
        assert result.exit_code == 4
        assert result.output == "duality check FAILED on sample 0\n"

    def test_unknown_demo(self, runner):
        result = runner.invoke(main, ["demo", "nope"])
        assert result.exit_code == 2


@pytest.mark.parametrize("command", [["build"], ["demo", "u24"], ["build", "--jobs", "2"]])
@pytest.mark.parametrize("surgery", ["retarget", "contract_any"])  # construct, certify
@pytest.mark.parametrize(
    "error", [RetargetFailed, AxiomViolation, NotACircuitHyperplane]
)
def test_internal_check_failure_is_a_failed_claim(runner, monkeypatch, command, surgery, error):
    def failing(*args, **kwargs):
        raise error("injected")

    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # contract_any fails on a worker thread
    monkeypatch.setattr(construction, surgery, failing)
    result = runner.invoke(main, command, input=json.dumps(U24_DOC))
    assert result.exit_code == 4
    assert isinstance(result.exception, SystemExit)
    assert "claim failed: injected" in result.output


@pytest.mark.parametrize("doc", [U24_DOC, RANK3_DOC], ids=["u24", "rank3-gammoid"])
def test_relaxed_table_failing_an_axiom_is_not_written(runner, monkeypatch, tmp_path, doc):
    # the lowered set is spanning but no basis, and no claim, record or
    # Ingleton set reads its rank: only the result's axiom check sees it
    real = Matroid.relax

    def lowered(self, labels):
        m = real(self, labels)
        kept = [g for g in m.ground if g not in labels] + ["C#1", "D#1"]
        table = m.table.copy()
        table[m.mask_of(kept)] -= 1
        return Matroid(m.ground, table)

    monkeypatch.setattr(Matroid, "relax", lowered)
    inp, out = tmp_path / "in.json", tmp_path / "cert.json"
    write_json(inp, doc)
    result = runner.invoke(main, ["build", "-i", str(inp), "-o", str(out)])
    assert result.exit_code == 4
    assert isinstance(result.exception, SystemExit)
    assert "claim failed: unit increase fails at " in result.output
    assert not out.exists()


def test_import_does_not_load_openssl():
    # hashlib's OpenSSL backend adds several MB to every CLI process
    code = "import sys, gammoids.cli; print('_hashlib' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(gammoids.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "False"


class TestCertificateObject:
    def test_doc_round_trip(self, u24_cert_doc):
        before = copy.deepcopy(u24_cert_doc)
        assert json.loads(certificate.certificate_to_json(u24_cert_doc)) == u24_cert_doc
        assert u24_cert_doc == before  # writing leaves the document as it was
        assert list(u24_cert_doc) == ["claims", "ingleton", "minors", "recipe", "notes"]
        assert complete(u24_cert_doc)

    @pytest.mark.parametrize(
        "where, mutate",
        [
            ("claims.branch_matroids_equal",
             lambda d: d["claims"].update(branch_matroids_equal=False)),
            ("claims.side_minors_gammoid", lambda d: d["claims"].update(side_minors_gammoid=False)),
            ("minors[0].deletion", lambda d: d["minors"][0]["deletion"].update(verified=False)),
            ("minors[10].contraction",
             lambda d: d["minors"][10]["contraction"].update(verified=False)),
        ],
    )
    def test_incomplete_doc_is_refused(self, u24_cert_doc, where, mutate):
        doc = copy.deepcopy(u24_cert_doc)
        mutate(doc)
        with pytest.raises(ReverifyFailed) as verified:
            verify_certificate(doc)
        assert verified.value.location == where

    def test_unverified_doc_is_refused(self, u24_cert_doc):
        doc = copy.deepcopy(u24_cert_doc)
        doc["minors"][0]["deletion"]["presentation"]["arcs"].pop(0)
        with pytest.raises(ReverifyFailed) as info:
            verify_certificate(doc)
        assert info.value.location == "minors[0].deletion"

    def test_rank3_doc_parses(self):
        assert parse_presentation(RANK3_DOC).matroid.rank == 3


# labels with characters JSON escapes, and the separators the writer uses
json_strings = st.text() | st.sampled_from(['"', "\\", "\n", "\x00", '", "', ",\n  ", "é€😀"])
json_docs = st.recursive(
    json_strings | st.integers() | st.booleans(),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(json_strings, inner, max_size=5),
    max_leaves=30,
)


def write(doc) -> str:
    """``doc`` through the certificate writer."""
    out: list[str] = []
    certificate._write(doc, "", out)
    return "".join(out)


class TestCertificateJson:
    """The certificate writer gives the bytes of ``json.dumps(doc, indent=2)``."""

    def test_demo_certificates(self, u24_run, r3_run):
        for _, cert, _ in (u24_run, r3_run):
            expected = json.dumps(cert, indent=2) + "\n"
            assert certificate.certificate_to_json(cert) == expected

    def test_rank4_certificate(self):
        cert = construction.certify(construction.construct(parse_presentation(RANK4_DOC)))
        text = certificate.certificate_to_json(cert)
        assert text == json.dumps(cert, indent=2) + "\n"

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(json_docs)
    @example({})
    @example([])
    @example({"a": [[], {}, [[]], [{}]], "b": [["x", "y"], [], ["z"]]})
    @example({"bases": [["x", "y"], ["z"]], "arcs": [["a", "b"]], "c": [[["x"]], ["y"]]})
    @example(['", "', "\\", "\x00\x1f\x7f", "é€😀\ud800", [True, False, 0, -1, 10**30]])
    def test_matches_stdlib(self, doc):
        assert write(doc) == json.dumps(doc, indent=2)

    @pytest.mark.parametrize(
        "doc", [1.5, None, {"a": [None]}, [["x"], ("y",)], {1: "a"}, {"a": {"b": [0.0]}}]
    )
    def test_other_types_raise(self, doc):
        with pytest.raises(TypeError):
            write(doc)
