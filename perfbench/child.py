"""One workload process: set up, run closed-loop passes through the CLI, report.

Started by ``run.py``; not meant to be run by hand. The process imports
the package from the checkout's ``src``, generates its inputs from the
seed, writes a ``ready`` timestamp, then runs passes through
``gammoids.cli.main`` (one client; the next call starts when the previous
returns) until ``--seconds`` have passed, at least one pass. Every call is
checked: its exit code, the location a rejection names, and the bytes of
each certificate (repeatable within the run, and equal to the recorded
digest where one is recorded). The result is one JSON document at
``--out``.

With ``--trace 1`` the passes run traced and the result carries the
per-layer metrics computed from the spans.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

try:
    import gammoids.cli  # noqa: E402
except ImportError as exc:
    sys.exit(f"cannot import gammoids from {ROOT / 'src'}: {exc}")
if not Path(gammoids.cli.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"gammoids was imported from {gammoids.cli.__file__}, not from {ROOT / 'src'}")

from spans import Tracer, layer_metrics  # noqa: E402

DIGESTS = HERE / "digests.json"
EXIT_OK, EXIT_TOO_LARGE, EXIT_REVERIFY_FAILED = 0, 3, 5


@dataclass
class Instance:
    key: str
    doc: dict
    rank: int  # normalized rank, from the benchmark's own linkage code
    path: Path
    accepted: bool  # expected to build; otherwise expected to be too large


# workload -> --max-elements; every tamper hits the last record
SETTINGS = {
    "small-corpus": 11,
    "rank3": None,
}


def make_passes(workload: str, seed: int, work: Path) -> list[list[Instance]]:
    """The inputs of each pass; one instance for the single-input workloads."""
    if workload == "small-corpus":
        rounds = workloads.small_corpus(seed)
    else:
        rounds = [[(workloads.fixed_gammoid(seed, 3), 3)]]
    cap = SETTINGS[workload]
    passes = []
    for i, batch in enumerate(rounds):
        items = []
        for j, (doc, rank) in enumerate(batch):
            key = f"{i}.{j}"
            path = work / f"in-{key}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            accepted = cap is None or 3 * rank + 5 <= cap
            items.append(Instance(key, doc, rank, path, accepted))
        passes.append(items)
    return passes


class Runner:
    """Runs and checks CLI calls, collecting one record per call."""

    def __init__(self, workload: str, seed: int, work: Path, tracer: Tracer | None = None):
        self.cap = SETTINGS[workload]
        self.work = work
        self.tracer = tracer
        recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        self.recorded = recorded.get(workload, {}).get(str(seed), {})
        self.seen: dict[str, str] = {}
        self.ops: list[dict] = []
        self.failures: list[str] = []

    def cli(self, args: list[str]) -> tuple[int, str, float]:
        """One ``gammoids`` call through the real entry point: exit code, stderr, wall."""
        err = io.StringIO()
        span = self.tracer.span("cli.main", args[0]) if self.tracer else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with span, contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                gammoids.cli.main.main(args=args, prog_name="gammoids")
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception as exc:  # a crash is a failed operation, not a crashed benchmark
            code = -1
            err.write(f"{type(exc).__name__}: {exc}")
        return code, err.getvalue(), time.perf_counter() - start

    def record(self, kind: str, inst: Instance, wall: float, problem: str | None) -> bool:
        self.ops.append({"kind": kind, "key": inst.key, "wall": wall, "ok": problem is None})
        if problem is not None:
            self.failures.append(f"{kind} {inst.key}: {problem}")
        return problem is None

    def build(self, inst: Instance) -> Path | None:
        kind = "build" if inst.accepted else "too-large"
        out = self.work / f"cert-{inst.key}.json"
        args = ["build", "-i", str(inst.path), "-o", str(out), "--jobs", "1"]
        if self.cap is not None:
            args += ["--max-elements", str(self.cap)]
        code, err, wall = self.cli(args)
        want = EXIT_OK if inst.accepted else EXIT_TOO_LARGE
        problem = None if code == want else f"exit {code}, expected {want}: {err.strip()[-200:]}"
        if problem is None and code == EXIT_OK:
            problem = self.check_certificate(inst, out.read_bytes())
        ok = self.record(kind, inst, wall, problem)
        return out if ok and code == EXIT_OK else None

    def check_certificate(self, inst: Instance, data: bytes) -> str | None:
        digest = hashlib.sha256(data).hexdigest()
        for where, known in (("this run", self.seen), ("digests.json", self.recorded)):
            if inst.key in known and known[inst.key] != digest:
                return f"certificate bytes differ from {where}"
        self.seen[inst.key] = digest
        doc = json.loads(data)
        size = len(doc["recipe"]["excluded_minor"]["ground"])
        if size != 3 * inst.rank + 5:
            return f"result has {size} elements, expected {3 * inst.rank + 5}"
        if doc["recipe"]["input"]["presentation"] != inst.doc:
            return "certificate does not record the input presentation"
        return None

    def verify(self, inst: Instance, cert: Path) -> None:
        code, err, wall = self.cli(["verify", str(cert)])
        self.record("verify", inst, wall, None if code == EXIT_OK else f"exit {code}: {err}")

    def reject(self, inst: Instance, cert: Path) -> None:
        doc = json.loads(cert.read_bytes())
        k = len(doc["minors"]) - 1
        bad = self.work / f"bad-{inst.key}.json"
        bad.write_text(json.dumps(workloads.tamper(doc, k)), encoding="utf-8")
        code, err, wall = self.cli(["verify", str(bad)])
        if code != EXIT_REVERIFY_FAILED:
            problem = f"exit {code}, expected {EXIT_REVERIFY_FAILED}"
        elif f"at minors[{k}].contraction:" not in err:
            problem = f"rejected elsewhere: {err.strip()}"
        else:
            problem = None
        self.record("reject", inst, wall, problem)

    def run_pass(self, items: list[Instance]) -> None:
        for inst in items:
            cert = self.build(inst)
            if cert is not None:
                self.verify(inst, cert)
                self.reject(inst, cert)


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(SETTINGS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    passes = make_passes(args.workload, args.seed, args.work)
    ready = time.monotonic()
    result: dict = {"ready": ready, "setup_cpu_s": cpu_seconds()}
    if args.setup_only:
        args.out.write_text(json.dumps(result), encoding="utf-8")
        return

    tracer = Tracer() if args.trace else None
    runner = Runner(args.workload, args.seed, args.work, tracer)
    if tracer:
        tracer.install()
    start = time.monotonic()
    done = 0
    while done == 0 or time.monotonic() - start < args.seconds:
        runner.run_pass(passes[done % len(passes)])
        done += 1
    if tracer:
        tracer.remove()
        tracer.write(args.work.parent / f"spans-{args.workload}-{args.seed}.jsonl")
        per_layer, self_times = layer_metrics(tracer.spans, done, tracer.span_cost())
        result.update(per_layer=per_layer, self_times=self_times)
    result.update(
        passes=done,
        instances=sum(len(passes[k % len(passes)]) for k in range(done)),
        ops=runner.ops,
        failures=runner.failures,
        digests=runner.seen,
    )
    args.out.write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
