"""Benchmark entry point for the gammoids CLI.

    python3 perfbench/run.py --workload rank3 --seed 1 --seconds 50 --trace 0

Run from the root of a checkout. Each run starts a few set-up-only
processes to time set-up, then one workload process (``child.py``) that
runs closed-loop passes through ``gammoids.cli.main`` for ``--seconds``
and checks every output. CPU and peak RSS of that process, pool workers
included, come from ``os.wait4``. With ``--trace 0`` the last line of
standard output is a JSON object with every end-to-end metric named in
``BENCHMARK.json``; with ``--trace 1`` it carries the per-layer metrics of
a traced run instead. Lines before it are a human-readable summary.
``--record PATH`` appends the full record of the run (environment, every
metric, failures) to a JSON-lines file that ``compare.py`` reads.

Exit status is 0 whenever a result is printed, ``correct`` false included;
anything else (no package to measure, a workload process that crashed or
overran) exits non-zero without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("small-corpus", "rank3")
SETUP_PROBES = 9  # set-up-only processes per run; the workload process adds one sample
DEADLINE_S = 170.0  # a run must end within 180 s


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    def version(dist: str) -> str:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "missing"

    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "click": version("click"),
        "commit": git_commit(),
    }


def spawn(args: list[str], log: Path, deadline: float) -> tuple[float, int, float, float]:
    """Run ``child.py`` to completion: start time, exit code, CPU seconds, peak RSS in MB."""
    with open(log, "ab") as fh:
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), *args],
            stdin=subprocess.DEVNULL,
            stdout=fh,
            stderr=fh,
            start_new_session=True,
        )
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                raise TimeoutError(f"workload process overran {DEADLINE_S:.0f} s")
            time.sleep(0.02)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return start, proc.returncode, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024


def timing(values: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    out = {"n": len(values), "median": statistics.median(values) if values else 0.0}
    if len(values) >= 11:
        ordered = sorted(values)
        out[f"p{100 * (len(values) - 10) / len(values):.0f}"] = ordered[-11]
    return out


def end_to_end(child: dict, setup: list[float], cpu: float, rss: float) -> dict:
    ops = child["ops"]

    def walls(kind: str) -> list[float]:
        return [op["wall"] for op in ops if op["kind"] == kind and op["ok"]]

    return {
        "setup_s": timing(setup),
        "build_s": timing(walls("build")),
        "verify_s": timing(walls("verify")),
        "reject_s": timing(walls("reject")),
        "instances_per_s": {"median": child["instances"] / sum(op["wall"] for op in ops)},
        "cpu_s": {"median": (cpu - child["setup_cpu_s"]) / child["passes"]},
        "peak_rss_mb": {"median": rss},
        "fail_frac": {"median": sum(not op["ok"] for op in ops) / len(ops)},
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, help="append the full record to this JSON-lines file")
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "gammoids" / "cli.py").is_file():
        print(f"no gammoids package under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    load_start = os.getloadavg()[0]
    OUT.mkdir(exist_ok=True)
    work = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    log = work / "child.log"
    common = ["--workload", args.workload, "--seed", str(args.seed), "--work", str(work)]
    try:
        setup = []
        for k in range(SETUP_PROBES + 1):
            out = work / f"result-{k}.json"
            extra = ["--setup-only"] if k < SETUP_PROBES else ["--trace", str(args.trace)]
            started, code, cpu, rss = spawn(
                common + ["--seconds", str(args.seconds), "--out", str(out)] + extra, log, deadline
            )
            if code != 0 or not out.is_file():
                tail = log.read_text(errors="replace")[-2000:]
                print(f"workload process exited {code}:\n{tail}", file=sys.stderr)
                return 1
            child = json.loads(out.read_text())
            setup.append(child["ready"] - started)
    except TimeoutError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(child["ops"])
    failed = sum(not op["ok"] for op in child["ops"])
    e2e = end_to_end(child, setup, cpu, rss)
    if args.trace:
        names = spec["per_layer"]
        metrics = {m["name"]: {"value": child["per_layer"][m["name"]], "unit": m["unit"]} for m in names}
    else:
        names = spec["end_to_end"]
        metrics = {m["name"]: {"value": e2e[m["name"]]["median"], "unit": m["unit"]} for m in names}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": {**environment(), "load1_start": load_start, "load1_end": os.getloadavg()[0]},
        "passes": child["passes"],
        "instances": child["instances"],
        "end_to_end": None if args.trace else e2e,
        "per_layer": child.get("per_layer"),
        "self_times": child.get("self_times"),
        "digests": child["digests"],
        "failures": child["failures"],
        **result,
    }
    if args.record:
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")

    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units["fail_frac"] = "ratio"
    print(
        f"{args.workload} seed {args.seed}: {child['passes']} passes, "
        f"{child['instances']} instances, {attempted} operations, {failed} failed"
    )
    for failure in child["failures"]:
        print(f"  FAILED {failure}")
    if args.trace:
        for name, value in sorted(child["per_layer"].items()):
            print(f"  {name:42} {value:14.4f}")
        print("  largest self times per pass:")
        ranked = sorted(child["self_times"].items(), key=lambda kv: -kv[1])
        for name, value in ranked[:8]:
            print(f"    {name:40} {value:14.4f} s")
    else:
        for name, stats in e2e.items():
            extra = ", ".join(f"{k} {v:.4g}" for k, v in stats.items() if k != "median")
            print(f"  {name:16} {stats['median']:12.4f} {units[name]}  {extra}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
