"""Rewrite ``digests.json`` from the certificates this checkout builds.

    python3 perfbench/record_digests.py

Run from the root of a checkout, on the commit whose certificate bytes
become the reference. It builds every input of the default seeds (1-10)
of each workload once through ``gammoids.cli.main``, with the checks of a
benchmark run, and records the sha256 of each certificate by workload,
seed and instance key (``<round>.<index>``). Every later run of those
seeds, traced or not, re-checks its certificates against the file.
"""

from __future__ import annotations

import json
import shutil
import sys

import child

DEFAULT_SEEDS = range(1, 11)


def main() -> int:
    work = child.ROOT / ".perfbench_out" / "record-digests"
    shutil.rmtree(work, ignore_errors=True)
    digests: dict[str, dict[str, dict[str, str]]] = {}
    try:
        for workload in child.SETTINGS:
            for seed in DEFAULT_SEEDS:
                (work / f"{workload}-{seed}").mkdir(parents=True)
                runner = child.Runner(workload, seed, work / f"{workload}-{seed}")
                runner.recorded = {}
                for items in child.make_passes(workload, seed, runner.work):
                    for inst in items:
                        runner.build(inst)
                if runner.failures:
                    print("\n".join(runner.failures), file=sys.stderr)
                    return 1
                digests.setdefault(workload, {})[str(seed)] = runner.seen
                print(f"{workload} seed {seed}: {len(runner.seen)} certificates", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    child.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
