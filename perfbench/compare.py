"""Compare two result sets written by ``run.py --record``.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

For each workload and metric present in both sets it prints each side's
median and quartiles, the fraction of pairs the change wins (runs paired
by seed, ties counting for neither side) and a verdict:

- ``better``: the change wins at least nine tenths of the pairs and the
  medians differ by more than the parent's quartile spread;
- ``worse``: the change's median is worse than the parent's by more than
  the metric's bound in ``BENCHMARK.json`` (per-layer metrics have no
  bound; for them ``worse`` mirrors ``better``);
- ``unresolved``: the parent's own quartile spread is wider than the
  bound and not every run of the change beats every run of the parent;
- ``within-bound``: none of the above;
- ``same``: equal medians and no spread (counts that did not move);
- ``changed``: the parent's median is 0 and the change's values are not
  all 0 (a metric such as ``matroid.from_bases_build_s`` that should stay
  at 0).

End-to-end metrics come from untraced runs, per-layer metrics from traced
runs.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def load(path: str) -> dict[tuple[str, str], dict[int, float]]:
    """(workload, metric) -> {seed: value}."""
    values: dict[tuple[str, str], dict[int, float]] = defaultdict(dict)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if rec["trace"]:
                found = rec["per_layer"]
            else:
                found = {name: stats["median"] for name, stats in rec["end_to_end"].items()}
            for name, value in found.items():
                runs = values[rec["workload"], name]
                if rec["seed"] in runs:
                    sys.exit(f"{path}: {rec['workload']} seed {rec['seed']} is recorded twice")
                runs[rec["seed"]] = value
    return values


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def verdict(
    runs_a: dict[int, float], runs_b: dict[int, float], lower: bool, bound: float | None
) -> tuple[float, str]:
    """Pair win fraction of ``b`` over ``a`` (pairs share a seed) and the verdict for ``b``."""
    def beats(x: float, y: float) -> bool:
        return x < y if lower else x > y

    a, b = list(runs_a.values()), list(runs_b.values())
    pairs = [(runs_a[seed], runs_b[seed]) for seed in runs_a if seed in runs_b]
    wins = sum(beats(y, x) for x, y in pairs) / len(pairs) if pairs else float("nan")
    losses = sum(beats(x, y) for x, y in pairs) / len(pairs) if pairs else float("nan")
    q1a, ma, q3a = quartiles(a)
    _, mb, _ = quartiles(b)
    spread = q3a - q1a
    if ma == 0:
        return wins, "same" if not any(a) and not any(b) else "changed"
    if ma == mb and spread == 0:
        return wins, "same"
    if wins >= 0.9 and abs(mb - ma) > spread:
        return wins, "better"
    if bound is None:
        return wins, "worse" if losses >= 0.9 and abs(mb - ma) > spread else "unresolved"
    worse_by = (mb - ma) / ma if lower else (ma - mb) / ma
    if worse_by > bound:
        return wins, "worse"
    all_better = all(beats(y, x) for x in a for y in b)
    if spread / ma > bound and not all_better:
        return wins, "unresolved"
    return wins, "within-bound"


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = load(sys.argv[1]), load(sys.argv[2])
    specs = [(m, m.get("bound")) for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    workloads = sorted({w for w, _ in parent} & {w for w, _ in change})
    print(f"{'workload':14} {'metric':42} {'parent q1/median/q3':>32} "
          f"{'change q1/median/q3':>32} {'wins':>5} verdict")
    for w in workloads:
        for m, bound in specs:
            a, b = parent.get((w, m["name"])), change.get((w, m["name"]))
            if not a or not b:
                continue
            pa, pb = quartiles(list(a.values())), quartiles(list(b.values()))
            wins, word = verdict(a, b, m["better"] == "lower", bound)
            fmt = "{:.4g}/{:.4g}/{:.4g}"
            print(f"{w:14} {m['name']:42} {fmt.format(*pa):>32} {fmt.format(*pb):>32} "
                  f"{wins:5.2f} {word}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
