"""Spans around the package's public functions, recorded from outside it.

:class:`Tracer` replaces each traced function by a wrapper wherever a
``gammoids`` module binds it (``from .x import f`` copies the binding, so
patching the defining module alone would miss calls made through an
importing module) and restores the originals on :meth:`Tracer.remove`.
Spans are kept in memory: name, parent, start, end, a tag and a size.
:func:`layer_metrics` turns them into the benchmark's per-layer numbers.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from collections import defaultdict

SURGERY = (
    "surgery.contract_target",
    "surgery.delete_element",
    "surgery.retarget",
    "surgery.contract_any",
    "surgery.free_extension",
    "surgery.add_coloop",
    "surgery.two_bases_embedding",
)
MINORS = ("Matroid.delete", "Matroid.contract", "Matroid.equals", "Matroid.relax", "Matroid.dual")
CIRCUITS = ("Matroid.circuit_masks", "Matroid.nonspanning_circuit_masks")
LINKING = ("digraph.max_linking", "digraph.is_linked")
MATERIALIZE = "digraph.linkage_matroid"

# module-level functions, keyed by their defining module
FUNCTIONS = {
    "construction": ("construct", "certify", "normalize"),
    "surgery": tuple(name.split(".")[1] for name in SURGERY),
    "digraph": ("linkage_matroid", "max_linking", "is_linked"),
    "certificate": ("certificate_to_json", "parse_presentation", "verify_certificate"),
}
METHODS = tuple(name.split(".")[1] for name in MINORS + CIRCUITS) + (
    "verify_axioms",
    "from_bases",
)


def _masks(args, result) -> int:
    return 1 << len(args[0].ground)


def _length(args, result) -> int:
    return len(result)


SIZES = {MATERIALIZE: _masks, "certificate.certificate_to_json": _length}


class Tracer:
    """Records one span per call of every traced function while installed."""

    def __init__(self) -> None:
        # each span: [name, parent index or -1, start, end, tag, size]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _open(self, name: str, tag: str) -> list:
        span = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0, tag, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[2] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[3] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, tag: str = ""):
        span = self._open(name, tag)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, name: str, fn):
        size = SIZES.get(name)

        def traced(*args, **kwargs):
            span = self._open(name, "")
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if size is not None:
                span[5] = size(args, result)
            return result

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        from gammoids.matroid import Matroid

        modules = [m for key, m in sys.modules.items() if key.startswith("gammoids") and m]
        for short, names in FUNCTIONS.items():
            home = sys.modules[f"gammoids.{short}"]
            for attr in names:
                original = getattr(home, attr)
                wrapper = self._wrap(f"{short}.{attr}", original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._set(module, key, wrapper)
        for attr in METHODS:
            original = Matroid.__dict__[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(f"Matroid.{attr}", original.__func__))
            else:
                wrapped = self._wrap(f"Matroid.{attr}", original)
            self._set(Matroid, attr, wrapped)

    def remove(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def span_cost(self, calls: int = 20000) -> float:
        """Measured seconds that recording one span adds to a call."""

        def noop() -> None:
            return None

        traced = self._wrap("calibration", noop)
        keep = len(self.spans)
        costs = []
        for fn in (noop, traced, noop, traced):
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            costs.append(time.perf_counter() - start)
        del self.spans[keep:]
        return max(0.0, (costs[1] + costs[3] - costs[0] - costs[2]) / (2 * calls))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for k, (name, parent, start, end, tag, size) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": k, "name": name, "parent": parent, "start": start,
                         "end": end, "tag": tag, "size": size}
                    )
                    + "\n"
                )


def layer_metrics(spans: list[list], passes: int, span_cost: float) -> tuple[dict, dict]:
    """Per-layer metrics per pass, and self time per span name per pass.

    Self time is a span's duration minus the durations of its child spans.
    A group's time sums only the spans with no ancestor in the same group,
    so a traced function calling another member is not counted twice.
    ``span_cost`` is the measured cost of recording one span; the tracing
    overhead is that cost for every span, over the traced wall time less it.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for k, span in enumerate(spans):
        if span[1] >= 0:
            children[span[1]].append(k)

    def dur(k: int) -> float:
        return spans[k][3] - spans[k][2]

    def self_time(k: int) -> float:
        return dur(k) - sum(dur(c) for c in children[k])

    def ancestors(k: int):
        k = spans[k][1]
        while k >= 0:
            yield k
            k = spans[k][1]

    def named(names) -> list[int]:
        names = (names,) if isinstance(names, str) else names
        return [k for k, span in enumerate(spans) if span[0] in names]

    def under(k: int, names) -> bool:
        names = (names,) if isinstance(names, str) else names
        return any(spans[a][0] in names for a in ancestors(k))

    def outer(names) -> list[int]:
        return [k for k in named(names) if not under(k, names)]

    def total(ks) -> float:
        return sum(dur(k) for k in ks)

    def builds(k: int) -> bool:
        return any(spans[a][0] == "cli.main" and spans[a][4] == "build" for a in ancestors(k))

    materializations = named(MATERIALIZE)
    masks = sum(spans[k][5] for k in materializations)
    materialize_s = sum(
        dur(k) - sum(dur(c) for c in children[k] if spans[c][0] == "Matroid.verify_axioms")
        for k in materializations
    )
    cli_spans = named("cli.main")
    m = {
        "cli.calls": len(cli_spans),
        "cli.overhead_s": sum(self_time(k) for k in cli_spans),
        "construction.construct_s": total(outer("construction.construct")),
        "construction.certify_s": total(outer("construction.certify")),
        "construction.normalize_s": total(outer("construction.normalize")),
        "construction.self_s": sum(
            self_time(k) for k in named(("construction.construct", "construction.certify"))
        ),
        "construction.construct_materializations": sum(
            under(k, "construction.construct") for k in materializations
        ),
        "construction.certify_materializations": sum(
            under(k, "construction.certify") for k in materializations
        ),
        "surgery.calls": len(named(SURGERY)),
        "surgery.self_s": sum(self_time(k) for k in named(SURGERY)),
        "surgery.materializations": sum(under(k, SURGERY) for k in materializations),
        "digraph.materializations": len(materializations),
        "digraph.masks": masks,
        "digraph.materialize_s": materialize_s,
        "digraph.linking_calls": len(outer(LINKING)),
        "digraph.linking_s": total(outer(LINKING)),
        "matroid.verify_axioms_calls": len(named("Matroid.verify_axioms")),
        "matroid.verify_axioms_s": total(outer("Matroid.verify_axioms")),
        "matroid.from_bases_s": total(outer("Matroid.from_bases")),
        "matroid.from_bases_build_s": total(k for k in outer("Matroid.from_bases") if builds(k)),
        "matroid.minor_calls": len(outer(MINORS)),
        "matroid.minor_s": total(outer(MINORS)),
        "matroid.circuits_s": total(outer(CIRCUITS)),
        "certificate.to_json_s": total(outer("certificate.certificate_to_json")),
        "certificate.bytes": sum(spans[k][5] for k in named("certificate.certificate_to_json")),
        "certificate.parse_s": total(outer("certificate.parse_presentation")),
        "certificate.verify_self_s": sum(
            self_time(k) for k in named("certificate.verify_certificate")
        ),
        "certificate.verify_materializations": sum(
            under(k, "certificate.verify_certificate") for k in materializations
        ),
        "trace.wall_s": total(k for k in cli_spans if spans[k][1] < 0),
    }
    per_pass = {name: value / passes for name, value in m.items()}
    per_pass["digraph.masks_per_s"] = masks / materialize_s if materialize_s else 0.0
    tracing = span_cost * len(spans)
    per_pass["trace.overhead_frac"] = tracing / (m["trace.wall_s"] - tracing)
    by_name: dict[str, float] = defaultdict(float)
    for k, span in enumerate(spans):
        by_name[span[0]] += self_time(k) / passes
    return per_pass, dict(by_name)
