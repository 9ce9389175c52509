"""List the executable lines of ``src/gammoids`` that no test runs.

The ``coverage`` package is not a dependency of this project, so this
script records lines itself: it sets ``sys.settrace`` and
``threading.settrace`` to note every line run in ``src/gammoids/*.py``,
runs the test suite in-process, then compiles each module and collects
every executable line from ``co_lines()``, recursively through nested
code objects. It prints ``file:line: source`` for each line that no test
ran, then their total.

The ``*_no_reference_cycle`` tests are deselected: they assert that an
object is freed without the cycle collector, and the tracer holds frames,
hence references to their locals, so they fail under it.
It takes a few minutes. Run from the repository root::

    PYTHONPATH=src python tests/line_trace.py
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gammoids"


def executable_lines(code) -> set[int]:
    """Every line that starts an instruction in ``code`` or a code object it holds."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= executable_lines(const)
    return lines


def main() -> int:
    # read before the run, so that an edit made meanwhile cannot shift a line
    sources = {os.path.realpath(path): path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    ran: dict[str, set[int]] = {name: set() for name in sources}
    by_code_name: dict[str, set[int] | None] = {}

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in by_code_name:
            by_code_name[name] = ran.get(os.path.realpath(name))
        seen = by_code_name[name]
        if seen is None:
            return None  # no line events outside the package
        seen.add(frame.f_lineno)

        def local(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return local

        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main([
            "-q", "-p", "no:cacheprovider", "-k", "not reference_cycle",
            str(ROOT / "tests"), str(ROOT / "perfbench" / "tests"),
        ])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missing = 0
    for name, source in sources.items():
        lines = source.splitlines()
        for line in sorted(executable_lines(compile(source, name, "exec")) - ran[name]):
            print(f"{Path(name).relative_to(PACKAGE.parent)}:{line}: {lines[line - 1].strip()}")
            missing += 1
    print(f"{missing} executable lines not run by any test")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
