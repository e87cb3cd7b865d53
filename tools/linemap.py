"""A line map of ``src/qcert``: the executable lines that production never
runs, and for each of them the tier-1 tests that run it.

    python tools/linemap.py

Two runs in this process, each under ``sys.settrace``.  The production run
calls ``qcert.cli.main`` over ``INVOCATIONS``: the README's command-line
examples, each documented ``--family`` and ``--format`` value,
``certify --n-star``, a 1536-bit ``certify`` and ``reproduce-all`` with and
without ``--with-errata`` and timing.  The tier-1 run calls ``pytest.main``
with a plugin that records, for each line, the node ids of the tests that
run it (a line run while a test module is collected is credited to that
module, and the work of a shared fixture to the first test that asks for
it).  For each module the tool prints each line that production never
runs, with the first three tests that run it (and their number, if there
are more), or ``UNRUN`` if no test does.  ``line_map()`` returns the whole map, every
executable line with its tests, for a tool that picks the tests of a line.

Neither run sees code that runs in a subprocess: a test that starts
``qcert`` or Python in a child process is credited with no line the child
runs.  Tracing makes tier-1 about three times slower.
"""

from __future__ import annotations

import contextlib
import io
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qcert"

INVOCATIONS = [
    # the README's examples
    ["qtable", "--n", "9"],
    ["qtable", "--range", "0..9", "--format", "text"],
    ["coeffs", "--family", "full", "--index", "1", "--s", "0"],
    ["bounds", "--n", "6000", "--s", "0", "--N", "14", "--format", "csv"],
    ["verify", "double-turan"],
    ["certify", "ineq1"],
    ["reproduce-all"],
    ["reproduce-all", "--with-errata"],
    # each documented value
    *(["coeffs", "--family", family, "--index", "3", "--s", "2"] for family in ("exp", "binom", "expbinom", "bessel")),
    ["qtable", "--range", "0..9", "--format", "csv"],
    ["bounds", "--n", "6000", "--count", "2", "--format", "json"],
    ["certify", "ineq2", "--n-star", "6000"],
    ["--precision", "1536", "certify", "ineq1"],
    ["--no-timing", "reproduce-all"],
    ["--no-timing", "reproduce-all", "--with-errata"],
]


class Line(NamedTuple):
    production: bool  # run by some invocation
    tests: tuple[str, ...]  # node ids of the tests that run it, in run order


def executable_lines(path: Path) -> set[int]:
    """The lines of path's code objects, nested ones included."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


@contextlib.contextmanager
def _traced(hits: list[set]):
    """Add (file, line) of every line run in ``PACKAGE`` to the set hits[0]."""
    files = {str(p) for p in PACKAGE.glob("*.py")}

    def local(frame, event, arg):
        if event == "line":
            hits[0].add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        if frame.f_code.co_filename not in files:
            return None
        hits[0].add((frame.f_code.co_filename, frame.f_lineno))
        return local

    threading.settrace(call)
    sys.settrace(call)
    try:
        yield
    finally:
        sys.settrace(None)
        threading.settrace(None)


class _Recorder:
    """pytest plugin: while a test runs, or a module is collected, its lines go to its own set."""

    def __init__(self, hits: list[set]):
        self.hits, self.by_test = hits, {}

    def _start(self, nodeid: str) -> None:
        self.hits[0] = self.by_test.setdefault(nodeid, set())

    def pytest_collectstart(self, collector):
        self._start(collector.nodeid)

    def pytest_runtest_logstart(self, nodeid, location):
        self._start(nodeid)


def line_map() -> dict[str, dict[int, Line]]:
    """{module file name: {line: Line}} over every executable line of ``PACKAGE``."""
    sys.path.insert(0, str(PACKAGE.parent))
    hits = [set()]
    with _traced(hits), contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        from qcert.cli import main

        for argv in INVOCATIONS:
            main(argv)
    production, recorder = hits[0], _Recorder(hits)
    with _traced(hits):
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")], plugins=[recorder])
    if status != 0:
        raise RuntimeError(f"tier-1 exited {status} under the trace")
    tests = {}
    for nodeid, seen in recorder.by_test.items():
        for key in seen:
            tests.setdefault(key, []).append(nodeid)
    return {path.name: {line: Line((str(path), line) in production, tuple(tests.get((str(path), line), ())))
                        for line in sorted(executable_lines(path))}
            for path in sorted(PACKAGE.glob("*.py"))}


def main() -> int:
    start = time.perf_counter()
    lines = line_map()
    total = sum(len(m) for m in lines.values())
    unrun = tested = 0
    for module, table in lines.items():
        rows = [(line, info.tests) for line, info in table.items() if not info.production]
        if rows:
            print(module)
        for line, ids in rows:
            unrun += not ids
            tested += bool(ids)
            more = f", ... ({len(ids)} tests)" if len(ids) > 3 else ""
            print(f"  {line:5d}  " + (", ".join(ids[:3]) + more if ids else "UNRUN"))
    print(f"{total} executable lines: {total - unrun - tested} run by production, "
          f"{tested} by tests only, {unrun} by neither ({time.perf_counter() - start:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
