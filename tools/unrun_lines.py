"""Print every line of src/phasekit that no test runs.

    python3 tools/unrun_lines.py [pytest arguments]

Runs pytest in this process (default arguments: the tests directory) under
a sys.settrace tracer that follows only frames of src/phasekit, then prints
each executable line, as the compiled modules' co_lines name them, that no
traced frame reached.  Code that a test runs in a child process, such as the
`phasekit` entry point, is not traced.  Tracing slows Python code, so
hypothesis runs with no deadline.  Acceptance criteria 8 and 9 fail by
design; `-k "not criterion_08 and not criterion_09"` leaves them out, and
then also shows the lines only they reach.  Writes no file: no bytecode, no
pytest cache and no hypothesis example database.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "phasekit"


def executable_lines(path: Path) -> set[int]:
    """The line numbers of every instruction of the module at path."""
    lines, codes = set(), [compile(path.read_text(), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


class _Untimed:
    """A pytest plugin: hypothesis keeps no deadline and no example database."""

    @staticmethod
    def pytest_configure(config):
        from hypothesis import settings

        settings.register_profile("traced", database=None, deadline=None)
        settings.load_profile("traced")


def main(argv: list[str]) -> int:
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    paths = sorted(PACKAGE.glob("*.py"))
    ran = {str(path): set() for path in paths}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        if frame.f_code.co_filename not in ran:
            return None
        ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *(argv or [str(ROOT / "tests")])],
                             plugins=[_Untimed()])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    unrun = 0
    for path in paths:
        source = path.read_text().splitlines()
        for line in sorted(executable_lines(path) - ran[str(path)]):
            unrun += 1
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    print(f"{unrun} unrun lines in {len(paths)} modules (pytest exit {int(status)})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
