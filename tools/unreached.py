#!/usr/bin/env python3
"""Print the lines of the package that the tier-1 tests never run.

    python3 tools/unreached.py [PYTEST ARGS]

Runs pytest in this process (by default with the tier-1 arguments, -q
--continue-on-collection-errors, on the configured testpaths) under a
sys.settrace hook that traces only frames whose code comes from
src/lemmabench, in every thread.  Then prints each executable line, one
that a code object of a module lists in co_lines, that no traced frame
reached, as ``file:line: source``, and exits with pytest's status.
Tracing about doubles the suite's time, so this is a tool to run by hand,
not a CI step.  Code run in a subprocess is not traced.
"""

from __future__ import annotations

import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lemmabench"


def executable_lines(code: types.CodeType) -> set[int]:
    """The line numbers code and every code object nested in it run."""
    lines = {line for _, _, line in code.co_lines() if line}  # 0: a module's entry
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= executable_lines(const)
    return lines


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))  # trace this checkout's package, not an installed one
    files = {str(path): path for path in sorted(PACKAGE.glob("*.py"))}
    ran: dict[str, set[int]] = {name: set() for name in files}

    def trace(frame, event, arg):
        lines = ran.get(frame.f_code.co_filename)
        if lines is None:
            return None

        def local(frame, event, arg):
            lines.add(frame.f_lineno)
            return local

        return local(frame, event, arg)

    import pytest

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(argv or ["-q", "--continue-on-collection-errors"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    for name, path in files.items():
        source = path.read_text("utf-8")
        text = source.splitlines()
        for line in sorted(executable_lines(compile(source, name, "exec")) - ran[name]):
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
    return int(status)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
