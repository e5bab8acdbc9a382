"""List the executable lines of src/mvphe that the tier-1 suite never runs.

Runs the tier-1 command in this process under ``sys.settrace``, tracing only
frames whose code lives in src/mvphe, then prints every executable line of
those modules (the lines of their code objects, from ``co_lines()``) that no
traced frame reached, as ``path:line: source``. Lines run only in a
subprocess are not seen. pytest's own output goes to stderr, the list to
stdout. A report, not a gate: the exit status is 0 whatever the tests or the
list say. Standard library only (plus pytest, which runs the suite).

Usage:
    python3 .github/unexecuted_lines.py [extra pytest arguments]
"""

from __future__ import annotations

import contextlib
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mvphe"
# the tier-1 command of ROADMAP.md, with CI's warning flags
TIER1 = ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
         "-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning",
         "-W", "error::FutureWarning"]


def executable_lines(path: Path) -> set[int]:
    """Every line that some code object compiled from ``path`` maps to."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def run_traced(pytest_args: list[str]) -> dict[str, set[int]]:
    """Run pytest on ``pytest_args`` and return the lines run per file."""
    prefix = str(PACKAGE) + "/"
    seen: dict[str, set[int]] = {}

    def local(frame, event, arg):
        seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def start(frame, event, arg):
        # 'call' is the only event a global trace function receives; frames
        # outside the package get no local trace and cost nothing more
        path = frame.f_code.co_filename
        if not path.startswith(prefix):
            return None
        seen.setdefault(path, set()).add(frame.f_lineno)
        return local

    threading.settrace(start)
    sys.settrace(start)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return seen


def main(argv: list[str]) -> int:
    # pytest finds its configuration here, which puts src/ first on sys.path
    os.chdir(ROOT)
    seen = run_traced(TIER1 + argv)
    total, unrun = 0, []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        total += len(lines)
        source = path.read_text().splitlines()
        ran = seen.get(str(path), set())
        unrun += [f"{path.relative_to(ROOT)}:{n}: {source[n - 1].strip()}"
                  for n in sorted(lines - ran)]
    print(f"{len(unrun)} of {total} executable lines in src/mvphe never ran under tier-1")
    print("\n".join(unrun))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
