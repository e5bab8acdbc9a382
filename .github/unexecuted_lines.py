"""List the executable lines of src/mvphe that the tier-1 suite, or real
traffic, never runs.

Runs the tier-1 command in this process under ``sys.settrace``, tracing only
frames whose code lives in src/mvphe, then prints every executable line of
those modules (the lines of their code objects, from ``co_lines()``) that no
traced frame reached, as ``path:line: source``. Lines run only in a
subprocess are not seen. pytest's own output goes to stderr, the list to
stdout. A report, not a gate: the exit status is 0 whatever the tests or the
list say. Standard library only (plus pytest, which runs the suite).

With ``--traffic`` the traced run is real traffic instead of the tests: the
benchmark client's ``prepare()`` and ``run_plan()`` on every workload of
BENCHMARK.json, then every ``mvphe`` command through ``cli.main`` on both toy
presets and every ``mvphe game`` combination at ``--trials 100``. A line this
lists is one no user reaches: a candidate for deletion, or a refusal of
outside input that needs its own test.

Usage:
    python3 .github/unexecuted_lines.py [extra pytest arguments]
    python3 .github/unexecuted_lines.py --traffic
"""

from __future__ import annotations

import collections
import contextlib
import io
import itertools
import json
import os
import sys
import tempfile
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


def run_traced(call) -> dict[str, set[int]]:
    """Call ``call()`` and return the lines of the package it ran, per file."""
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
            call()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return seen


def run_traffic(workdir: Path):
    """The benchmark's workloads, then every CLI command and game, in this
    process; failed checks and CLI exit codes are counted on stderr."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads  # the benchmark client; it imports mvphe from src/

    from mvphe import cli, files, presets

    for spec in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]:
        session = workloads.Session(ROOT, spec["name"], 1, 1.0, workdir / spec["name"])
        session.prepare()
        session.run_plan()
        print(f"traffic: {spec['name']}: {session.failed} of {session.attempted} checks failed",
              file=sys.stderr)
    argvs = []
    for name in ("toy_additive_params", "toy_mult_params"):
        params, key, evk, c1, c2, out = (str(workdir / f"{name}{f}.json") for f in (
            "", ".key", ".key.evk", ".c1", ".c2", ".out"))
        files.save_params(params, getattr(presets, name)())
        argvs += [["check-params", "--params", params],
                  ["keygen", "--params", params, "--seed", "1", "--out", key],
                  ["encrypt", "--key", key, "--bit", "1", "--seed", "2", "--out", c1],
                  ["encrypt", "--key", key, "--bit", "0", "--seed", "3", "--out", c2],
                  ["decrypt", "--key", key, "--in", c1],
                  ["add", "--in", c1, "--in", c2, "--out", out],
                  ["noise-bench", "--key", key, "--trials", "100", "--seed", "4"]]
        if name == "toy_mult_params":  # keygen wrote an eval key next to the key
            argvs.append(["mul", "--in", c1, "--in", c2, "--evalkey", evk, "--out", out])
    for game, adversary, reduction, as_json in itertools.product(
            ("hsm", "dlwe", "indcpa"), ("random", "rank", "oracle"),
            (None, "lemma1", "theorem1"), (False, True)):
        argvs.append(["game", game, "--adversary", adversary, "--trials", "100", "--seed", "9"]
                     + ["--reduction", reduction] * bool(reduction) + ["--json"] * as_json)
    codes = collections.Counter()
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes[cli.main(argv)] += 1
    print(f"traffic: {len(argvs)} mvphe commands, exit codes {dict(codes)}", file=sys.stderr)


def main(argv: list[str]) -> int:
    # pytest finds its configuration here, which puts src/ first on sys.path
    os.chdir(ROOT)
    if argv == ["--traffic"]:
        with tempfile.TemporaryDirectory() as tmp:
            seen, ran_under = run_traced(lambda: run_traffic(Path(tmp))), "real traffic"
    else:
        seen, ran_under = run_traced(lambda: pytest.main(TIER1 + argv)), "tier-1"
    total, unrun = 0, []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        total += len(lines)
        source = path.read_text().splitlines()
        ran = seen.get(str(path), set())
        unrun += [f"{path.relative_to(ROOT)}:{n}: {source[n - 1].strip()}"
                  for n in sorted(lines - ran)]
    print(f"{len(unrun)} of {total} executable lines in src/mvphe never ran under {ran_under}")
    print("\n".join(unrun))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
