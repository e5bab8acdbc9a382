"""Span tracing for the benchmark's traced run.

Spans are recorded from outside the library: each public function of a layer
is replaced by a wrapper at every place a caller looks it up. ``scheme``,
``games``, ``adversaries``, ``mvpoly`` and ``cli`` bind functions such as
``rref``, ``matmul_mod`` and ``encrypt`` with ``from .x import``, so the
wrapper is installed under every module attribute that holds the original
object, not only in the defining module. Methods are wrapped on their class.

Spans live in flat arrays in memory and are written once, after the run.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

from mvphe import adversaries, cli, files, games, linalg, mvpoly, sampling, scheme

GAME_SPANS = ("games.hsm_game", "games.dlwe_game", "games.indcpa_game")
INT64_LIMIT = 2**62


class Tracer:
    """Span recorder: name, start, end, parent span and benchmark unit id."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.unit = array("i")
        self.units: list[str] = []  # unit id -> "phase:index"
        self.phase = ""
        self._stack: list[int] = []
        self.open = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self.keygen_n = 0

    def begin_unit(self, phase: str, index: int):
        self.phase = phase
        self.units.append(f"{phase}:{index}")

    def enter(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.unit.append(len(self.units) - 1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.open[name] += 1
        self.calls[name] += 1
        self.start.append(time.perf_counter())
        return idx

    def exit(self, idx: int, name: str):
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self.open[name] -= 1

    def self_ms(self) -> tuple[dict, dict]:
        """Self time per span name in ms, overall and per benchmark phase."""
        child = defaultdict(float)
        for i in range(len(self.start)):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        total = defaultdict(float)
        by_phase = defaultdict(lambda: defaultdict(float))
        for i in range(len(self.start)):
            own = (self.end[i] - self.start[i] - child.get(i, 0.0)) * 1e3
            name = self.names[self.name_id[i]]
            total[name] += own
            phase = self.units[self.unit[i]].split(":")[0] if self.unit[i] >= 0 else ""
            by_phase[phase][name] += own
        return dict(total), {k: dict(v) for k, v in by_phase.items()}

    def durations_ms(self, name: str) -> list[float]:
        nid = self._name_ids.get(name)
        return [
            (self.end[i] - self.start[i]) * 1e3
            for i in range(len(self.start))
            if self.name_id[i] == nid
        ]

    def write(self, path: Path):
        """One CSV line per span: name, start_s, end_s, parent, unit."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as fh:
            fh.write("name,start_s,end_s,parent,unit\n")
            for i in range(len(self.start)):
                u = self.unit[i]
                fh.write(
                    f"{self.names[self.name_id[i]]},{self.start[i] - t0:.9f},"
                    f"{self.end[i] - t0:.9f},{self.parent[i]},"
                    f"{self.units[u] if u >= 0 else ''}\n"
                )


# ---------------------------------------------------------------------------
# counters computed from operand shapes, recorded at the call boundary

def _matmul_pre(t: Tracer, args, kwargs):
    A, B, q = args
    k = A.shape[-1]
    blocks = math.ceil(k / max(1, INT64_LIMIT // (q * q)))
    rows = math.prod(A.shape[:-1])
    cols = B.shape[1] if B.ndim == 2 else 1
    t.counts["linalg.matmul_mod.blocks"] += blocks
    t.counts["linalg.matmul_mod.macs"] += rows * k * cols
    if t.phase == "encrypt" and t.open["scheme.encrypt"]:
        t.counts["encrypt_phase.matmul_blocks"] += blocks


def _rref_pre(t: Tracer, args, kwargs):
    rows, cols = args[0].data.shape
    t.counts["linalg.rref.cells"] += rows * cols


def _evaluation_matrix_pre(t: Tracer, args, kwargs):
    points = args[2]
    if t.open["scheme.keygen"] and len(points) == t.keygen_n:
        t.counts["scheme.keygen.point_sets"] += 1


def _keygen_pre(t: Tracer, args, kwargs):
    t.keygen_n = args[0].n
    if t.open["games.estimate_advantage"] or any(t.open[g] for g in GAME_SPANS):
        t.counts["games.keygen_in_trial"] += 1


def _keygen_post(t: Tracer, args, result):
    t.counts["scheme.keygen.keys"] += 1


def _encrypt_pre(t: Tracer, args, kwargs):
    if t.phase == "encrypt":
        t.counts["encrypt_phase.encrypts"] += 1


def _save_post(t: Tracer, args, result):
    t.counts["files.bytes_written"] += Path(args[0]).stat().st_size


# (owner, attribute, span name, pre hook, post hook); functions owned by a
# module are also replaced wherever another mvphe module re-binds them.
FUNCTIONS = [
    (sampling, "sample_noise_vector", "sampling.noise_vector", None, None),
    (linalg, "matmul_mod", "linalg.matmul_mod", _matmul_pre, None),
    (linalg, "rref", "linalg.rref", _rref_pre, None),
    (linalg, "dot_mod", "linalg.dot_mod", None, None),
    (mvpoly, "evaluation_matrix", "mvpoly.evaluation_matrix", _evaluation_matrix_pre, None),
    (mvpoly, "ideal_truncated_basis", "mvpoly.ideal_truncated_basis", None, None),
    (scheme, "keygen", "scheme.keygen", _keygen_pre, _keygen_post),
    (scheme, "encrypt", "scheme.encrypt", _encrypt_pre, None),
    (scheme, "decrypt", "scheme.decrypt", None, None),
    (scheme, "hom_add", "scheme.hom_add", None, None),
    (scheme, "hom_mult", "scheme.hom_mult", None, None),
    (scheme, "noise_bench", "scheme.noise_bench", None, None),
    (files, "load_key", "files.load_key", None, None),
    (files, "load_ciphertext", "files.load_ciphertext", None, None),
    (files, "load_evalkey", "files.load_evalkey", None, None),
    (files, "load_params", "files.load_params", None, None),
    (files, "save_params", "files.save", None, _save_post),
    (files, "save_key", "files.save", None, _save_post),
    (files, "save_ciphertext", "files.save", None, _save_post),
    (files, "save_evalkey", "files.save", None, _save_post),
    (games, "estimate_advantage", "games.estimate_advantage", None, None),
    (games, "hsm_game", "games.hsm_game", None, None),
    (games, "dlwe_game", "games.dlwe_game", None, None),
    (games, "indcpa_game", "games.indcpa_game", None, None),
    (cli, "main", "cli.main", None, None),
]

METHODS = [
    (sampling.RandomStream, "derive", "sampling.derive"),
    (sampling.RandomStream, "uniform_fq", "sampling.uniform_fq"),
    (games.HsmOracles, "sample", "games.oracle"),
    (games.HsmOracles, "challenge", "games.oracle"),
    (games.DlweOracles, "sample", "games.oracle"),
    (games.DlweOracles, "challenge", "games.oracle"),
    (games.IndCpaOracles, "encrypt_zero", "games.oracle"),
    (games.IndCpaOracles, "left_right", "games.oracle"),
] + [
    (cls, "run", "adversaries.run")
    for cls in vars(adversaries).values()
    if isinstance(cls, type) and cls.__module__ == adversaries.__name__ and "run" in vars(cls)
]


def _wrap(t: Tracer, name: str, fn, pre=None, post=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if pre is not None:
            pre(t, args, kwargs)
        idx = t.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            t.exit(idx, name)
        if post is not None:
            post(t, args, result)
        return result

    return wrapper


def install(t: Tracer) -> list:
    """Wrap every traced callable; returns what ``uninstall`` restores."""
    saved = []
    modules = [m for n, m in sorted(sys.modules.items()) if n == "mvphe" or n.startswith("mvphe.")]
    for owner, attr, name, pre, post in FUNCTIONS:
        original = getattr(owner, attr)
        wrapped = _wrap(t, name, original, pre, post)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    saved.append((mod, key, value))
                    setattr(mod, key, wrapped)
    for cls, attr, name in METHODS:
        original = vars(cls)[attr]
        saved.append((cls, attr, original))
        setattr(cls, attr, _wrap(t, name, original))
    return saved


def uninstall(saved: list):
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)
