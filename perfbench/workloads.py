"""The benchmark's closed-loop client: one caller in one process that issues
the next library call only after the previous one returned.

A workload fixes a parameter regime and a plan of phases. Every workload
reports every end-to-end metric, so every plan holds every phase; the games
phases run at the toy presets in both. Phases with a fixed unit count run
their part in each of ROUNDS interleaved rounds (keygen and cli report
latency percentiles, and a fixed count keeps the percentile reported the same
from run to run); phases with a time share split the rest of each round, so
every throughput metric is measured for a fixed share of the whole run.
Library functions are always looked up as module attributes
(``scheme.encrypt``) so the traced run can wrap them.
"""

from __future__ import annotations

import contextlib
import functools
import io
import math
import os
import random
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from mvphe import adversaries, cli, files, games, scheme
from mvphe.field import FieldContext
from mvphe.mvpoly import IdealSpec, MonomialIndex, Polynomial, monomial_count
from mvphe.presets import toy_additive_params, toy_mult_params
from mvphe.sampling import NoiseSpec, RandomStream

import spans as tracing

REFERENCE_SECONDS = 55  # plan unit counts are sized for this run length
ROUNDS = 20
TRACED_FACTOR = 0.3  # the traced run's plan: this share of each reference count
CLI_STEPS = 11  # invocations in one cycle of the CLI script, import floors included
TAIL_GRID = (75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_BEYOND = 10

Q31 = 2**31 - 1
SCALED_ALPHA = "0.0000000037252903"  # alpha * q = 8.0000 at q = 2^31 - 1
SCALED_D2R, SCALED_NENC = 69, 210

GAME_Q, GAME_N, GAME_ALPHA_Q, GAME_TRIALS = 10007, 12, 8.0, 100
LATENCY_KEYS = ("keygen", "cli", "import")  # reported as percentiles of single calls
POOL = 8   # fresh ciphertexts per encrypt unit; add and mult draw their operands from them
PAIRS = 8  # operand pairs per add or mult unit


def scaled_q31_params(seed: int) -> scheme.SchemeParams:
    """Two random dense degree-3 generators in ell = 4 over q = 2^31 - 1,
    r = 3, mult mode, n = 73: d_2r = 69 and N_enc = 210."""
    rng = np.random.default_rng([seed, 31])
    ctx = FieldContext(Q31)
    index = MonomialIndex(4, 3)
    gens = []
    while len(gens) < 2:
        g = Polynomial(index, ctx, rng.integers(0, Q31, size=index.size))
        if g.degree() == 3:
            gens.append(g)
    params = scheme.SchemeParams(
        lam=32, q=Q31, ell=4, r=3, n=73, alpha=SCALED_ALPHA, epsilon="0.01",
        mode=scheme.MODE_MULT, ideal=IdealSpec(gens), headroom=2,
    )
    n_enc = monomial_count(params.ell, params.enc_degree())
    if n_enc != SCALED_NENC:
        raise RuntimeError(f"scaled-q31: N_enc = {n_enc}, expected {SCALED_NENC}")
    return params


def regime(params: scheme.SchemeParams, sk: scheme.SecretKey) -> dict:
    return {
        "q": params.q, "n": params.n, "ell": params.ell, "r": params.r,
        "mode": params.mode, "alpha_q": params.alpha_f * params.q,
        "N_enc": monomial_count(params.ell, params.enc_degree()),
        "d_r": sk.d_r, "d_2r": sk.d_2r,
    }


# ---------------------------------------------------------------------------
# statistics

def tail(samples) -> tuple[float, float]:
    """(percentile, value): the highest percentile of TAIL_GRID with at least
    TAIL_BEYOND samples above it, by nearest rank; else (50, the median)."""
    xs = sorted(samples)
    best = (50.0, statistics.median(xs))
    for p in TAIL_GRID:
        rank = math.ceil(p / 100.0 * len(xs))
        if len(xs) - rank >= TAIL_BEYOND:
            best = (p, xs[rank - 1])
    return best


def rate(per_round: dict, per_unit: float = 1.0) -> float:
    """Units per second from {round: [units, summed seconds]}: the median over
    rounds of (units in the round / their summed time). Within a round it is
    a mean, because CPU speed on a shared host swings between two levels
    within a second and a median of single units jumps between them; across
    rounds it is a median, so a stretch of slow rounds moves it less than a
    run-wide mean would."""
    return statistics.median(per_unit * n / total for n, total in per_round.values())


# ---------------------------------------------------------------------------
# phases

@dataclass(frozen=True)
class Phase:
    name: str
    units: int            # unit count at REFERENCE_SECONDS (the traced plan runs TRACED_FACTOR)
    share: float = 0.0    # > 0: runs for this share of the time left after fixed phases


# time shares of the throughput phases; encrypt precedes add and mult, which
# draw their operands from the ciphertexts it made
SHARES = {"encrypt": 0.2, "add": 0.1, "mult": 0.1, "noise": 0.1,
          "lemma1": 0.2, "theorem1": 0.15, "indcpa": 0.15}
PLANS = {
    "toy-mult": [Phase("keygen", 768), Phase("cli", 55)] + [
        Phase(name, units, SHARES[name]) for name, units in (
            ("encrypt", 8000), ("add", 18000), ("mult", 14000), ("noise", 100),
            ("lemma1", 10), ("theorem1", 10), ("indcpa", 2500))],
    "scaled-q31": [Phase("keygen", 80), Phase("cli", 33)] + [
        Phase(name, units, SHARES[name]) for name, units in (
            ("encrypt", 500), ("add", 10000), ("mult", 5000), ("noise", 50),
            ("lemma1", 10), ("theorem1", 10), ("indcpa", 2500))],
}
NOISE_TRIALS = {"toy-mult": 100, "scaled-q31": 20}


class Session:
    """One workload run: prepared inputs, the closed loop, checks, samples."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: float, workdir: Path):
        self.workload, self.seed = workload, seed
        self.seconds, self.workdir = seconds, workdir
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.product_errors = 0
        self.tracer: tracing.Tracer | None = None
        self.reset()

    def reset(self):
        """Restart every input stream; a second pass repeats the first exactly."""
        self.rng = random.Random(self.seed)
        self.stream = RandomStream(self.seed)
        self.derived = 0
        self.keygen_next = 0
        self.cli_cycles = 0
        self.cli_steps: list = []
        self.pool: list = []  # (bit, ciphertext) pairs from the latest encrypt unit
        # every timing is tallied per round; only the fixed-count latency
        # phases keep single samples, so peak RSS does not grow with op count
        self.tally: dict[str, dict[int, list]] = {}
        self.samples: dict[str, array] = {}
        self.round = 0
        self.phase_seconds: dict[str, float] = {}

    # -- set-up ---------------------------------------------------------------

    def prepare(self):
        """Params, the session key(s), artifact files for the CLI, warm-up."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        if self.workload == "scaled-q31":
            self.params = scaled_q31_params(self.seed)
        else:
            self.params = toy_mult_params()
        self.sk = scheme.keygen(self.params, RandomStream(self.seed))
        if self.workload == "scaled-q31" and self.sk.d_2r != SCALED_D2R:
            raise RuntimeError(f"scaled-q31: d_2r = {self.sk.d_2r}, expected {SCALED_D2R}")
        self.ek = scheme.eval_key(self.sk)
        self.game_params = toy_additive_params()
        self.game_sk = scheme.keygen(self.game_params, RandomStream(self.seed + 1))
        self.params_file = self.workdir / "params.json"
        files.save_params(self.params_file, self.params)
        # warm-up: first calls fill numpy and library caches
        ct = scheme.encrypt(self.sk, 1, RandomStream(0))
        scheme.decrypt(self.sk, scheme.hom_mult(ct, ct, self.ek))
        scheme.noise_bench(self.sk, 2, RandomStream(0))

    # -- helpers ----------------------------------------------------------------

    def next_stream(self) -> RandomStream:
        self.derived += 1
        return self.stream.derive(self.derived)

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def record(self, key: str, value: float):
        t = self.tally.setdefault(key, {}).setdefault(self.round, [0, 0.0])
        t[0] += 1
        t[1] += value
        if key in LATENCY_KEYS:
            self.samples.setdefault(key, array("d")).append(value)

    def _spawn(self, args: list[str]) -> tuple[float, subprocess.CompletedProcess]:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, *args], cwd=self.workdir, env=self.env,
            capture_output=True, text=True, timeout=120,
        )
        return time.perf_counter() - t0, proc

    # -- units --------------------------------------------------------------------

    def unit_keygen(self):
        self.keygen_next += 1
        seed = self.keygen_next  # the keygen seeds are 1, 2, ..., whatever --seed is
        t0 = time.perf_counter()
        try:
            scheme.keygen(self.params, RandomStream(seed))
        except Exception as exc:  # a keygen that raises is a failed operation
            self.check(False, f"keygen seed {seed}: {exc!r}")
            return
        self.record("keygen", time.perf_counter() - t0)
        self.check(True, "keygen")

    def _timed(self, key: str, call):
        t0 = time.perf_counter()
        out = call()
        self.record(key, time.perf_counter() - t0)
        return out

    def unit_encrypt(self):
        """POOL generated bits: encrypt each, then decrypt each; the pairs
        become the operand pool of the add and mult phases."""
        sk = self.sk
        bits = [self.rng.getrandbits(1) for _ in range(POOL)]
        cts = [self._timed("encrypt", lambda: scheme.encrypt(sk, m, self.next_stream()))
               for m in bits]
        for m, ct in zip(bits, cts):
            d = self._timed("decrypt", lambda: scheme.decrypt(sk, ct))
            self.check(d == m, f"decrypt(encrypt({m})) = {d}")
        self.pool = list(zip(bits, cts))

    def _pairs(self) -> list:
        return [tuple(self.rng.sample(self.pool, 2)) for _ in range(PAIRS)]

    def unit_add(self):
        """PAIRS generated operand pairs: add each, then decrypt each sum."""
        sk, pairs = self.sk, self._pairs()
        sums = [self._timed("add", lambda: scheme.hom_add(c1, c2)) for (_, c1), (_, c2) in pairs]
        for ((m1, _), (m2, _)), ca in zip(pairs, sums):
            d = self._timed("decrypt", lambda: scheme.decrypt(sk, ca))
            self.check(d == m1 ^ m2, f"decrypt(add) = {d}, expected {m1 ^ m2}")

    def unit_mult(self):
        """PAIRS generated operand pairs: depth-1 multiply each, check it
        against p^-1 (c1 * c2) mod q in Python ints, then decrypt it."""
        sk, ek, q, pairs = self.sk, self.ek, self.sk.params.q, self._pairs()
        prods = [self._timed("mult", lambda: scheme.hom_mult(c1, c2, ek))
                 for (_, c1), (_, c2) in pairs]
        for ((m1, c1), (m2, c2)), cm in zip(pairs, prods):
            expect = [ek.p_inverse * (a * b % q) % q for a, b in zip(c1.c.tolist(), c2.c.tolist())]
            self.check(cm.c.tolist() == expect, "hom_mult != p^-1 (c1 * c2) mod q")
            d = self._timed("decrypt", lambda: scheme.decrypt(sk, cm))
            # noisy products decrypt at chance (the scheme's known flaw): counted, not failed
            self.product_errors += d != m1 * m2

    def unit_noise(self):
        trials = NOISE_TRIALS[self.workload]
        t0 = time.perf_counter()
        rows = scheme.noise_bench(self.sk, trials, self.next_stream())
        self.record("noise", time.perf_counter() - t0)
        self.check(rows["fresh"]["error_rate"] == 0 and rows["add"]["error_rate"] == 0,
                   f"noise_bench fresh/add errors: {rows}")

    def _game(self, key: str, call, valid):
        t0 = time.perf_counter()
        try:
            res = call()
        except Exception as exc:  # a game that raises is a failed operation
            self.check(False, f"{key}: {exc!r}")
            return
        self.record(key, time.perf_counter() - t0)
        self.check(valid(res), f"{key}: {res!r}")

    @staticmethod
    def _paired_valid(res: dict) -> bool:
        return len(res) == 2 and all(
            e.trials == GAME_TRIALS and 0 <= e.wins <= e.trials for e in res.values())

    def unit_lemma1(self):
        noise = NoiseSpec(GAME_ALPHA_Q / GAME_Q, GAME_Q, 1)
        adv = adversaries.RankMembershipAdversary()
        stream = self.next_stream()
        self._game("lemma1", lambda: games.lemma1_experiment(
            GAME_N, GAME_Q, noise, adv, GAME_TRIALS, stream), self._paired_valid)

    def unit_theorem1(self):
        adv = adversaries.IndCpaRankAdversary()
        stream = self.next_stream()
        self._game("theorem1", lambda: games.theorem1_experiment(
            self.game_params, adv, GAME_TRIALS, stream), self._paired_valid)

    def unit_indcpa(self):
        adv = adversaries.IndCpaRankAdversary()
        stream = self.next_stream()
        self._game("indcpa", lambda: games.indcpa_game(
            self.game_params, adv, stream, sk=self.game_sk), lambda won: isinstance(won, bool))

    def _cli_cycle(self) -> list[tuple[list[str] | None, str | None]]:
        """One cycle of mvphe invocations as (argv, expected stdout or None);
        argv None marks a bare ``import mvphe`` floor."""
        self.cli_cycles += 1
        key, evk = f"key{self.cli_cycles}.json", f"key{self.cli_cycles}.evk.json"
        m1, m2 = self.rng.getrandbits(1), self.rng.getrandbits(1)
        seeds = [str(self.rng.randrange(2**31)) for _ in range(3)]
        floor = (None, None)
        return [
            floor,
            (["check-params", "--params", str(self.params_file)], None),
            (["keygen", "--params", str(self.params_file), "--seed", seeds[0], "--out", key], None),
            (["encrypt", "--key", key, "--bit", str(m1), "--seed", seeds[1], "--out", "c1.json"], None),
            (["encrypt", "--key", key, "--bit", str(m2), "--seed", seeds[2], "--out", "c2.json"], None),
            floor,
            (["decrypt", "--key", key, "--in", "c1.json"], str(m1)),
            (["add", "--in", "c1.json", "--in", "c2.json", "--out", "sum.json"], None),
            (["decrypt", "--key", key, "--in", "sum.json"], str(m1 ^ m2)),
            floor,
            (["mul", "--in", "c1.json", "--in", "c2.json", "--evalkey", evk, "--out", "prod.json"], None),
        ]

    def _check_cli_product(self, evk: str):
        (c1, _), (c2, _) = (files.load_ciphertext(self.workdir / f) for f in ("c1.json", "c2.json"))
        (cm, _), (ek, _) = (files.load_ciphertext(self.workdir / "prod.json"),
                            files.load_evalkey(self.workdir / evk))
        q = ek.q
        expect = [ek.p_inverse * (a * b % q) % q for a, b in zip(c1.c.tolist(), c2.c.tolist())]
        self.check(cm.c.tolist() == expect, "mvphe mul != p^-1 (c1 * c2) mod q")

    def _cli_main(self, argv: list[str]) -> tuple[int, str]:
        out = io.StringIO()
        cwd = os.getcwd()
        os.chdir(self.workdir)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
        finally:
            os.chdir(cwd)
        return code, out.getvalue()

    def unit_cli(self, inprocess: bool = False):
        """The next step of the CLI script, in a fresh interpreter; with
        ``inprocess`` through cli.main here, and import floors skipped."""
        if not self.cli_steps:
            self.cli_steps = self._cli_cycle()
        argv, expect = self.cli_steps.pop(0)
        if argv is None:
            if not inprocess:
                dt, proc = self._spawn(["-c", "import mvphe"])
                self.record("import", dt)
                self.check(proc.returncode == 0, f"import mvphe: {proc.stderr[-300:]}")
            return
        if inprocess:
            code, out = self._cli_main(argv)
            err = ""
        else:
            dt, proc = self._spawn(["-m", "mvphe.cli", *argv])
            self.record("cli", dt)
            code, out, err = proc.returncode, proc.stdout, proc.stderr[-300:]
        ok = code == 0 and (expect is None or out.strip() == expect)
        self.check(ok, f"mvphe {argv[0]}: exit {code} {out.strip()!r} {err}")
        if argv[0] == "mul":
            self._check_cli_product(argv[argv.index("--evalkey") + 1])

    def floors(self, repeats: int) -> dict:
        """Median ms of a bare interpreter and of ``import mvphe`` in a fresh one."""
        out = {}
        for key, code in (("interpreter_ms", "pass"), ("import_ms", "import mvphe")):
            times = []
            for _ in range(repeats):
                dt, proc = self._spawn(["-c", code])
                self.check(proc.returncode == 0, f"python -c {code!r}: {proc.stderr[-300:]}")
                times.append(1e3 * dt)
            out[key] = statistics.median(times)
        return out

    # -- the closed loop ------------------------------------------------------

    def _run_phase(self, phase: str, count: int, deadline: float | None, traced_plan=False):
        unit = getattr(self, f"unit_{phase}")
        if phase == "cli" and traced_plan:
            unit = functools.partial(unit, inprocess=True)
        t0 = time.perf_counter()
        done = 0
        while done < count or (deadline is not None and time.perf_counter() < deadline):
            if self.tracer is not None:
                self.tracer.begin_unit(phase, done)
            unit()
            done += 1
        spent = time.perf_counter() - t0
        self.phase_seconds[phase] = self.phase_seconds.get(phase, 0.0) + spent
        return spent

    def planned(self, phase: Phase, factor: float = 1.0) -> int:
        """Unit count scaled to --seconds; the CLI script in whole cycles."""
        step = CLI_STEPS if phase.name == "cli" else 1
        scaled = phase.units * factor * self.seconds / REFERENCE_SECONDS / step
        return step * max(1, round(scaled))

    def run_timed(self):
        """ROUNDS interleaved rounds over --seconds, so that every phase sees
        the whole run and not one stretch of it: each round runs its part of
        every fixed-count phase, then splits the rest of the round between
        the time-shared phases. A time-shared phase earns its share of that
        time as credit and runs units while it has credit; a unit longer than
        its credit is paid back in later rounds, so a phase whose units are
        long runs in some rounds only, spread over the run, and every phase
        gets its share of the whole run (and at least one unit)."""
        start = time.perf_counter()
        plan = PLANS[self.workload]
        fixed = {ph.name: self.planned(ph) for ph in plan if not ph.share}
        shared = [ph for ph in plan if ph.share]
        credit = {ph.name: 0.0 for ph in shared}
        for r in range(1, ROUNDS + 1):
            self.round = r
            for name, total in fixed.items():
                self._run_phase(name, total * r // ROUNDS - total * (r - 1) // ROUNDS, None)
            left = max(0.0, start + self.seconds * r / ROUNDS - time.perf_counter())
            for ph in shared:
                credit[ph.name] += ph.share * left
                if credit[ph.name] > 0 or ph.name not in self.phase_seconds:
                    deadline = time.perf_counter() + credit[ph.name]
                    credit[ph.name] -= self._run_phase(ph.name, 1, deadline)

    def run_plan(self) -> float:
        """TRACED_FACTOR of every phase's unit count, cli through cli.main
        in-process; the traced run makes this pass twice, untraced and traced."""
        t0 = time.perf_counter()
        for ph in PLANS[self.workload]:
            self._run_phase(ph.name, self.planned(ph, TRACED_FACTOR), None, traced_plan=True)
        return time.perf_counter() - t0

    # -- results ------------------------------------------------------------------

    def end_to_end(self) -> tuple[dict, dict]:
        """(metrics, details): every end-to-end metric and how it was taken."""
        s = self.samples

        def per_s(key, per_unit=1.0):
            return rate(self.tally[key], per_unit), "1/s"

        ms = [1e3 * x for x in s["keygen"]]
        keygen_tail = tail(ms)
        cli_ms = [1e3 * x for x in s["cli"]]
        cli_tail = tail(cli_ms)
        metrics = {
            "keygen_ms.p50": (statistics.median(ms), "ms"),
            "keygen_ms.tail": (keygen_tail[1], "ms"),
            "encrypt_per_s": per_s("encrypt"),
            "decrypt_per_s": per_s("decrypt"),
            "add_per_s": per_s("add"),
            "mult_per_s": per_s("mult"),
            "noise_bench_trials_per_s": per_s("noise", NOISE_TRIALS[self.workload]),
            "lemma1_trials_per_s": per_s("lemma1", 2 * GAME_TRIALS),
            "theorem1_trials_per_s": per_s("theorem1", 2 * GAME_TRIALS),
            "indcpa_trials_per_s": per_s("indcpa"),
            "cli_ms.p50": (statistics.median(cli_ms), "ms"),
            "cli_ms.tail": (cli_tail[1], "ms"),
            "import_ms.p50": (1e3 * statistics.median(s["import"]), "ms"),
        }
        details = {
            "samples": {k: sum(n for n, _ in v.values()) for k, v in self.tally.items()},
            "keygen_ms.tail": {"percentile": keygen_tail[0], "n": len(ms)},
            "cli_ms.tail": {"percentile": cli_tail[0], "n": len(cli_ms)},
            "phase_seconds": self.phase_seconds,
        }
        return metrics, details


CALLS_OF = (
    "sampling.derive", "sampling.noise_vector", "sampling.uniform_fq", "linalg.matmul_mod",
    "linalg.rref", "linalg.dot_mod", "mvpoly.evaluation_matrix", "mvpoly.ideal_truncated_basis",
)
SELF_MS_OF = (
    "sampling.derive", "sampling.noise_vector", "linalg.matmul_mod", "linalg.rref",
    "linalg.dot_mod", "mvpoly.evaluation_matrix", "mvpoly.ideal_truncated_basis",
    "scheme.keygen", "scheme.encrypt", "scheme.decrypt", "scheme.hom_add", "scheme.hom_mult",
    "scheme.noise_bench", "files.load_key", "files.load_ciphertext", "files.save",
    "games.estimate_advantage", "adversaries.run",
)
COUNTS = (
    "linalg.matmul_mod.blocks", "linalg.matmul_mod.macs", "linalg.rref.cells",
    "scheme.keygen.point_sets",
)


def per_layer(t: tracing.Tracer, overhead_pct: float, floors: dict) -> tuple[dict, dict]:
    """(metrics, details) of the traced run."""
    self_ms, by_phase = t.self_ms()
    c, n = t.counts, t.calls
    trials = sum(n[g] for g in tracing.GAME_SPANS)
    metrics = {f"{name}.calls": (n[name], "count") for name in CALLS_OF}
    metrics.update({f"{name}.self_ms": (self_ms.get(name, 0.0), "ms") for name in SELF_MS_OF})
    metrics.update({name: (c[name], "count") for name in COUNTS})
    metrics.update({
        "linalg.matmul_mod.blocks_per_encrypt":
            (c["encrypt_phase.matmul_blocks"] / max(1, c["encrypt_phase.encrypts"]), "blocks/encrypt"),
        "scheme.keygen.keys_per_point_set":
            (c["scheme.keygen.keys"] / max(1, c["scheme.keygen.point_sets"]), "ratio"),
        "files.bytes_written": (c["files.bytes_written"], "B"),
        "games.trials": (trials, "count"),
        "games.oracle_calls_per_trial": (n["games.oracle"] / max(1, trials), "calls/trial"),
        "games.keygen_per_trial": (c["games.keygen_in_trial"] / max(1, trials), "keygens/trial"),
        "cli.interpreter_ms": (floors["interpreter_ms"], "ms"),
        "cli.import_ms": (floors["import_ms"], "ms"),
        "cli.main_ms": (statistics.median(t.durations_ms("cli.main")), "ms"),
        "trace.overhead_pct": (overhead_pct, "%"),
    })
    details = {
        "spans": len(t.start),
        "calls": dict(n),
        "counts": dict(c),
        "self_ms_by_phase": by_phase,
    }
    return metrics, details
