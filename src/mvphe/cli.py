"""Command-line surface: key management, encryption, homomorphic operations,
noise benchmarking, security games, and parameter checking.

Exit codes: 0 success, 2 usage, 3 validation failure (the message names the
violated invariant or field) or an OS error (naming the path), 4 key
generation infeasible.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from . import adversaries, files, games
from .errors import (
    DepthError,
    FileFormatError,
    KeyGenError,
    ProtocolViolationError,
    UnsupportedOperationError,
)
from .field import FieldContext
from .linalg import nullspace_basis
from .mvpoly import ideal_truncated_basis
from .presets import toy_additive_params
from .sampling import NoiseSpec, RandomStream
from .scheme import (
    MODE_MULT,
    decrypt,
    encrypt,
    eval_key,
    feasibility,
    hom_add,
    hom_mult,
    keygen,
    noise_bench,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_KEYGEN = 4


def _resolve_seed(cli_seed, file_seed):
    if cli_seed is not None:
        return int(cli_seed)
    if file_seed is not None:
        return int(file_seed)
    stream = RandomStream()
    print(f"no seed given; using seed {stream.seed}", file=sys.stderr)
    return stream.seed


def _print_table(header, rows, as_json, json_obj):
    if as_json:
        print(json.dumps(json_obj, sort_keys=True))
        return
    print("\t".join(header))
    for row in rows:
        print("\t".join(str(x) for x in row))


def _evalkey_path(out: str) -> str:
    p = Path(out)
    if p.suffix == ".json":
        return str(p.with_suffix(".evk.json"))
    return str(p) + ".evk.json"


def _cmd_keygen(args) -> int:
    params, file_seed = files.load_params(args.params)
    seed = _resolve_seed(args.seed, file_seed)
    sk = keygen(params, RandomStream(seed))
    files.save_key(args.out, sk)
    if params.mode == MODE_MULT:
        ek_path = _evalkey_path(args.out)
        files.save_evalkey(ek_path, eval_key(sk), files.params_hash(params))
        print(f"wrote {args.out} and {ek_path}")
    else:
        print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_encrypt(args) -> int:
    sk = files.load_key(args.key)
    seed = _resolve_seed(args.seed, None)
    ct = encrypt(sk, args.bit, RandomStream(seed))
    files.save_ciphertext(args.out, ct, files.params_hash(sk.params))
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_decrypt(args) -> int:
    sk = files.load_key(args.key)
    ct, phash = files.load_ciphertext(args.infile)
    if phash != files.params_hash(sk.params):
        raise FileFormatError("params_hash", "ciphertext does not match this key")
    print(decrypt(sk, ct))
    return EXIT_OK


def _wrong_input_count(args) -> bool:
    """add and mul take exactly two --in files; report any other count."""
    if len(args.infiles) == 2:
        return False
    print(f"{args.command} takes exactly two --in files, got {len(args.infiles)}",
          file=sys.stderr)
    return True


def _cmd_add(args) -> int:
    if _wrong_input_count(args):
        return EXIT_USAGE
    (c1, h1), (c2, h2) = (files.load_ciphertext(p) for p in args.infiles)
    if h1 != h2:
        raise FileFormatError("params_hash", "ciphertexts from different parameter sets")
    files.save_ciphertext(args.out, hom_add(c1, c2), h1)
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_mul(args) -> int:
    if _wrong_input_count(args):
        return EXIT_USAGE
    (c1, h1), (c2, h2) = (files.load_ciphertext(p) for p in args.infiles)
    ek, he = files.load_evalkey(args.evalkey)
    if h1 != h2 or h1 != he:
        raise FileFormatError("params_hash", "inputs from different parameter sets")
    files.save_ciphertext(args.out, hom_mult(c1, c2, ek), h1)
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_noise_bench(args) -> int:
    sk = files.load_key(args.key)
    seed = _resolve_seed(args.seed, None)
    rows = noise_bench(sk, args.trials, RandomStream(seed))
    table = [
        (op, f"{r['predicted_std']:.4f}", f"{r['measured_std']:.4f}", f"{r['error_rate']:.6f}")
        for op, r in rows.items()
    ]
    _print_table(
        ("op", "predicted_std", "measured_std", "error_rate"),
        table,
        args.json,
        {"trials": args.trials, "seed": seed, "rows": rows},
    )
    return EXIT_OK


# `mvphe game` adversaries: a factory per name, per game or reduction. Lemma 1
# hides the secret, so its table has no known-secret "oracle".
_ADVERSARIES = {
    "hsm": {
        "random": adversaries.RandomGuesser,
        "rank": adversaries.RankMembershipAdversary,
        "oracle": adversaries.KnownSecretAdversary,
    },
    "dlwe": {
        "random": adversaries.RandomGuesser,
        "rank": lambda: games.Lemma1Adversary(adversaries.RankMembershipAdversary()),
        "oracle": adversaries.LinearSolveAdversary,
    },
    "indcpa": {
        "random": adversaries.RandomGuesser,
        "rank": adversaries.IndCpaRankAdversary,
        "oracle": adversaries.KeyLeakAdversary,
    },
    "lemma1": {
        "random": adversaries.RandomGuesser,
        "rank": adversaries.RankMembershipAdversary,
    },
}
_ADVERSARIES["theorem1"] = _ADVERSARIES["indcpa"]

# table row names of the reduction experiments' estimates; a plain game's row
# is the game's name
_ROW_NAMES = {
    "native_hsm": "hsm[(s,1)-perp]", "wrapped_dlwe": "dlwe[wrapped]",
    "native_indcpa": "indcpa", "wrapped_hsm": "hsm[scheme]",
}


def _cmd_game(args) -> int:
    seed = _resolve_seed(args.seed, None)
    stream = RandomStream(seed)

    if args.reduction == "lemma1" and args.game != "hsm":
        print("--reduction lemma1 applies to the hsm game", file=sys.stderr)
        return EXIT_USAGE
    if args.reduction == "theorem1" and args.game != "indcpa":
        print("--reduction theorem1 applies to the indcpa game", file=sys.stderr)
        return EXIT_USAGE
    factory = _ADVERSARIES[args.reduction or args.game].get(args.adversary)
    if factory is None:
        print("the known-secret adversary cannot be wrapped (needs the hidden s)",
              file=sys.stderr)
        return EXIT_USAGE
    adv = factory()

    if args.reduction == "lemma1":
        noise = _game_noise(args, 1)
        res = games.lemma1_experiment(args.n, noise.q, noise, adv, args.trials, stream)
    elif args.reduction == "theorem1":
        res = games.theorem1_experiment(_game_params(args), adv, args.trials, stream)
    else:
        game_fn = _game_fn(args)
        res = {args.game: games.estimate_advantage(game_fn, adv, args.trials, stream)}
    rows = [(_ROW_NAMES.get(key, key), args.adversary, est.trials, est.wins,
             f"{est.win_rate:.4f}", f"{est.advantage:.4f}", f"{est.ci_halfwidth:.4f}")
            for key, est in res.items()]
    estimates = {key: {**asdict(est), "win_rate": est.win_rate} for key, est in res.items()}
    _print_table(
        ("game", "adversary", "trials", "wins", "win_rate", "advantage", "ci95"),
        rows, args.json, {"seed": seed, **estimates},
    )
    return EXIT_OK


def _game_noise(args, support_len):
    """Noise of std --alpha-q on Z_q, q = --q. Only the hsm and dlwe games and
    Lemma 1 read --q and --n (indcpa's are the scheme's), so both are checked
    here."""
    if args.n < 1:
        raise ValueError(f"n must be >= 1, got {args.n}")
    q = FieldContext(args.q).q
    return NoiseSpec(args.alpha_q / q, q, support_len)


def _game_fn(args):
    """One trial of the plain (unreduced) game: game_fn(adversary, stream)."""
    if args.game == "hsm":
        noise = _game_noise(args, max(args.n - args.l, 0))

        def game_fn(adv, sub):
            inst = games.uniform_subspace_instance(args.n, args.l, noise, sub.derive(0))
            leak = None
            if isinstance(adv, adversaries.KnownSecretAdversary):
                leak = games.Leak(s=nullspace_basis(inst.basis, inst.q)[0])
            return games.hsm_game(inst, adv, sub.derive(1), leak=leak)

        return game_fn
    if args.game == "dlwe":
        noise = _game_noise(args, 1)
        return lambda adv, sub: games.dlwe_game(args.n, noise, adv, sub)
    params = _game_params(args)
    return lambda adv, sub: games.indcpa_game(params, adv, sub)


def _game_params(args):
    if args.params:
        return files.load_params(args.params)[0]
    return toy_additive_params()


def _cmd_check_params(args) -> int:
    params, _ = files.load_params(args.params)
    B_r, B, lo, hi = feasibility(params)
    d_2r = ideal_truncated_basis(params.ideal, 2 * params.r).rows  # shown in additive mode too
    N, N_enc = B_r.index.size, B.index.size
    _print_table(
        ("N", "d_r", "d_2r", "n", "mode", "sigma_p_min", "sigma_p_max"),
        [(N, B_r.rows, d_2r, params.n, params.mode, lo, hi)],
        args.json,
        {"N": N, "N_enc": N_enc, "d_r": B_r.rows, "d_2r": d_2r, "n": params.n,
         "mode": params.mode, "sigma_p_min": lo, "sigma_p_max": hi},
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mvphe",
        description="Somewhat-homomorphic encryption over multivariate "
                    "polynomial evaluation, with a game-based security harness.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="generate a secret key (and eval key in mult mode)")
    p.add_argument("--params", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_keygen)

    p = sub.add_parser("encrypt", help="encrypt one bit")
    p.add_argument("--key", required=True)
    p.add_argument("--bit", type=int, choices=(0, 1), required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_encrypt)

    p = sub.add_parser("decrypt", help="decrypt a ciphertext and print the bit")
    p.add_argument("--key", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(fn=_cmd_decrypt)

    p = sub.add_parser("add", help="homomorphic addition of two ciphertexts")
    p.add_argument("--in", dest="infiles", action="append", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_add)

    p = sub.add_parser("mul", help="depth-1 homomorphic multiplication")
    p.add_argument("--in", dest="infiles", action="append", required=True)
    p.add_argument("--evalkey", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_mul)

    p = sub.add_parser("noise-bench", help="predicted vs measured noise and error rates")
    p.add_argument("--key", required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_noise_bench)

    p = sub.add_parser("game", help="run a security game or reduction experiment")
    p.add_argument("game", choices=("hsm", "dlwe", "indcpa"))
    p.add_argument("--adversary", choices=("random", "rank", "oracle"), default="random",
                   help="oracle is the known-secret adversary for hsm, linear-solve "
                        "for dlwe and key-leak for indcpa")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--reduction", choices=("lemma1", "theorem1"))
    p.add_argument("--params", help="parameter file for scheme-based games")
    p.add_argument("--n", type=int, default=12, help="synthetic instance dimension, at least 1")
    p.add_argument("--l", type=int, default=6, help="synthetic subspace dimension, 1 <= l < n")
    p.add_argument("--q", type=int, default=10007,
                   help="prime modulus below 2^31 of the hsm and dlwe games and "
                        "lemma1; indcpa takes q from --params")
    p.add_argument("--alpha-q", type=float, default=8.0, help="noise std alpha*q")
    p.add_argument("--seed", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_game)

    p = sub.add_parser("check-params", help="validate a parameter file")
    p.add_argument("--params", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_check_params)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (FileFormatError, ValueError, DepthError, UnsupportedOperationError,
            ProtocolViolationError, OSError) as exc:  # an OSError names its path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except KeyGenError as exc:
        print(f"keygen infeasible: {exc}", file=sys.stderr)
        return EXIT_KEYGEN


if __name__ == "__main__":
    raise SystemExit(main())
