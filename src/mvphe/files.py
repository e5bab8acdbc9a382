"""Bit-exact JSON artifacts: parameter, key, ciphertext and eval-key files.

This module owns the artifact format: it encodes, decodes and validates every
file, and a malformed file raises :class:`FileFormatError` naming the field.
All files are canonical JSON (sorted keys, no whitespace) so identical inputs
produce byte-identical outputs. ``alpha`` and ``epsilon`` travel as decimal
strings; every integer is a JSON integer (never a boolean, float or string),
every array is nonempty and rectangular, and every array entry lies in
[0, q) for a prime q < 2^31. A params hash binds keys and ciphertexts to the
parameter set they were made under.
"""

from __future__ import annotations

import hashlib
import json
from decimal import Decimal, InvalidOperation
from pathlib import Path

import numpy as np

from .errors import FileFormatError, KeyGenError
from .field import FieldContext
from .mvpoly import (
    MONOMIAL_ORDER,
    IdealSpec,
    MonomialIndex,
    Polynomial,
    evaluation_matrix,
)
from .scheme import Ciphertext, EvalKey, SchemeParams, SecretKey, key_defect, secret_defect

FILE_VERSION = 1


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def params_hash(params: SchemeParams) -> str:
    return hashlib.sha256(
        canonical_json(params.canonical_dict()).encode("utf-8")
    ).hexdigest()


def _require(d: dict, field: str, kind, optional=False):
    if field not in d:
        if optional:
            return None
        raise FileFormatError(field, "missing")
    v = d[field]
    kinds = kind if isinstance(kind, tuple) else (kind,)
    if not isinstance(v, kinds) or (isinstance(v, bool) and bool not in kinds):
        raise FileFormatError(field, "expected " + " or ".join(k.__name__ for k in kinds))
    return v


def _require_int(d: dict, field: str, lo: int, hi=None) -> int:
    """``d[field]`` as a JSON integer in [lo, hi), or at least lo without hi."""
    v = _require(d, field, int)
    if v < lo or (hi is not None and v >= hi):
        bound = f"in [{lo}, {hi})" if hi is not None else f">= {lo}"
        raise FileFormatError(field, f"expected an integer {bound}")
    return v


def _require_field(d: dict) -> FieldContext:
    """``d["q"]`` as a field: a prime below 2^31."""
    q = _require(d, "q", int)
    try:
        return FieldContext(q)
    except ValueError as exc:
        raise FileFormatError("q", str(exc))


def _require_array(d: dict, field: str, q: int, shape: tuple) -> np.ndarray:
    """``d[field]`` as an int64 array of ``shape``; None there means any length.

    The value must be a nonempty rectangular list (of lists, for two
    dimensions) whose entries are JSON integers in [0, q).
    """
    v = _require(d, field, list)
    rows = v if len(shape) == 2 else [v]
    if not v or not all(isinstance(row, list) and row and len(row) == len(rows[0]) for row in rows):
        raise FileFormatError(field, f"expected a nonempty rectangular {len(shape)}-d array")
    got = (len(v), len(rows[0]))[: len(shape)]
    if any(want not in (None, have) for want, have in zip(shape, got)):
        raise FileFormatError(field, f"expected shape {shape}, got {got}")
    if not all(type(x) is int and 0 <= x < q for row in rows for x in row):
        raise FileFormatError(field, "entries must be integers in [0, q)")
    return np.array(v, dtype=np.int64)


def params_to_dict(params: SchemeParams, seed=None) -> dict:
    d = params.canonical_dict()
    if seed is not None:
        d["seed"] = int(seed)
    return d


def params_from_dict(d: dict) -> SchemeParams:
    lam = _require_int(d, "lambda", 1)
    ctx = _require_field(d)
    q = ctx.q
    ell = _require(d, "ell", int)
    r = _require(d, "r", int)
    n = _require(d, "n", int)
    alpha = _require(d, "alpha", str)
    epsilon = _require(d, "epsilon", str)
    mode = _require(d, "mode", str)
    headroom = _require(d, "headroom", (int, float))
    ideal_raw = _require(d, "ideal", list)
    if "literal_mult_noise" in d:
        raise FileFormatError("literal_mult_noise", "no longer supported; remove the key")
    for name, value in (("alpha", alpha), ("epsilon", epsilon)):
        try:
            Decimal(value)
        except InvalidOperation:
            raise FileFormatError(name, f"not a decimal string: {value!r}")

    if ell < 1 or r < 1:
        raise FileFormatError("ell" if ell < 1 else "r", "must be >= 1")
    index = MonomialIndex(ell, r)
    generators = []
    for gi, terms in enumerate(ideal_raw):
        if not isinstance(terms, list) or not terms:
            raise FileFormatError("ideal", f"generator {gi} must be a nonempty term list")
        pairs = []
        for term in terms:
            if not isinstance(term, dict) or set(term) != {"coeff", "exps"}:
                raise FileFormatError("ideal", f"generator {gi}: terms need coeff and exps")
            coeff, exps = term["coeff"], term["exps"]
            if type(coeff) is not int or not (0 <= coeff < q):
                raise FileFormatError("ideal", f"generator {gi}: coeff must be in [0, q)")
            # JSON ints only: position() would take 2.0 and true; it judges the rest
            if not isinstance(exps, list) or any(type(e) is not int for e in exps):
                raise FileFormatError("ideal", f"generator {gi}: exps must be a list of ints")
            pairs.append((coeff, exps))
        try:  # MonomialIndex.position refuses a wrong length, a sign or a degree above r
            generators.append(Polynomial.from_terms(index, ctx, pairs))
        except ValueError as exc:
            raise FileFormatError("ideal", f"generator {gi}: {exc}")
    try:
        ideal = IdealSpec(generators)
        return SchemeParams(
            lam=lam, q=q, ell=ell, r=r, n=n, alpha=alpha, epsilon=epsilon,
            mode=mode, ideal=ideal, headroom=headroom,
        )
    except ValueError as exc:
        raise FileFormatError("params", str(exc))


def save_params(path, params: SchemeParams, seed=None):
    Path(path).write_text(canonical_json(params_to_dict(params, seed)))


def load_params(path) -> tuple:
    """Returns (SchemeParams, seed-or-None)."""
    d = _read_json(path)
    return params_from_dict(d), _require(d, "seed", int, optional=True)


def _read_json(path) -> dict:
    try:
        d = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise FileFormatError("json", f"{path}: {exc}")
    if not isinstance(d, dict):
        raise FileFormatError("json", "top level must be an object")
    return d


def _check_version(d: dict):
    if d.get("version") != FILE_VERSION:
        raise FileFormatError("version", f"expected {FILE_VERSION}")


def save_key(path, sk: SecretKey):
    d = {
        "version": FILE_VERSION,
        "params": params_to_dict(sk.params),
        "params_hash": params_hash(sk.params),
        "monomial_order": MONOMIAL_ORDER,
        "points": sk.points.tolist(),
        "s": sk.s.tolist(),
        "p": sk.p,
        "sigma_s": sk.sigma_s,
        "B_r": sk.B_r.data.tolist(),
    }
    if sk.B_2r is not None:
        d["B_2r"] = sk.B_2r.data.tolist()
    Path(path).write_text(canonical_json(d))


def load_key(path) -> SecretKey:
    d = _read_json(path)
    _check_version(d)
    params = params_from_dict(_require(d, "params", dict))
    if d.get("params_hash") != params_hash(params):
        raise FileFormatError("params_hash", "does not match the embedded parameters")
    if d.get("monomial_order") != MONOMIAL_ORDER:
        raise FileFormatError("monomial_order", "unsupported monomial order")
    ctx = params.ideal.ctx
    q, n = params.q, params.n
    points = _require_array(d, "points", q, (n, params.ell))
    s = _require_array(d, "s", q, (n,))
    index = MonomialIndex(params.ell, params.enc_degree())
    try:
        sk = SecretKey(params, points, evaluation_matrix(index, ctx, points), s)
    except KeyGenError as exc:  # s sums to sigma_s < 1
        raise FileFormatError("s", str(exc))
    except ValueError as exc:  # n below the ideal slice's dimension leaves no tail
        raise FileFormatError("params", str(exc))
    for field, B in (("B_r", sk.B_r), ("B_2r", sk.B_2r)):  # the params determine both
        if B is not None and not np.array_equal(
                _require_array(d, field, q, B.data.shape), B.data):
            raise FileFormatError(field, "does not match the parameter ideal")
    for field in ("sigma_s", "p"):  # s and the params determine both
        stored, derived = _require(d, field, int), getattr(sk, field)
        if stored != derived:
            raise FileFormatError(field, f"is {stored}, but s and the params give {derived}")
    defect, V, _ = key_defect(params, sk.G)
    defect = defect or secret_defect(sk, V)
    if defect is not None:
        raise FileFormatError("s" if defect in ("scale", "orthogonality") else "points",
                              f"fails keygen's {defect} check")
    return sk


def save_ciphertext(path, ct: Ciphertext, phash: str):
    if ct.c.ndim != 1:
        raise ValueError(f"a ciphertext file holds one ciphertext, not a {ct.c.shape} stack")
    d = {"version": FILE_VERSION, "params_hash": phash,
         "c": ct.c.tolist(), "adds": ct.adds, "mults": ct.mults, "q": ct.q}
    Path(path).write_text(canonical_json(d))


def load_ciphertext(path) -> tuple:
    """Returns (Ciphertext, params_hash)."""
    d = _read_json(path)
    _check_version(d)
    phash = _require(d, "params_hash", str)
    q = _require_field(d).q
    c = _require_array(d, "c", q, (None,))
    ct = Ciphertext._reduced(c, q, _require_int(d, "adds", 0), _require_int(d, "mults", 0))
    return ct, phash


def save_evalkey(path, ek: EvalKey, phash: str):
    d = {"version": FILE_VERSION, "params_hash": phash,
         "q": ek.q, "n": ek.n, "p_inverse": ek.p_inverse}
    Path(path).write_text(canonical_json(d))


def load_evalkey(path) -> tuple:
    """Returns (EvalKey, params_hash)."""
    d = _read_json(path)
    _check_version(d)
    phash = _require(d, "params_hash", str)
    q = _require_field(d).q
    ek = EvalKey(q=q, n=_require_int(d, "n", 1), p_inverse=_require_int(d, "p_inverse", 1, q))
    return ek, phash
