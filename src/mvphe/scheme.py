"""The symmetric somewhat-homomorphic scheme: KeyGen, Encrypt, Decrypt,
homomorphic add and depth-1 multiply, and noise accounting.

A key fixes n secret evaluation points and the matrix G whose row i holds all
bounded-degree monomials evaluated at point i. Encrypting a bit m draws a
random polynomial f from the degree-<=r slice of the ideal and outputs

    c = (m * p) * 1 + G f + e   (mod q)

with e a structured noise vector. The secret vector s is orthogonal to every
evaluated ideal element, so <s, c> = m * sigma_s * p + <s2, e_tail> and
rounding recovers m.

In additive_only mode G has C(ell+r, r) columns; in mult_depth_1 mode the key
must annihilate products of two encryption polynomials (degree up to 2r), so
G is the degree-2r evaluation matrix with C(ell+2r, 2r) columns and s is
orthogonal to the evaluated degree-2r slice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dfield
from decimal import Decimal, InvalidOperation
from typing import Optional, Tuple

import numpy as np

from .errors import (
    DepthError,
    KeyGenError,
    ParameterInfeasibleError,
    UnsupportedOperationError,
)
from .field import FieldContext, round_nearest
from .linalg import dot_mod, matmul_mod, orthogonal_head_map, rank
from .mvpoly import (IdealBasis, IdealSpec, MonomialIndex, evaluation_matrix,
                     ideal_truncated_basis, monomial_count)
from .sampling import NoiseSpec, RandomStream, sample_noise_vector

MODE_ADDITIVE = "additive_only"
MODE_MULT = "mult_depth_1"

_POINT_ATTEMPTS = 64  # rejection budget: 64 candidate point sets of n points
_TAIL_ATTEMPTS = 64


def _to_decimal(x) -> Decimal:
    try:
        return Decimal(str(x))
    except InvalidOperation as exc:
        raise ValueError(f"not a decimal number: {x!r}") from exc


@dataclass
class SchemeParams:
    """Validated parameter set; alpha and epsilon are exact decimal strings."""

    lam: int
    q: int
    ell: int
    r: int
    n: int
    alpha: Decimal
    epsilon: Decimal
    mode: str
    ideal: IdealSpec
    headroom: float = 2.0

    def __post_init__(self):
        self.alpha = _to_decimal(self.alpha)
        self.epsilon = _to_decimal(self.epsilon)
        self.validate()

    def validate(self):
        FieldContext(self.q)  # raises unless q is a prime < 2^31
        if self.q < 3:
            raise ValueError("q must be an odd prime >= 3")
        if self.mode not in (MODE_ADDITIVE, MODE_MULT):
            raise ValueError(f"mode must be {MODE_ADDITIVE} or {MODE_MULT}, got {self.mode!r}")
        if self.ell < 1 or self.r < 1:
            raise ValueError("need ell >= 1 and r >= 1")
        if not (0 < self.n < self.q):
            raise ValueError(f"need 0 < n < q, got n={self.n}, q={self.q}")
        if self.n > monomial_count(self.ell, self.enc_degree()):
            raise ValueError(
                f"n={self.n} exceeds the evaluation dimension "
                f"{monomial_count(self.ell, self.enc_degree())} for mode {self.mode}"
            )
        if float(self.alpha) < 0:
            raise ValueError("alpha must be >= 0")
        if not (0 < float(self.epsilon) < 1):
            raise ValueError("epsilon must lie in (0, 1)")
        if self.headroom < 1:
            raise ValueError("headroom must be >= 1")
        if self.ideal.ctx.q != self.q or self.ideal.ell != self.ell:
            raise ValueError("ideal generators must live over (ell, q)")
        if self.ideal.max_degree() > self.r:
            raise ValueError(
                f"generator degree {self.ideal.max_degree()} exceeds r={self.r}"
            )

    def enc_degree(self) -> int:
        """Degree bound of the key's evaluation matrix (2r in mult mode)."""
        return self.r if self.mode == MODE_ADDITIVE else 2 * self.r

    @property
    def alpha_f(self) -> float:
        return float(self.alpha)

    @property
    def epsilon_f(self) -> float:
        return float(self.epsilon)

    def ctx(self) -> FieldContext:
        return self.ideal.ctx  # validate() checked that its q is self.q

    def canonical_dict(self) -> dict:
        gens = []
        for g in self.ideal.generators:
            gens.append([
                {"coeff": int(c), "exps": list(e)} for c, e in g.terms()
            ])
        return {
            "lambda": self.lam,
            "q": self.q,
            "ell": self.ell,
            "r": self.r,
            "n": self.n,
            "alpha": str(self.alpha),
            "epsilon": str(self.epsilon),
            "mode": self.mode,
            "headroom": self.headroom,
            "ideal": gens,
        }


@dataclass
class Ciphertext:
    """A length-n vector over F_q plus homomorphic-operation counters."""

    c: np.ndarray
    q: int
    adds: int = 0
    mults: int = 0

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=np.int64) % self.q
        if self.adds < 0 or self.mults < 0:
            raise ValueError("operation counters must be nonnegative")

    @property
    def n(self) -> int:
        return len(self.c)


@dataclass
class EvalKey:
    """Public material for third-party multiplication: p^{-1} mod q."""

    q: int
    n: int
    p_inverse: int


@dataclass
class NoiseBudget:
    eps: float
    k: float
    eta: float
    predicted_std_fresh: float
    predicted_std_add: float
    predicted_std_mult: float


@dataclass
class SecretKey:
    params: SchemeParams
    points: np.ndarray          # n x ell
    G: np.ndarray               # n x N_mode evaluation matrix
    B_r: IdealBasis             # d_r x C(ell+r, r)
    B_2r: Optional[IdealBasis]  # d_2r x C(ell+2r, 2r), mult mode only
    s: np.ndarray               # length n, canonical residues
    p: int
    sigma_s: int                # positive integer, balanced sum of s entries
    _enc_basis: Optional[np.ndarray] = dfield(default=None, repr=False)

    @property
    def ctx(self) -> FieldContext:
        return self.params.ctx()

    @property
    def n(self) -> int:
        return self.params.n

    @property
    def d_r(self) -> int:
        return self.B_r.rows

    @property
    def d_2r(self) -> Optional[int]:
        return None if self.B_2r is None else self.B_2r.rows

    @property
    def head_len(self) -> int:
        """Length of s1 = number of evaluated-basis dimensions."""
        return self.d_r if self.params.mode == MODE_ADDITIVE else self.d_2r

    @property
    def tail_len(self) -> int:
        return self.n - self.head_len

    @property
    def s2(self) -> np.ndarray:
        return self.s[self.head_len :]

    @property
    def s2_norm(self) -> float:
        return float(np.linalg.norm(self.ctx.balanced(self.s2)))

    def noise_spec(self) -> NoiseSpec:
        """Noise lands on the tail only, the coordinates that s2 reads."""
        return NoiseSpec(self.params.alpha_f, self.params.q, self.tail_len)

    def enc_basis(self) -> np.ndarray:
        """B_r rows injected into the key's evaluation index (cached)."""
        if self._enc_basis is None:
            if self.params.mode == MODE_ADDITIVE:
                self._enc_basis = self.B_r.data
            else:
                src = MonomialIndex(self.params.ell, self.params.r)
                dst = MonomialIndex(self.params.ell, 2 * self.params.r)
                cols = [dst.position(e) for e in src.exponents]
                wide = np.zeros((self.d_r, dst.size), dtype=np.int64)
                wide[:, cols] = self.B_r.data
                self._enc_basis = wide
        return self._enc_basis

    def evaluated_basis(self) -> np.ndarray:
        """Rows span the evaluated ideal subspace the secret annihilates."""
        B = self.B_r if self.params.mode == MODE_ADDITIVE else self.B_2r
        return matmul_mod(B.data, self.G.T, self.params.q)


def feasibility(params: SchemeParams) -> Tuple[IdealBasis, Optional[IdealBasis], int, int]:
    """The key's bases B_r and B_2r (None in additive mode) and the admissible
    range [lo, hi] of sigma_s*p; keygen and check-params both decide by it.

    Raises KeyGenError("dimension") unless dim(ideal slice) < n <= N_enc, and
    ParameterInfeasibleError("scale") when even the best case |s2| = 1 (that
    is, sigma_s*p > 2h*alpha*q/sqrt(eps)) leaves no sigma_s*p <= floor(q/2)/h.
    """
    q, n, h = params.q, params.n, float(params.headroom)
    B_r = ideal_truncated_basis(params.ideal, params.r)
    B_2r = ideal_truncated_basis(params.ideal, 2 * params.r) if params.mode == MODE_MULT else None
    head_len = B_r.rows if B_2r is None else B_2r.rows
    N_mode = monomial_count(params.ell, params.enc_degree())
    if not (head_len < n <= N_mode):
        raise KeyGenError("dimension", f"need dim(ideal slice)={head_len} < n={n} <= {N_mode}")
    lo = math.floor(2.0 * h * params.alpha_f * q / math.sqrt(params.epsilon_f)) + 1
    hi = math.floor((q // 2) / h)
    if lo > hi:
        raise ParameterInfeasibleError(
            "scale", f"smallest admissible sigma_s*p={lo} exceeds floor(q/2)/h = {hi}")
    return B_r, B_2r, lo, hi


def keygen(params: SchemeParams, stream: RandomStream) -> SecretKey:
    """Generate a secret key, resampling points and tails until the rank and
    magnitude conditions hold.

    Raises KeyGenError (with the failing condition) when the retry budget is
    exhausted, and ParameterInfeasibleError when no plaintext scale p can fit
    below q/2.
    """
    ctx = params.ctx()
    q, n = params.q, params.n
    B_r, B_2r, _, _ = feasibility(params)
    B_mode = B_r if B_2r is None else B_2r
    d_r, head_len = B_r.rows, B_mode.rows

    enc_index = MonomialIndex(params.ell, params.enc_degree())
    r_index = MonomialIndex(params.ell, params.r)
    point_stream = stream.derive(0)
    tail_stream = stream.derive(1)
    failures = {"condition1": 0, "condition2": 0, "tail": 0}

    for _ in range(_POINT_ATTEMPTS):
        points = _sample_distinct_points(point_stream, q, n, params.ell)
        G = evaluation_matrix(enc_index, ctx, points)
        if rank(G, q) != n:
            failures["condition1"] += 1
            continue
        # condition 2: the first d_r points separate the degree-r ideal slice,
        # and the first head_len points the evaluated one, whose matrix is the
        # head of V = B_mode·Gᵀ (E_2r; in additive mode E_r itself). One
        # elimination of V checks the head and gives s1 = K·s2 for every s2.
        if B_2r is not None:
            E_r = matmul_mod(B_r.data, evaluation_matrix(r_index, ctx, points[:d_r]).T, q)
            if rank(E_r, q) != d_r:
                failures["condition2"] += 1
                continue
        V = matmul_mod(B_mode.data, G.T, q)
        K = orthogonal_head_map(V, head_len, q)
        if K is None:
            failures["condition2"] += 1
            continue

        found = _choose_secret(params, V, K, tail_stream)
        if found is None:
            failures["tail"] += 1
            continue
        s, sigma, p = found
        return SecretKey(
            params=params,
            points=points,
            G=G,
            B_r=B_r,
            B_2r=B_2r,
            s=s,
            p=p,
            sigma_s=sigma,
        )

    worst = max(failures, key=failures.get)
    raise KeyGenError(
        worst,
        f"retry budget exhausted after {_POINT_ATTEMPTS} point sets ({failures})",
    )


def _sample_distinct_points(stream: RandomStream, q: int, n: int, ell: int) -> np.ndarray:
    points = np.zeros((n, ell), dtype=np.int64)
    seen = set()
    i = 0
    while i < n:
        cand = tuple(int(x) for x in stream.uniform_fq(q, size=ell))
        if cand in seen:
            continue
        seen.add(cand)
        points[i] = cand
        i += 1
    return points


def _choose_secret(
    params: SchemeParams,
    V: np.ndarray,
    K: np.ndarray,
    stream: RandomStream,
) -> Optional[Tuple[np.ndarray, int, int]]:
    """Pick s2, extend it to s = (K·s2, s2) orthogonal to V, derive sigma_s
    and p. Raises KeyGenError("orthogonality") if V·s is not zero."""
    ctx = params.ctx()
    head_len, tail_len = K.shape
    q = params.q
    eps = params.epsilon_f
    alpha_q = params.alpha_f * q
    h = float(params.headroom)

    for attempt in range(_TAIL_ATTEMPTS):
        if params.mode == MODE_ADDITIVE and attempt == 0:
            s2 = np.zeros(tail_len, dtype=np.int64)
            s2[-1] = 1  # the additive-only shortcut tail (0, ..., 0, 1)
        else:
            s2 = stream.ternary(tail_len)
            if not np.any(s2):
                continue
        s2 = s2 % q
        s = np.concatenate([matmul_mod(K, s2, q), s2])
        sigma = ctx.balanced(int(s.sum() % q))
        if sigma == 0:
            continue
        if sigma < 0:
            s = (-s) % q  # preserves orthogonality, flips the sum's sign
            sigma = -sigma
        norm_s2 = float(np.linalg.norm(ctx.balanced(s[head_len:])))
        eta = 2.0 * norm_s2 * h / math.sqrt(eps)
        p = math.floor(eta * alpha_q / sigma) + 1
        # the headroom multiplier also caps the message multiple so that
        # h plaintext units still land inside the balanced window
        if sigma * p * h <= q // 2:
            if np.any(matmul_mod(V, s, q)):
                raise KeyGenError("orthogonality", "the head solve left V·s nonzero")
            return s, sigma, p
    return None


def eval_key(sk: SecretKey) -> EvalKey:
    if sk.params.mode != MODE_MULT:
        raise UnsupportedOperationError("evaluation keys exist only in mult_depth_1 mode")
    return EvalKey(q=sk.params.q, n=sk.n, p_inverse=sk.ctx.inv(sk.p))


def encrypt_traced(
    sk: SecretKey, m: int, stream: RandomStream
) -> Tuple[Ciphertext, np.ndarray, np.ndarray]:
    """Encrypt and also return the sampled (embedded) f and noise vector e."""
    if m not in (0, 1):
        raise ValueError(f"plaintext must be a bit, got {m}")
    q = sk.params.q
    u = stream.uniform_fq(q, size=sk.d_r)
    f = matmul_mod(u.reshape(1, -1), sk.enc_basis(), q)[0]
    e = sample_noise_vector(stream, sk.noise_spec(), sk.n)
    c = (m * sk.p + matmul_mod(sk.G, f, q) + e) % q
    return Ciphertext(c, q), f, e


def encrypt(sk: SecretKey, m: int, stream: RandomStream) -> Ciphertext:
    return encrypt_traced(sk, m, stream)[0]


def _check_key_match(sk: SecretKey, ct: Ciphertext):
    if ct.q != sk.params.q or ct.n != sk.n:
        raise ValueError(f"ciphertext (n={ct.n}, q={ct.q}) does not match the key "
                         f"(n={sk.n}, q={sk.params.q})")


def decrypt(sk: SecretKey, ct: Ciphertext) -> int:
    _check_key_match(sk, ct)
    t = sk.ctx.balanced(dot_mod(sk.s, ct.c, sk.params.q))
    return round_nearest(t, sk.sigma_s * sk.p) % 2


def hom_add(c1: Ciphertext, c2: Ciphertext) -> Ciphertext:
    if c1.q != c2.q or c1.n != c2.n:
        raise ValueError("ciphertexts must share one (n, q)")
    return Ciphertext(
        (c1.c + c2.c) % c1.q,
        c1.q,
        adds=max(c1.adds, c2.adds) + 1,
        mults=max(c1.mults, c2.mults),
    )


def hom_mult(c1: Ciphertext, c2: Ciphertext, ek: EvalKey) -> Ciphertext:
    if c1.q != c2.q or c1.n != c2.n:
        raise ValueError("ciphertexts must share one (n, q)")
    if c1.q != ek.q or c1.n != ek.n:
        raise ValueError("evaluation key does not match the ciphertexts")
    if c1.mults or c2.mults:
        raise DepthError("multiplication depth 1 already spent")
    prod = ek.p_inverse * (c1.c * c2.c % ek.q) % ek.q
    return Ciphertext(
        prod,
        ek.q,
        adds=max(c1.adds, c2.adds),
        mults=max(c1.mults, c2.mults) + 1,
    )


def noise_measure(sk: SecretKey, ct: Ciphertext, m: int) -> int:
    """balanced(<s, c> - m * sigma_s * p): the realized noise given the true
    message multiple m (0/1 fresh; up to the add count after additions)."""
    _check_key_match(sk, ct)
    q = sk.params.q
    return sk.ctx.balanced((dot_mod(sk.s, ct.c, q) - m * sk.sigma_s * sk.p) % q)


def noise_budget(sk: SecretKey) -> NoiseBudget:
    eps = sk.params.epsilon_f
    alpha_q = sk.params.alpha_f * sk.params.q
    norm = sk.s2_norm
    eta = 2.0 * norm * float(sk.params.headroom) / math.sqrt(eps)
    if alpha_q == 0:
        k = math.inf
    else:
        k = sk.sigma_s * sk.p / (2.0 * norm * alpha_q)
    return NoiseBudget(
        eps=eps,
        k=k,
        eta=eta,
        predicted_std_fresh=norm * alpha_q,
        predicted_std_add=math.sqrt(2.0) * norm * alpha_q,
        predicted_std_mult=math.sqrt(2.0) * alpha_q + alpha_q**2 / math.sqrt(sk.p),
    )


def noise_bench(sk: SecretKey, trials: int, stream: RandomStream) -> dict:
    """Predicted vs measured noise and error rates for fresh/add/mult."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    budget = noise_budget(sk)
    is_mult = sk.params.mode == MODE_MULT
    ek = eval_key(sk) if is_mult else None

    fresh, added, multed = [], [], []
    fresh_err = add_err = mult_err = 0
    for i in range(trials):
        sub = stream.derive(i)
        m1, m2 = sub.coin(), sub.coin()
        ct1 = encrypt(sk, m1, sub.derive(0))
        ct2 = encrypt(sk, m2, sub.derive(1))
        fresh.append(noise_measure(sk, ct1, m1))
        fresh_err += decrypt(sk, ct1) != m1
        ca = hom_add(ct1, ct2)
        added.append(noise_measure(sk, ca, m1 + m2))
        add_err += decrypt(sk, ca) != (m1 + m2) % 2
        if is_mult:
            cm = hom_mult(ct1, ct2, ek)
            multed.append(noise_measure(sk, cm, m1 * m2))
            mult_err += decrypt(sk, cm) != m1 * m2

    def _std(xs):
        return float(np.std(np.asarray(xs, dtype=np.float64)))

    rows = {
        "fresh": {
            "predicted_std": budget.predicted_std_fresh,
            "measured_std": _std(fresh),
            "error_rate": fresh_err / trials,
        },
        "add": {
            "predicted_std": budget.predicted_std_add,
            "measured_std": _std(added),
            "error_rate": add_err / trials,
        },
    }
    if is_mult:
        rows["mult"] = {
            "predicted_std": budget.predicted_std_mult,
            "measured_std": _std(multed),
            "error_rate": mult_err / trials,
        }
    return rows
