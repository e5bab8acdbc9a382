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
import sys
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from typing import Optional, Tuple

import numpy as np

from .errors import (
    DepthError,
    KeyGenError,
    ParameterInfeasibleError,
    UnsupportedOperationError,
)
from .field import FieldContext, balanced, round_nearest
from .linalg import _fits_int64, matmul_mod, orthogonal_head_map, rank
from .mvpoly import (IdealBasis, IdealSpec, evaluation_matrix, ideal_truncated_basis,
                     monomial_count)
from .sampling import NoiseSpec, RandomStream, sample_noise_vector

MODE_ADDITIVE = "additive_only"
MODE_MULT = "mult_depth_1"

_POINT_ATTEMPTS = 64  # rejection budget: 64 candidate point sets of n points
_TAIL_ATTEMPTS = 64
_BENCH_BLOCK = 256  # noise_bench trials per block: one batch of 2 × 256 encryptions


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
    headroom: float = 2  # an int, as in the presets: params_hash hashes it as written

    def __post_init__(self):
        self.alpha = _to_decimal(self.alpha)
        self.epsilon = _to_decimal(self.epsilon)
        self.validate()

    def validate(self):
        if type(self.lam) is not int or self.lam < 1:  # bool is an int subclass
            raise ValueError(f"lambda must be an integer >= 1, got {self.lam!r}")
        # exact types before any comparison: q = 10007.0 equals the ideal's q,
        # and save_params would write a file that load_params refuses
        for name in ("q", "ell", "r", "n"):
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an int, got {getattr(self, name)!r}")
        if not isinstance(self.headroom, (int, float)) or isinstance(self.headroom, bool):
            raise ValueError(f"headroom must be an int or float, got {self.headroom!r}")
        if self.q != self.ideal.ctx.q:  # the ideal's field has tested its own q
            FieldContext(self.q)  # raises unless q is a prime < 2^31
        if self.q < 3:
            raise ValueError("q must be an odd prime >= 3")
        if self.mode not in (MODE_ADDITIVE, MODE_MULT):
            raise ValueError(f"mode must be {MODE_ADDITIVE} or {MODE_MULT}, got {self.mode!r}")
        if not (0 < self.n < self.q):
            raise ValueError(f"need 0 < n < q, got n={self.n}, q={self.q}")
        monomial_count(self.ell, self.r)  # refuses ell < 1 and r < 1, naming r as given
        if self.n > monomial_count(self.ell, self.enc_degree()):
            raise ValueError(
                f"n={self.n} exceeds the evaluation dimension "
                f"{monomial_count(self.ell, self.enc_degree())} for mode {self.mode}"
            )
        # is_finite() first: float() of a signalling NaN raises
        if not (self.alpha.is_finite() and 0 <= float(self.alpha) < math.inf):
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")
        if not (self.epsilon.is_finite() and 0 < float(self.epsilon) < 1):
            raise ValueError("epsilon must lie in (0, 1)")
        if not (1 <= self.headroom <= sys.float_info.max):  # an int may exceed it too
            raise ValueError(f"headroom must be finite and >= 1, got {self.headroom}")
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
    """A length-n vector over F_q plus homomorphic-operation counters; ``c``
    may also be a k×n stack of rows that share the counters.

    The constructor takes an int q >= 2 and any nonempty 1-d or 2-d integer
    array, and stores the array's canonical int64 residues. The library builds
    the ciphertexts it computes through :meth:`_reduced`, which stores them as
    they are.
    """

    c: np.ndarray
    q: int
    adds: int = 0
    mults: int = 0

    def __post_init__(self):
        if type(self.q) is not int or self.q < 2:  # bool is an int subclass
            raise ValueError(f"q must be an int >= 2, got {self.q!r}")
        c = np.asarray(self.c)
        if c.dtype.kind not in "iu" or c.ndim not in (1, 2) or c.size == 0:
            raise ValueError(f"c must be a nonempty 1-d or 2-d integer array, "
                             f"got {c.dtype} of shape {c.shape}")
        if c.dtype == np.uint64:  # entries at or above 2^63 do not fit int64
            c = c % self.q
        self.c = c.astype(np.int64, copy=False) % self.q
        if not all(type(x) is int and x >= 0 for x in (self.adds, self.mults)):
            raise ValueError(f"operation counters must be nonnegative ints, got "
                             f"adds={self.adds!r} and mults={self.mults!r}")

    @classmethod
    def _reduced(cls, c: np.ndarray, q: int, adds: int = 0, mults: int = 0) -> "Ciphertext":
        """A ciphertext of canonical int64 residues that the library computed
        or validated: no check, no copy, no second reduction."""
        ct = cls.__new__(cls)
        ct.c, ct.q, ct.adds, ct.mults = c, q, adds, mults
        return ct

    @property
    def n(self) -> int:
        return self.c.shape[-1]


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
    """A key: its n points, the evaluation matrix G at them and the secret s.
    Construction derives everything else from the params once: the bases B_r
    and B_2r (None in additive mode), d_r, head_len and tail_len, enc_basis,
    noise_spec, the scales sigma_s, eta and p (by ``_scale_window``), and the
    decryption step delta = sigma_s * p. It raises KeyGenError("scale")
    naming s when sigma_s < 1, since no p fits."""

    params: SchemeParams
    points: np.ndarray          # n x ell
    G: np.ndarray               # n x N_enc evaluation matrix
    s: np.ndarray               # length n, canonical residues

    def __post_init__(self):
        params, q = self.params, self.params.q
        self.B_r = ideal_truncated_basis(params.ideal, params.r)  # d_r x C(ell+r, r)
        # the slice s annihilates, of degree enc_degree(): B_r, or B_2r in mult mode
        B = ideal_truncated_basis(params.ideal, params.enc_degree())
        self.B_2r = B if params.enc_degree() > params.r else None
        self.d_r, self.head_len = self.B_r.rows, B.rows
        self.tail_len = self.n - self.head_len
        # B_r zero-extended to G's columns: grlex lists the degree <= r
        # monomials first, so they are a prefix of the degree-2r index
        self.enc_basis = np.zeros((self.d_r, self.G.shape[1]), dtype=np.int64)
        self.enc_basis[:, : self.B_r.index.size] = self.B_r.data
        # noise lands on the tail only, the coordinates that s2 reads
        self.noise_spec = NoiseSpec(params.alpha_f, q, self.tail_len)
        # sigma_s, then p by the exact scale rule; s2_norm and eta are floats for reports
        self.sigma_s = balanced(int(self.s.sum() % q), q)
        if self.sigma_s < 1:
            raise KeyGenError("scale", f"s has balanced sum sigma_s={self.sigma_s}, below 1")
        s2 = balanced(self.s2, q)
        self.p = _scale_window(params, sum(x * x for x in s2.tolist()), self.sigma_s)[0]
        self.s2_norm = float(np.linalg.norm(s2))
        self.eta = 2.0 * self.s2_norm * float(params.headroom) / math.sqrt(params.epsilon_f)
        self.delta = self.sigma_s * self.p  # <s, c> of a plaintext unit
        # s as n×2 16-bit limbs [s >> 16, s & 0xFFFF] when one int64 product
        # c @ s could overflow (n·(q−1)² >= 2^63), None when it cannot; the
        # limb sums of c @ S stay below n·2^47, exact for every n < 2^16
        self._s_limbs = (None if _fits_int64(self.n, q)
                         else np.stack([self.s >> 16, self.s & 0xFFFF], axis=1))

    @property
    def ctx(self) -> FieldContext:
        return self.params.ideal.ctx  # validate() tied its q to params.q

    @property
    def n(self) -> int:
        return self.params.n

    @property
    def d_2r(self) -> Optional[int]:
        return None if self.B_2r is None else self.B_2r.rows

    @property
    def s2(self) -> np.ndarray:
        return self.s[self.head_len :]


def _scale_window(params: SchemeParams, norm_sq: int = 1, sigma: int = 1) -> Tuple[int, int]:
    """The scale rule and its window, in exact integers (alpha, eps and h are
    exact ratios): the least integer above 2h·alpha·q·sqrt(norm_sq)/(sigma·sqrt(eps)),
    isqrt(floor(4h²·alpha²·q²·norm_sq/(sigma²·eps))) + 1, and floor(floor(q/2)/h),
    the largest sigma_s·p with h·sigma_s·p <= floor(q/2). A key's p is the
    first at its |s2|² and sigma_s; feasibility's [lo, hi] is the pair at 1, 1."""
    (a, b), (e, f) = params.alpha.as_integer_ratio(), params.epsilon.as_integer_ratio()
    h, k = params.headroom.as_integer_ratio()
    least = math.isqrt((2 * h * a * params.q) ** 2 * norm_sq * f // ((k * b * sigma) ** 2 * e))
    return least + 1, params.q // 2 * k // h


def feasibility(params: SchemeParams) -> Tuple[IdealBasis, IdealBasis, int, int]:
    """The basis B_r, the basis B of the slice the key annihilates (degree
    enc_degree(): B_r itself in additive mode) and the admissible range
    [lo, hi] of sigma_s*p; keygen and check-params both decide by it.

    Raises KeyGenError("dimension") unless dim(ideal slice) < n (validate
    bounds n by N_enc), and ParameterInfeasibleError("scale") when lo, the
    scale rule's best case |s2| = sigma_s = 1, exceeds hi, the window's upper end.
    """
    B_r = ideal_truncated_basis(params.ideal, params.r)
    B = ideal_truncated_basis(params.ideal, params.enc_degree())
    if B.rows >= params.n:
        raise KeyGenError("dimension", f"need dim(ideal slice)={B.rows} < n={params.n}")
    lo, hi = _scale_window(params)
    if lo > hi:
        raise ParameterInfeasibleError(
            "scale", f"smallest admissible sigma_s*p={lo} exceeds floor(q/2)/h = {hi}")
    return B_r, B, lo, hi


def key_defect(params: SchemeParams, G: np.ndarray):
    """KeyGen's acceptance of the points, through G: ``(defect, V, K)`` with
    defect the first failing condition (condition2, condition1) or None,
    V = B·Gᵀ and K its head map.

    Condition 2: the first d_r points separate the degree-r ideal slice, and
    the first head_len points the evaluated one, the head of V. One
    elimination of V checks it and gives s1 = K·s2; condition 1 reads off K.
    """
    q = params.q
    B_r = ideal_truncated_basis(params.ideal, params.r)
    B = ideal_truncated_basis(params.ideal, params.enc_degree())
    if params.mode == MODE_MULT:
        # grlex lists the degree <= r monomials first: E_r reads off G
        E_r = matmul_mod(B_r.data, G[: B_r.rows, : B_r.index.size].T, q)
        if rank(E_r, q) != B_r.rows:
            return "condition2", None, None
    V = matmul_mod(B.data, G.T, q)
    K = orthogonal_head_map(V, B.rows, q)
    if K is None:
        return "condition2", V, None
    if not _full_row_rank(G, K, q):
        return "condition1", V, K
    return None, V, K


def secret_defect(sk: SecretKey, V: np.ndarray) -> Optional[str]:
    """KeyGen's acceptance of a built key's secret, given V = B·Gᵀ from
    ``key_defect``: the first failing condition or None. ``scale``:
    h·sigma_s·p <= floor(q/2), the window ``feasibility`` reports as hi, so
    that h plaintext units still land inside the balanced range (sigma_s >= 1
    holds by construction); ``orthogonality``: V·s ≡ 0."""
    q = sk.params.q
    if sk.delta > _scale_window(sk.params)[1]:
        return "scale"
    if np.any(matmul_mod(V, sk.s, q)):
        return "orthogonality"
    return None


def keygen(params: SchemeParams, stream: RandomStream) -> SecretKey:
    """Generate a secret key, resampling points until ``key_defect`` accepts
    them (a point set that fails both conditions counts under condition2)
    and tails until ``secret_defect`` accepts the key built on one.

    Raises KeyGenError (with the most frequent failing condition) when the
    retry budget is exhausted, and ParameterInfeasibleError when no plaintext
    scale p can fit below q/2.
    """
    B = feasibility(params)[1]
    point_stream = stream.derive(0)
    tail_stream = stream.derive(1)
    failures = {"condition1": 0, "condition2": 0, "tail": 0}

    for _ in range(_POINT_ATTEMPTS):
        points = _sample_distinct_points(point_stream, params.q, params.n, params.ell)
        G = evaluation_matrix(B.index, params.ideal.ctx, points)
        defect, V, K = key_defect(params, G)
        if defect is not None:
            failures[defect] += 1
            continue
        sk = _choose_secret(params, points, G, V, K, tail_stream)
        if sk is None:
            failures["tail"] += 1
            continue
        return sk

    worst = max(failures, key=failures.get)
    raise KeyGenError(
        worst,
        f"retry budget exhausted after {_POINT_ATTEMPTS} point sets ({failures})",
    )


def _full_row_rank(G: np.ndarray, K: np.ndarray, q: int) -> bool:
    """Condition 1, rank(G) = n, read off the head map K of V = B·Gᵀ.

    Every λ with λᵀG ≡ 0 has V·λ = B·(λᵀG)ᵀ ≡ 0, and V's pivots are its
    first head_len columns, so λ = (K·μ, μ) with μ ≠ 0 when λ ≠ 0. Hence G
    has full row rank exactly when the N × tail_len product
    Gᵀ·[K; I] = G_headᵀ·K + G_tailᵀ has rank tail_len.
    """
    head_len, tail_len = K.shape
    GK = (matmul_mod(G[:head_len].T, K, q) + G[head_len:].T) % q
    return rank(GK, q) == tail_len


def _sample_distinct_points(stream: RandomStream, q: int, n: int, ell: int) -> np.ndarray:
    """n distinct points of F_q^ell, the first occurrences in draw order.

    Each round draws all missing points as one (k, ell) block in one
    uniform_fq call, and keeps the candidates not seen before.
    """
    points, seen = [], set()
    while len(points) < n:
        block = stream.uniform_fq(q, size=(n - len(points), ell))
        for cand in map(tuple, block.tolist()):
            if cand not in seen:
                seen.add(cand)
                points.append(cand)
    return np.array(points, dtype=np.int64)


def _choose_secret(params: SchemeParams, points: np.ndarray, G: np.ndarray, V: np.ndarray,
                   K: np.ndarray, stream: RandomStream) -> Optional[SecretKey]:
    """Pick s2, extend it to s = (K·s2, s2) orthogonal to V and build the key
    on it, until ``secret_defect`` accepts one. A zero sum is skipped unbuilt
    and a negative one negated. Raises KeyGenError("orthogonality") if V·s is
    not zero."""
    tail_len = K.shape[1]
    q = params.q

    for attempt in range(_TAIL_ATTEMPTS):
        if params.mode == MODE_ADDITIVE and attempt == 0:
            s2 = np.zeros(tail_len, dtype=np.int64)
            s2[-1] = 1  # the additive-only shortcut tail (0, ..., 0, 1)
        else:
            s2 = stream.ternary(tail_len)
        s2 = s2 % q
        s = np.concatenate([matmul_mod(K, s2, q), s2])
        sigma = balanced(int(s.sum() % q), q)
        if sigma == 0:
            continue  # no scale fits a zero sum
        # negation preserves orthogonality and flips the sum's sign
        sk = SecretKey(params, points, G, s if sigma > 0 else (-s) % q)
        defect = secret_defect(sk, V)
        if defect == "orthogonality":
            raise KeyGenError("orthogonality", "the head solve left V·s nonzero")
        if defect is None:
            return sk
    return None


def eval_key(sk: SecretKey) -> EvalKey:
    if sk.params.mode != MODE_MULT:
        raise UnsupportedOperationError("evaluation keys exist only in mult_depth_1 mode")
    return EvalKey(q=sk.params.q, n=sk.n, p_inverse=pow(sk.p, -1, sk.params.q))


def _as_bits(bits) -> np.ndarray:
    bits = np.asarray(bits)
    if bits.ndim != 1 or not set(bits.tolist()) <= {0, 1}:
        raise ValueError(f"plaintexts must be a sequence of bits, got {bits!r}")
    return bits.astype(np.int64, copy=False)


def _encrypt_rows(sk: SecretKey, bits: np.ndarray, stream: RandomStream):
    """C = m·p + (G·Fᵀ)ᵀ + E for k bits m, one row per bit, with F = U·enc_basis.

    One k×d_r draw of U, then one k×n structured noise draw E, both in row
    order; ``encrypt`` is the k = 1 call. G·Fᵀ and not F·Gᵀ: matmul_mod
    splits its right operand into limbs at large q, and Fᵀ is the small one.
    Returns (C, F, E).
    """
    q = sk.params.q
    U = stream.uniform_fq(q, size=(len(bits), sk.d_r))
    F = matmul_mod(U, sk.enc_basis, q)
    E = sample_noise_vector(stream, sk.noise_spec, (len(bits), sk.n))
    C = matmul_mod(sk.G, F.T, q)  # n×k: one column per bit until the end
    C += E.T
    C += sk.p * bits
    C %= q
    return C.T, F, E


def encrypt_batch(sk: SecretKey, bits, stream: RandomStream) -> np.ndarray:
    """Encrypt k bits at once: a k×n int64 array whose row i encrypts bits[i]."""
    return _encrypt_rows(sk, _as_bits(bits), stream)[0]


def encrypt_traced(
    sk: SecretKey, m: int, stream: RandomStream
) -> Tuple[Ciphertext, np.ndarray, np.ndarray]:
    """Encrypt and also return the sampled (embedded) f and noise vector e."""
    if m not in (0, 1):  # a scalar test: _as_bits would cost a list round trip per bit
        raise ValueError(f"plaintext must be a bit, got {m}")
    C, F, E = _encrypt_rows(sk, np.array([m], dtype=np.int64), stream)
    return Ciphertext._reduced(C[0], sk.params.q), F[0], E[0]


def encrypt(sk: SecretKey, m: int, stream: RandomStream) -> Ciphertext:
    return encrypt_traced(sk, m, stream)[0]


def _check_key_match(sk: SecretKey, ct: Ciphertext):
    if ct.q != sk.params.q or ct.n != sk.n:
        raise ValueError(f"ciphertext (n={ct.n}, q={ct.q}) does not match the key "
                         f"(n={sk.n}, q={sk.params.q})")


def _phase_residue(sk: SecretKey, ct: Ciphertext, m):
    """(<s, c> - m * delta) mod q, reduced once: one value, or one per
    row of a stack (m then holds one multiple per row).

    <s, c> is one int64 product, c @ s; where that could overflow, one
    product c @ [s >> 16, s & 0xFFFF], whose column sums stay below n·2^47."""
    _check_key_match(sk, ct)
    q, S, shift = sk.params.q, sk._s_limbs, m * sk.delta
    if S is None:
        return (ct.c @ sk.s - shift) % q
    hl = ct.c @ S
    if hl.ndim == 1:  # hl[..., 0] would be 0-d arrays: combine in Python ints
        h, l = hl.tolist()
        return (h * 65536 + l - shift) % q
    return (hl[:, 0] % q * 65536 + hl[:, 1] - shift) % q


def noise_measure(sk: SecretKey, ct: Ciphertext, m):
    """balanced(<s, c> - m * delta): the realized noise given the true
    message multiple m (0/1 fresh; up to the add count after additions).
    For a stack of ciphertext rows, m and the result hold one value per row."""
    return balanced(_phase_residue(sk, ct, m), sk.params.q)


def _phase_bit(sk: SecretKey, phase):
    """The balanced phase <s, c> rounded to the nearest multiple of
    delta = sigma_s * p, mod 2: the decryption rule."""
    return round_nearest(phase, sk.delta) % 2


def decrypt(sk: SecretKey, ct: Ciphertext):
    """The bit of a ciphertext, or one bit per row of a stack."""
    return _phase_bit(sk, noise_measure(sk, ct, 0))


def hom_add(c1: Ciphertext, c2: Ciphertext) -> Ciphertext:
    if c1.q != c2.q or c1.c.shape != c2.c.shape:
        raise ValueError("ciphertexts must share one q and one shape")
    t = c1.c + c2.c  # one fresh array, reduced in place
    t %= c1.q
    return Ciphertext._reduced(t, c1.q, max(c1.adds, c2.adds) + 1, max(c1.mults, c2.mults))


def hom_mult(c1: Ciphertext, c2: Ciphertext, ek: EvalKey) -> Ciphertext:
    if c1.q != c2.q or c1.c.shape != c2.c.shape:
        raise ValueError("ciphertexts must share one q and one shape")
    if c1.q != ek.q or c1.c.shape[-1] != ek.n:
        raise ValueError("evaluation key does not match the ciphertexts")
    if c1.mults or c2.mults:
        raise DepthError("multiplication depth 1 already spent")
    t = c1.c * c2.c  # one fresh array: p^-1·(c1 ⊙ c2), every step below 2^62
    t %= ek.q
    t *= ek.p_inverse
    t %= ek.q
    return Ciphertext._reduced(t, ek.q, max(c1.adds, c2.adds), max(c1.mults, c2.mults) + 1)


def noise_budget(sk: SecretKey) -> NoiseBudget:
    eps = sk.params.epsilon_f
    alpha_q = sk.params.alpha_f * sk.params.q
    norm = sk.s2_norm
    if alpha_q == 0:
        k = math.inf
    else:
        k = sk.delta / (2.0 * norm * alpha_q)
    return NoiseBudget(
        eps=eps,
        k=k,
        eta=sk.eta,
        predicted_std_fresh=norm * alpha_q,
        predicted_std_add=math.sqrt(2.0) * norm * alpha_q,
        predicted_std_mult=math.sqrt(2.0) * alpha_q + alpha_q**2 / math.sqrt(sk.p),
    )


class _NoiseTally:
    """Streaming statistics of one noise_bench row, merged block by block:
    count, mean and summed squared deviations (the pairwise update of Chan,
    Golub and LeVeque), errors, and the largest |noise| values, as many as the
    nearest-rank 99.9th percentile of ``trials`` values reaches down to."""

    def __init__(self, trials: int):
        self.n, self.mean, self.m2, self.errors = 0, 0.0, 0.0, 0
        self.keep = trials - -(-999 * trials // 1000) + 1
        self.top = np.empty(0, dtype=np.int64)

    def add(self, noise: np.ndarray, errors: int):
        x = noise.astype(np.float64)
        k, mean = len(x), float(x.mean())
        delta, total = mean - self.mean, self.n + k
        self.m2 += float(((x - mean) ** 2).sum()) + delta * delta * self.n * k / total
        self.mean += delta * k / total
        self.n = total
        self.errors += errors
        top = np.concatenate([self.top, np.abs(noise)])
        if len(top) > self.keep:
            top = np.partition(top, len(top) - self.keep)[-self.keep :]
        self.top = top


def error_rate_upper95(errors: int, trials: int) -> float:
    """One-sided 95% Clopper-Pearson upper bound on a binomial error rate:
    the rate p at which P(Bin(trials, p) <= errors) = 0.05.

    At zero errors that is 1 - 0.05^(1/trials). Otherwise Newton steps on
    the binomial CDF, whose derivative in p is -trials·P(Bin(trials-1, p) =
    errors), inside a bisection bracket that every step narrows, until a
    step moves p by at most 1e-14·p (at most 7 steps for trials <= 1000).
    """
    n, x = trials, errors
    if x >= n:
        return 1.0
    if x == 0:
        return -math.expm1(math.log(0.05) / n)
    i = np.arange(x + 1)
    log_binom = np.concatenate([[0.0], np.cumsum(np.log((n - i[1:] + 1) / i[1:]))])
    log_dbinom = math.log(n) + math.lgamma(n) - math.lgamma(x + 1) - math.lgamma(n - x)
    lo, hi = x / n, 1.0
    p = min(lo + 2.0 * math.sqrt(lo * (1.0 - lo) / n), (lo + hi) / 2)
    for _ in range(200):
        log_pmf = log_binom + i * math.log(p) + (n - i) * math.log1p(-p)
        top = log_pmf.max()
        f = math.exp(top) * float(np.exp(log_pmf - top).sum()) - 0.05
        if f > 0:
            lo = p
        else:
            hi = p
        slope = math.exp(log_dbinom + x * math.log(p) + (n - 1 - x) * math.log1p(-p))
        nxt = p + f / slope if slope > 0 else (lo + hi) / 2
        # converged? asked before the bracket test, since a step that rounds to
        # p lands on a bracket end and bisecting would restart the search; the
        # tolerance sits above f's ~2e-15 rounding noise, which steps only chase
        if abs(nxt - p) <= 1e-14 * p:
            return nxt
        if not lo < nxt < hi:
            nxt = (lo + hi) / 2
        p = nxt
    return p


def noise_bench(sk: SecretKey, trials: int, stream: RandomStream) -> dict:
    """Predicted vs measured noise and error rates for fresh/add/mult.

    Each row also reports max and 99.9th-percentile |noise|, the margin
    delta/2 - max |noise| (decryption is correct while it is positive),
    and a one-sided 95% upper bound on its error rate. Trials run in blocks of
    _BENCH_BLOCK: block b draws its bits and its 2k encryptions, one batch,
    from stream.derive(b). Memory holds one block of ciphertexts whatever
    ``trials`` is, plus one |noise| value per thousand trials for the
    percentile.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    budget = noise_budget(sk)
    q = sk.params.q
    ek = eval_key(sk) if sk.params.mode == MODE_MULT else None
    ops = ("fresh", "add", "mult") if ek is not None else ("fresh", "add")
    tally = {op: _NoiseTally(trials) for op in ops}

    def measure(op, ct, multiple, bit):
        # one <s, c> per row: the noise and the decrypted bit share its residue
        phase = _phase_residue(sk, ct, 0)
        tally[op].add(balanced((phase - multiple * sk.delta) % q, q),
                      int(np.count_nonzero(_phase_bit(sk, balanced(phase, q)) != bit)))

    for b, start in enumerate(range(0, trials, _BENCH_BLOCK)):
        k = min(_BENCH_BLOCK, trials - start)
        sub = stream.derive(b)
        m = sub.integers(0, 2, size=2 * k)
        C = _encrypt_rows(sk, m, sub)[0]
        ct1, ct2 = Ciphertext._reduced(C[:k], q), Ciphertext._reduced(C[k:], q)
        m1, m2 = m[:k], m[k:]
        measure("fresh", ct1, m1, m1)
        measure("add", hom_add(ct1, ct2), m1 + m2, (m1 + m2) % 2)
        if ek is not None:
            measure("mult", hom_mult(ct1, ct2, ek), m1 * m2, m1 * m2)

    predicted = {"fresh": budget.predicted_std_fresh, "add": budget.predicted_std_add,
                 "mult": budget.predicted_std_mult}
    rows = {}
    for op, t in tally.items():
        max_abs = int(t.top.max())
        rows[op] = {
            "predicted_std": predicted[op],
            "measured_std": math.sqrt(t.m2 / t.n),
            "error_rate": t.errors / trials,
            "max_abs_noise": max_abs,
            "p999_abs_noise": int(t.top.min()),
            "margin": sk.delta / 2 - max_abs,
            "error_rate_upper95": error_rate_upper95(t.errors, trials),
        }
    return rows
