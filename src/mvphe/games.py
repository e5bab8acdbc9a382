"""Game-based security harness: hidden-subspace membership (HSM), decisional
LWE, and IND-CPA games, the two reduction adapters between them, and
Monte-Carlo advantage estimation.

Every game draws a hidden bit beta at initialization, serves Sample queries
freely (up to a cap), answers exactly one Challenge, and scores the
adversary's guess in Finalize. Sample queries come in batches: ``samples(k)``
answers k of them from one k×n draw, and ``sample()`` is its k = 1 case. An
adversary is any object with ``run(oracles, stream) -> guess_bit``. The
oracles keep no transcript: to see what they serve, wrap them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ProtocolViolationError
from .linalg import dot_mod, matmul_mod, rank
from .sampling import NoiseSpec, RandomStream, discrete_gaussian_vector, sample_noise_vector
from .scheme import (
    Ciphertext,
    SchemeParams,
    SecretKey,
    encrypt,
    encrypt_batch,
    keygen,
)

SAMPLE_CAP = 4096


@dataclass
class SubspaceInstance:
    """An l-dimensional subspace of F_q^n plus the noise distribution: n is
    the basis width and q the noise's field."""

    basis: np.ndarray  # l x n, canonical residues
    noise: NoiseSpec

    def __post_init__(self):
        if self.basis.ndim != 2:
            raise ValueError("basis must be a matrix")
        self.n, self.q = self.basis.shape[1], self.noise.q
        l = self.dim
        if not (1 <= l < self.n):
            raise ValueError(f"need 1 <= dim {l} < n {self.n}")
        # a basis [I | X] (the LWE instance's form) has rank l whatever X is
        identity_head = np.array_equal(self.basis[:, :l], np.eye(l, dtype=np.int64))
        if not identity_head and rank(self.basis, self.q) != l:
            raise ValueError("basis rows must be linearly independent")

    @property
    def dim(self) -> int:
        return self.basis.shape[0]


@dataclass
class AdvantageEstimate:
    trials: int
    wins: int
    advantage: float
    ci_halfwidth: float

    @property
    def win_rate(self) -> float:
        return self.wins / self.trials


@dataclass
class Leak:
    """Out-of-band key material handed to harness-validation adversaries."""

    p: Optional[int] = None
    sk: Optional[SecretKey] = None
    s: Optional[np.ndarray] = None


def _check_challenge_messages(m0: int, m1: int):
    """IND-CPA challenge messages are bits, and at least one of them is 0."""
    if m0 not in (0, 1) or m1 not in (0, 1):
        raise ValueError("challenge messages must be bits")
    if m0 != 0 and m1 != 0:
        raise ProtocolViolationError("one challenge message must be 0")


class _OracleBase:
    """Hidden beta (the stream's first draw), one challenge, <= SAMPLE_CAP samples."""

    def __init__(self, stream: RandomStream):
        self._stream = stream
        self.beta = stream.coin()
        self._challenged = False
        self._samples = 0
        self.leak: Optional[Leak] = None

    def _count_sample(self, k: int):
        """Count k samples against the cap, before any of them is drawn."""
        if k < 1:
            raise ValueError(f"need k >= 1 samples, got {k}")
        self._samples += k
        if self._samples > SAMPLE_CAP:
            raise ProtocolViolationError(f"sample cap {SAMPLE_CAP} exceeded")

    def _claim_challenge(self):
        if self._challenged:
            raise ProtocolViolationError("challenge may be called once per game")
        self._challenged = True

    def finalize(self, guess: int) -> bool:
        return int(guess) == self.beta


class HsmOracles(_OracleBase):
    def __init__(self, instance: SubspaceInstance, stream):
        super().__init__(stream)
        self.instance = instance
        self.n, self.q = instance.n, instance.q

    def _noisy_members(self, k: int) -> np.ndarray:
        """Rows U·B + E: U from one k×dim draw, then noise E of shape (k, n)."""
        U = self._stream.uniform_fq(self.q, size=(k, self.instance.dim))
        V = matmul_mod(U, self.instance.basis, self.q)
        E = sample_noise_vector(self._stream, self.instance.noise, (k, self.n))
        return (V + E) % self.q

    def samples(self, k: int) -> np.ndarray:
        """k Sample outputs, the rows of one k×n batch; all k count against
        the sample cap before anything is drawn."""
        self._count_sample(k)
        return self._noisy_members(k)

    def sample(self) -> np.ndarray:
        return self.samples(1)[0]

    def challenge(self) -> np.ndarray:
        self._claim_challenge()
        if self.beta == 1:
            return self._noisy_members(1)[0]
        return self._stream.uniform_fq(self.q, size=self.n)


class DlweOracles(_OracleBase):
    def __init__(self, n: int, noise: NoiseSpec, stream):
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        super().__init__(stream)
        self.n, self.q = n, noise.q
        self.noise = NoiseSpec(noise.alpha, noise.q, 1)
        self.secret = stream.uniform_fq(self.q, size=n)

    def _lwe_pairs(self, k: int):
        """(A, A·s + e): A from one k×n draw, then the k errors e from one draw."""
        A = self._stream.uniform_fq(self.q, size=(k, self.n))
        e = discrete_gaussian_vector(self._stream, self.noise, k)
        return A, (dot_mod(A, self.secret, self.q) + e) % self.q

    def samples(self, k: int):
        """k Sample pairs as (A, b), the rows of A with the entries of b; all
        k count against the sample cap before anything is drawn."""
        self._count_sample(k)
        return self._lwe_pairs(k)

    def sample(self):
        A, b = self.samples(1)
        return A[0], int(b[0])

    def challenge(self):
        self._claim_challenge()
        if self.beta == 1:
            A, b = self._lwe_pairs(1)
            return A[0], int(b[0])
        a = self._stream.uniform_fq(self.q, size=self.n)
        return a, int(self._stream.uniform_fq(self.q))


class IndCpaOracles(_OracleBase):
    """Encrypt-zero oracle plus a one-shot left-right challenge.

    Encryptions of zero come from the child stream 0 and the challenge from
    child 1, so no sample shares randomness with the challenge.
    """

    def __init__(self, sk: SecretKey, stream):
        super().__init__(stream)
        self.sk = sk
        self.n, self.q = sk.n, sk.params.q
        self.leak = Leak(p=sk.p, sk=sk, s=sk.s)
        self._zeros_stream = stream.derive(0)

    def encrypt_zeros(self, k: int) -> np.ndarray:
        """k encryptions of zero, the rows of one k×n batch; all k count
        against the sample cap before anything is drawn."""
        self._count_sample(k)
        return encrypt_batch(self.sk, np.zeros(k, dtype=np.int64), self._zeros_stream)

    def encrypt_zero(self) -> Ciphertext:
        """One encryption of zero: the k = 1 case of encrypt_zeros."""
        return Ciphertext(self.encrypt_zeros(1)[0], self.q)

    def left_right(self, m0: int, m1: int) -> Ciphertext:
        _check_challenge_messages(m0, m1)
        self._claim_challenge()
        return encrypt(self.sk, (m0, m1)[self.beta], self._stream.derive(1))


# ---------------------------------------------------------------------------
# games

def hsm_game(instance: SubspaceInstance, adversary, stream: RandomStream,
             leak: Optional[Leak] = None) -> bool:
    oracles = HsmOracles(instance, stream.derive(0))
    oracles.leak = leak
    guess = adversary.run(oracles, stream.derive(1))
    return oracles.finalize(guess)


def dlwe_game(n: int, noise: NoiseSpec, adversary, stream: RandomStream) -> bool:
    oracles = DlweOracles(n, noise, stream.derive(0))
    guess = adversary.run(oracles, stream.derive(1))
    return oracles.finalize(guess)


def indcpa_game(params: SchemeParams, adversary, stream: RandomStream,
                sk: Optional[SecretKey] = None) -> bool:
    if sk is None:
        sk = keygen(params, stream.derive(0))
    oracles = IndCpaOracles(sk, stream.derive(1))
    guess = adversary.run(oracles, stream.derive(2))
    return oracles.finalize(guess)


# ---------------------------------------------------------------------------
# reduction adapters

class _HsmViewOfDlwe:
    """Presents DLWE oracles as an (n+1)-dimensional HSM instance by mapping
    each pair (a, b) to the vector (a, -b), a batch (A, b) to [A | -b]."""

    def __init__(self, dlwe_oracles: DlweOracles):
        self._inner = dlwe_oracles
        self.n = dlwe_oracles.n + 1
        self.q = dlwe_oracles.q
        self.leak = dlwe_oracles.leak

    def _convert(self, A, b):
        return np.hstack([A, ((-b) % self.q)[:, None]])

    def samples(self, k: int) -> np.ndarray:
        return self._convert(*self._inner.samples(k))

    sample = HsmOracles.sample

    def challenge(self):
        a, b = self._inner.challenge()
        return self._convert(a[None], np.array([b]))[0]


class Lemma1Adversary:
    """DLWE adversary built from an HSM adversary via the (a, -b) embedding."""

    def __init__(self, hsm_adversary):
        self.inner = hsm_adversary

    def run(self, oracles: DlweOracles, stream: RandomStream) -> int:
        return self.inner.run(_HsmViewOfDlwe(oracles), stream)


class _IndCpaViewOfHsm:
    """Simulates the IND-CPA oracles on top of an HSM instance: encryptions of
    zero come from Sample, and the left-right reply is Challenge plus the
    plaintext encoding p * m_gamma * 1."""

    def __init__(self, hsm_oracles: HsmOracles, p: int, gamma: int,
                 leak: Optional[Leak]):
        self._inner = hsm_oracles
        self.p = p
        self.gamma = gamma
        self.n, self.q = hsm_oracles.n, hsm_oracles.q
        self.leak = leak

    def encrypt_zeros(self, k: int) -> np.ndarray:
        """k Sample outputs as rows, from one batched Sample call."""
        return self._inner.samples(k)

    encrypt_zero = IndCpaOracles.encrypt_zero

    def left_right(self, m0: int, m1: int) -> Ciphertext:
        _check_challenge_messages(m0, m1)
        v = self._inner.challenge()
        m = (m0, m1)[self.gamma]
        return Ciphertext((v + self.p * m) % self.q, self.q)


class Theorem1Adversary:
    """HSM adversary built from an IND-CPA adversary: simulate the IND-CPA
    game against the hidden subspace, answer 1 exactly when the inner
    adversary wins the simulation."""

    def __init__(self, indcpa_adversary, p: int, leak: Optional[Leak]):
        self.inner = indcpa_adversary
        self.p = p
        self.leak = leak

    def run(self, oracles: HsmOracles, stream: RandomStream) -> int:
        gamma = stream.coin()
        view = _IndCpaViewOfHsm(oracles, self.p, gamma, self.leak)
        guess = self.inner.run(view, stream.derive(0))
        return 1 if guess == gamma else 0


# ---------------------------------------------------------------------------
# instances and estimation

def uniform_subspace_instance(n: int, l: int, noise: NoiseSpec,
                              stream: RandomStream) -> SubspaceInstance:
    """A uniformly random l-dimensional subspace of F_q^n, q = noise.q
    (synthetic HSM instances)."""
    if not (1 <= l < n):
        raise ValueError(f"need 1 <= l < n, got l={l}, n={n}")
    for _ in range(64):
        basis = stream.uniform_fq(noise.q, size=(l, n))
        try:  # the instance's own rank check is the one elimination
            return SubspaceInstance(basis, noise)
        except ValueError:  # dependent rows: the only refusal left to this basis
            pass
    raise RuntimeError("could not sample an independent basis")


def lwe_subspace_instance(s: np.ndarray, noise: NoiseSpec) -> SubspaceInstance:
    """The (s, 1)-orthogonal subspace of F_q^{n+1}, q = noise.q, with noise on
    the last coordinate only: rows (e_i, -s_i)."""
    q = noise.q
    basis = np.hstack([np.eye(len(s), dtype=np.int64), (-s.reshape(-1, 1)) % q])
    return SubspaceInstance(basis, NoiseSpec(noise.alpha, q, 1))


def scheme_instance(sk: SecretKey) -> SubspaceInstance:
    """The scheme-induced instance of Theorem 1: the encryption subspace
    enc_basis·Gᵀ, where encryptions of zero lie, plus the scheme noise."""
    return SubspaceInstance(matmul_mod(sk.enc_basis, sk.G.T, sk.params.q), sk.noise_spec)


def estimate_advantage(game_fn: Callable, adversary, trials: int,
                       stream: RandomStream) -> AdvantageEstimate:
    """Run independent games on derived streams and report |win rate - 1/2|
    with its normal-approximation 95% half-width."""
    if trials < 100:
        raise ValueError(f"need trials >= 100, got {trials}")
    wins = 0
    for i in range(trials):
        wins += bool(game_fn(adversary, stream.derive(i)))
    return AdvantageEstimate(
        trials=trials,
        wins=wins,
        advantage=abs(wins / trials - 0.5),
        ci_halfwidth=1.96 * (0.25 / trials) ** 0.5,
    )


def joint_ci(a: AdvantageEstimate, b: AdvantageEstimate) -> float:
    return (a.ci_halfwidth**2 + b.ci_halfwidth**2) ** 0.5


# ---------------------------------------------------------------------------
# paired reduction experiments (used by the CLI and the acceptance suite)

def lemma1_experiment(n: int, q: int, noise: NoiseSpec, hsm_adversary,
                      trials: int, stream: RandomStream) -> dict:
    """Win rates of an HSM adversary natively on fresh (s, 1)-perp instances
    versus wrapped as a DLWE adversary. q must be the noise's field."""
    if q != noise.q:
        raise ValueError(f"q={q} differs from the noise's q={noise.q}")

    def native_game(adv, sub):
        s = sub.derive(0).uniform_fq(q, size=n)
        return hsm_game(lwe_subspace_instance(s, noise), adv, sub.derive(1))

    wrapped = Lemma1Adversary(hsm_adversary)

    def dlwe_game_fn(adv, sub):
        return dlwe_game(n, noise, adv, sub)

    native = estimate_advantage(native_game, hsm_adversary, trials, stream.derive(0))
    reduced = estimate_advantage(dlwe_game_fn, wrapped, trials, stream.derive(1))
    return {"native_hsm": native, "wrapped_dlwe": reduced}


def theorem1_experiment(params: SchemeParams, indcpa_adversary, trials: int,
                        stream: RandomStream) -> dict:
    """Measured IND-CPA advantage of an adversary versus the HSM advantage of
    its wrapped form on scheme-induced instances (fresh key per game)."""

    def native_game(adv, sub):
        return indcpa_game(params, adv, sub)

    def wrapped_game(adv, sub):
        sk = keygen(params, sub.derive(0))
        inst = scheme_instance(sk)
        wrapped = Theorem1Adversary(adv, sk.p, Leak(p=sk.p, sk=sk, s=sk.s))
        return hsm_game(inst, wrapped, sub.derive(1))

    native = estimate_advantage(native_game, indcpa_adversary, trials, stream.derive(0))
    reduced = estimate_advantage(wrapped_game, indcpa_adversary, trials, stream.derive(1))
    return {"native_indcpa": native, "wrapped_hsm": reduced}
