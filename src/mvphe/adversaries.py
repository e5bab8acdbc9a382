"""Baseline distinguishers for the security games.

These are harness-validation tools (some read leaked key material), not
attacks the scheme claims to resist at real parameters: they check that the
games behave correctly, that noiseless instances are linear-algebra
breakable, and that the reduction adapters transport wins faithfully.
"""

from __future__ import annotations

import numpy as np

from .linalg import dot_mod, in_rowspace, solve_linear


class RandomGuesser:
    """Ignores every oracle and flips a coin."""

    def run(self, oracles, stream) -> int:
        return stream.coin()


class RankMembershipAdversary:
    """Spans Sample outputs, then tests the challenge for row-space
    membership. Exact at zero noise; blind once noise makes samples full
    rank."""

    def __init__(self, extra_samples: int = 8):
        self.extra = extra_samples

    def run(self, oracles, stream) -> int:
        span = [oracles.sample() for _ in range(oracles.n + self.extra)]
        c = oracles.challenge()
        return 1 if in_rowspace(np.array(span, dtype=np.int64), c, oracles.q) else 0


class KnownSecretAdversary:
    """Thresholds |balanced(<s, v>)| for the challenge v, with s leaked."""

    def __init__(self, threshold=None):
        self.threshold = threshold

    def run(self, oracles, stream) -> int:
        leak = oracles.leak
        if leak is None or leak.s is None:
            raise ValueError("KnownSecretAdversary needs a leaked secret vector")
        threshold = self.threshold
        if threshold is None:
            threshold = leak.threshold if leak.threshold is not None else oracles.q // 4
        t = dot_mod(leak.s, oracles.challenge(), oracles.q)
        return 1 if min(t, oracles.q - t) <= threshold else 0  # |balanced(t)|


class LinearSolveAdversary:
    """Zero-noise DLWE distinguisher: solve for s from samples, test the
    challenge equation exactly."""

    def __init__(self, extra_samples: int = 8):
        self.extra = extra_samples

    def run(self, oracles, stream) -> int:
        rows, rhs = [], []
        for _ in range(oracles.n + self.extra):
            a, b = oracles.sample()
            rows.append(a)
            rhs.append(b)
        s_hat = solve_linear(rows, rhs, oracles.q)
        a, b = oracles.challenge()
        if s_hat is None:
            return stream.coin()
        return 1 if dot_mod(a, s_hat, oracles.q) == b % oracles.q else 0


class IndCpaRankAdversary:
    """Spans encryptions of zero, then tests which candidate message encoding
    the challenge sits on after subtracting p * m * 1. Needs the leaked scale
    p; exact when the scheme carries no noise."""

    def __init__(self, m0: int = 0, m1: int = 1, extra_samples: int = 8):
        self.m0, self.m1 = m0, m1
        self.extra = extra_samples

    def run(self, oracles, stream) -> int:
        if oracles.leak is None or oracles.leak.p is None:
            raise ValueError("IndCpaRankAdversary needs the leaked scale p")
        p = oracles.leak.p
        M = oracles.encrypt_zeros(oracles.n + self.extra)
        c = oracles.left_right(self.m0, self.m1).c
        member = in_rowspace(M, np.stack([c - p * self.m0, c - p * self.m1]), oracles.q)
        if member[0]:
            return 0
        if member[1]:
            return 1
        return stream.coin()


class KeyLeakAdversary:
    """Sanity distinguisher: decrypts the challenge with the leaked secret
    key and reports which message it sees."""

    def __init__(self, m0: int = 0, m1: int = 1):
        self.m0, self.m1 = m0, m1

    def run(self, oracles, stream) -> int:
        from .scheme import decrypt

        if oracles.leak is None or oracles.leak.sk is None:
            raise ValueError("KeyLeakAdversary needs the leaked secret key")
        ct = oracles.left_right(self.m0, self.m1)
        m = decrypt(oracles.leak.sk, ct)
        if m == self.m0 and m != self.m1:
            return 0
        if m == self.m1 and m != self.m0:
            return 1
        return stream.coin()
