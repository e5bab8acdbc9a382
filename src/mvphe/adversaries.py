"""Baseline distinguishers for the security games.

These are harness-validation tools (some read leaked key material), not
attacks the scheme claims to resist at real parameters: they check that the
games behave correctly, that noiseless instances are linear-algebra
breakable, and that the reduction adapters transport wins faithfully. The
IND-CPA adversaries always challenge on the messages (0, 1).
"""

from __future__ import annotations

import numpy as np

from .linalg import dot_mod, in_rowspace, solve_linear

EXTRA_SAMPLES = 8  # the span and solve adversaries ask for n + 8 samples


class RandomGuesser:
    """Ignores every oracle and flips a coin."""

    def run(self, oracles, stream) -> int:
        return stream.coin()


class RankMembershipAdversary:
    """Spans Sample outputs, then tests the challenge for row-space
    membership. Exact at zero noise; blind once noise makes samples full
    rank."""

    def run(self, oracles, stream) -> int:
        span = oracles.samples(oracles.n + EXTRA_SAMPLES)
        c = oracles.challenge()
        return 1 if in_rowspace(span, c, oracles.q) else 0


class KnownSecretAdversary:
    """Accepts the challenge v when |balanced(<s, v>)| <= q // 4, with s
    leaked."""

    def run(self, oracles, stream) -> int:
        leak = oracles.leak
        if leak is None or leak.s is None:
            raise ValueError("KnownSecretAdversary needs a leaked secret vector")
        t = dot_mod(leak.s, oracles.challenge(), oracles.q)
        return 1 if min(t, oracles.q - t) <= oracles.q // 4 else 0  # |balanced(t)|


class LinearSolveAdversary:
    """Zero-noise DLWE distinguisher: solve for s from samples, test the
    challenge equation exactly."""

    def run(self, oracles, stream) -> int:
        A, b = oracles.samples(oracles.n + EXTRA_SAMPLES)
        s_hat = solve_linear(A, b, oracles.q)
        a, b = oracles.challenge()
        if s_hat is None:
            return stream.coin()
        return 1 if dot_mod(a, s_hat, oracles.q) == b % oracles.q else 0


class IndCpaRankAdversary:
    """Spans encryptions of zero, then tests which candidate message encoding
    the challenge sits on after subtracting p * m * 1. Needs the leaked scale
    p; exact when the scheme carries no noise, and in mult mode at any alpha:
    the first d_2r coordinates carry no noise, so n + 8 encryptions of zero
    span only d_r + tail_len < n dimensions."""

    def run(self, oracles, stream) -> int:
        if oracles.leak is None or oracles.leak.p is None:
            raise ValueError("IndCpaRankAdversary needs the leaked scale p")
        M = oracles.encrypt_zeros(oracles.n + EXTRA_SAMPLES)
        c = oracles.left_right(0, 1).c
        member = in_rowspace(M, np.stack([c, c - oracles.leak.p]), oracles.q)
        if member[0]:
            return 0
        if member[1]:
            return 1
        return stream.coin()


class KeyLeakAdversary:
    """Sanity distinguisher: decrypts the challenge with the leaked secret
    key; the bit it sees is its guess."""

    def run(self, oracles, stream) -> int:
        from .scheme import decrypt

        if oracles.leak is None or oracles.leak.sk is None:
            raise ValueError("KeyLeakAdversary needs the leaked secret key")
        return decrypt(oracles.leak.sk, oracles.left_right(0, 1))
