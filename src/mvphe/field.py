"""Exact arithmetic in the prime field F_q.

Scalars are plain Python ints; vectors and matrices are ``int64`` numpy
arrays holding canonical residues in ``[0, q)``. The balanced representative
in ``(-q/2, q/2]`` is a *view* used for magnitude tests, never the stored
form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MR_WITNESSES = (2, 7, 61)  # deterministic for n < 3,215,031,751 > 2^31


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13):
        if n == small:
            return True
        if n % small == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldContext:
    """The prime modulus q, 2 <= q < 2^31, with inverse and balanced views.

    q is capped below 2^31 so every elementwise product fits a 64-bit
    intermediate.
    """

    q: int

    def __post_init__(self):
        if not isinstance(self.q, int) or not (2 <= self.q < 2**31):
            raise ValueError(f"q must be an integer in [2, 2^31), got {self.q}")
        if not _is_prime(self.q):
            raise ValueError(f"q must be prime, got {self.q}")

    def inv(self, a: int) -> int:
        a = int(a) % self.q
        if a == 0:
            raise ZeroDivisionError("0 has no inverse in F_q")
        return pow(a, -1, self.q)

    def balanced(self, x):
        """Balanced representative in (-q/2, q/2] of an int or array."""
        if isinstance(x, np.ndarray):
            x = x.astype(np.int64) % self.q
            return np.where(x > self.q // 2, x - self.q, x)
        x = int(x) % self.q
        return x - self.q if x > self.q // 2 else x


def round_nearest(numerator: int, denominator: int) -> int:
    """Nearest integer to numerator/denominator, exact halves toward +inf.

    Pure integer arithmetic; the tie rule is fixed globally so decryption is
    deterministic.
    """
    if denominator <= 0:
        raise ValueError(f"denominator must be positive, got {denominator}")
    return (2 * numerator + denominator) // (2 * denominator)
