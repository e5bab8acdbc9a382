"""Exact arithmetic in the prime field F_q.

Scalars are plain Python ints; vectors and matrices are ``int64`` numpy
arrays holding canonical residues in ``[0, q)``. The balanced representative
in ``(-q/2, q/2]`` is a *view* used for magnitude tests, never the stored
form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _is_prime(n: int) -> bool:
    """Trial division by 2 and by every odd number up to isqrt(n)."""
    return n == 2 or (n > 2 and n % 2 == 1
                      and bool(np.all(n % np.arange(3, math.isqrt(n) + 1, 2))))


def balanced(x, q: int):
    """The balanced view in (-q/2, q/2] of residues in [0, q): one np.where
    for an array, an int for one value."""
    if isinstance(x, np.ndarray):
        return np.where(x > q // 2, x - q, x)
    x = int(x)
    return x - q if x > q // 2 else x


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
            return balanced(x.astype(np.int64) % self.q, self.q)
        return balanced(int(x) % self.q, self.q)


def round_nearest(numerator: int, denominator: int) -> int:
    """Nearest integer to numerator/denominator, exact halves toward +inf.

    Pure integer arithmetic; the tie rule is fixed globally so decryption is
    deterministic.
    """
    if denominator <= 0:
        raise ValueError(f"denominator must be positive, got {denominator}")
    return (2 * numerator + denominator) // (2 * denominator)
