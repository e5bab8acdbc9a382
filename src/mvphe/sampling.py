"""Seedable randomness: uniform field elements and the rounded Gaussian noise.

A RandomStream owns a PCG64 generator; identical seeds reproduce identical
draw sequences. Parallel or repeated workloads derive independent child
streams with ``derive(k)`` instead of sharing one stream. The generator is
seeded at the first draw, so a stream that only derives children costs no
seeding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_TWO_PI = 2.0 * np.pi


class RandomStream:
    """Deterministic stream of randomness addressed by (seed, spawn path)."""

    def __init__(self, seed=None, _spawn_key=()):
        if seed is None:
            # fresh OS entropy, folded to 64 bits so the seed stays loggable
            seed = int(np.random.SeedSequence().generate_state(1, np.uint64)[0])
        self.seed = int(seed)
        self._spawn_key = tuple(int(k) for k in _spawn_key)
        self._gen = None  # seeded at the first draw (see _seed)
        self.counter = 0  # number of sampling calls served

    def _seed(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.seed, spawn_key=self._spawn_key)
        self._gen = np.random.Generator(np.random.PCG64(ss))
        return self._gen

    def derive(self, key: int) -> "RandomStream":
        """Independent child stream; same (seed, path, key) -> same stream."""
        return RandomStream(self.seed, self._spawn_key + (int(key),))

    def integers(self, low: int, high: int, size=None):
        """Unbiased uniform integers in [low, high)."""
        self.counter += 1
        out = (self._gen or self._seed()).integers(low, high, size=size)
        if size is None:
            return int(out)
        return out.astype(np.int64, copy=False)

    def uniform_fq(self, q: int, size=None):
        return self.integers(0, q, size=size)

    def coin(self) -> int:
        return self.integers(0, 2)

    def ternary(self, size: int) -> np.ndarray:
        """i.i.d. entries from {-1, 0, 1}."""
        return self.integers(0, 3, size=size) - 1

    def unit_uniform(self, size=None):
        self.counter += 1
        return (self._gen or self._seed()).random(size=size)

    def gaussian(self, std: float, size=None):
        """Zero-mean normal draws via the Box-Muller transform; ``size`` is a
        count or a shape, filled in row-major order from one draw."""
        if size is None:
            n = 1
        else:
            n = math.prod(size) if isinstance(size, tuple) else int(size)
        pairs = (n + 1) // 2
        u = self.unit_uniform(2 * pairs)  # the u1 block, then the u2 block
        radius = np.sqrt(-2.0 * np.log(1.0 - u[:pairs]))  # 1 - u1 in (0, 1]: log stays finite
        theta = _TWO_PI * u[pairs:]
        z = np.concatenate([radius * np.cos(theta), radius * np.sin(theta)])[:n] * float(std)
        if size is None:
            return float(z[0])
        return z.reshape(size)

    def __repr__(self):
        return f"RandomStream(seed={self.seed}, path={self._spawn_key}, counter={self.counter})"


@dataclass(frozen=True)
class NoiseSpec:
    """Rounded-Gaussian noise on Z_q with standard deviation alpha*q.

    ``support_len`` is the number of trailing coordinates that receive noise
    in a structured noise vector; the leading coordinates stay exactly zero.
    alpha = 0 is the degenerate noiseless setting (every draw is 0).
    """

    alpha: float
    q: int
    support_len: int = 0

    def __post_init__(self):
        if not (0 <= self.alpha < math.inf):
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")
        if self.support_len < 0:
            raise ValueError(f"support_len must be >= 0, got {self.support_len}")

    @property
    def std(self) -> float:
        return self.alpha * self.q


def _round_half_up(x: np.ndarray) -> np.ndarray:
    # ties toward +inf, matching field.round_nearest
    return np.floor(x + 0.5).astype(np.int64)


def discrete_gaussian_vector(stream: RandomStream, spec: NoiseSpec, size) -> np.ndarray:
    """i.i.d. draws of round(x * q) mod q with x ~ N(0, alpha^2); ``size`` is
    a count or a shape."""
    raw = stream.gaussian(spec.std, size=size)
    return _round_half_up(np.asarray(raw)) % spec.q


def sample_noise_vector(stream: RandomStream, spec: NoiseSpec, shape) -> np.ndarray:
    """(0, ..., 0, e_1, ..., e_support) with e_i from the rounded Gaussian.

    ``shape`` is a length n, or (k, n) for k such rows; the k·support draws
    come from one Gaussian call, row by row, so k = 1 draws what n does.
    """
    out = np.zeros(shape, dtype=np.int64)
    n = out.shape[-1]
    if spec.support_len > n:
        raise ValueError(f"support_len {spec.support_len} exceeds vector length {n}")
    if spec.support_len:
        tail = out[..., n - spec.support_len :]
        tail[...] = discrete_gaussian_vector(stream, spec, tail.shape)
    return out
