"""Seedable randomness: uniform field elements and the rounded Gaussian noise.

A RandomStream is addressed by (seed, path); ``derive(k)`` appends k to the
path and seeds nothing. Draw call i of a stream reads SHAKE-128(key ‖ i) for
exactly the bytes it needs. The key is a domain tag, the seed and each path
entry, and every integer is written as an 8-byte little-endian length and its
minimal little-endian bytes, so no two (seed, path, i) share an input.
Uniform integers are Lemire's rejection on 32-bit words, the same on every
platform; the Gaussian is Box-Muller on the top 53 bits of 64-bit words, so
it goes through numpy's log, cos and sin.
"""

from __future__ import annotations

import hashlib
import math
import operator
import os
from dataclasses import dataclass

import numpy as np

_TWO_PI = 2.0 * np.pi
_TAG = b"mvphe.RandomStream.v1"
_WORD = 1 << 32


def _encode(x: int) -> bytes:
    """x >= 0 as its byte length (8 bytes, little-endian), then its bytes."""
    b = x.to_bytes((x.bit_length() + 7) // 8, "little")
    return len(b).to_bytes(8, "little") + b


class RandomStream:
    """Deterministic stream of randomness addressed by (seed, path)."""

    def __init__(self, seed=None):
        if seed is None:
            seed = int.from_bytes(os.urandom(32), "little")  # 256 bits: the stream's key strength
        self.seed = operator.index(seed)  # an integer, not a truncated float
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        self._path = ()
        self._key = _TAG + _encode(self.seed)
        self._calls = 0

    def derive(self, key: int) -> "RandomStream":
        """Independent child stream; same (seed, path, key) -> same stream."""
        key = operator.index(key)
        if key < 0:
            raise ValueError(f"derive key must be >= 0, got {key}")
        child = object.__new__(RandomStream)
        child.seed, child._path, child._calls = self.seed, self._path + (key,), 0
        child._key = self._key + _encode(key)
        return child

    def _read(self, nbytes: int) -> bytes:
        """The output of the next draw call."""
        i = self._calls
        self._calls = i + 1
        return hashlib.shake_128(self._key + _encode(i)).digest(nbytes)

    def integers(self, low: int, high: int, size=None):
        """Unbiased uniform integers in [low, high), high - low <= 2^32.

        Lemire's rejection: a 32-bit word w gives low + (w·m >> 32) for
        m = high - low unless (w·m mod 2^32) < 2^32 mod m. A call reads one
        word per value; a call whose words fell short is continued by the next.
        """
        low = operator.index(low)  # Python ints: w·m must not wrap in int64
        m = operator.index(high) - low
        if not 1 <= m <= _WORD:
            raise ValueError(f"integers needs 1 <= high - low <= 2**32, got {m}")
        count = 1 if size is None else math.prod(size) if isinstance(size, tuple) else size
        reject = _WORD % m
        out = np.empty(count, dtype=np.int64)
        got = 0
        while got < count:
            words = np.frombuffer(self._read(4 * (count - got)), "<u4")
            w = np.multiply(words, m, dtype=np.uint64)  # w·m < 2^64, at any numpy promotion rule
            kept = w[w.astype(np.uint32) >= reject] >> 32  # the cast keeps w·m mod 2^32
            out[got : got + len(kept)] = kept
            got += len(kept)
        out += low
        return int(out[0]) if size is None else out.reshape(size)

    def uniform_fq(self, q: int, size=None):
        return self.integers(0, q, size=size)

    def coin(self) -> int:
        return self.integers(0, 2)

    def ternary(self, size: int) -> np.ndarray:
        """i.i.d. entries from {-1, 0, 1}."""
        return self.integers(0, 3, size=size) - 1

    def gaussian(self, std: float, size):
        """Zero-mean normal draws via the Box-Muller transform; ``size`` is a
        count or a shape, filled in row-major order from one draw call."""
        n = math.prod(size) if isinstance(size, tuple) else int(size)
        pairs = (n + 1) // 2
        words = np.frombuffer(self._read(16 * pairs), "<u8")
        u = (words >> 11) * 2.0**-53  # the u1 block, then the u2 block, in [0, 1)
        radius = np.sqrt(-2.0 * np.log(1.0 - u[:pairs]))  # 1 - u1 in (0, 1]: log stays finite
        theta = _TWO_PI * u[pairs:]
        z = np.concatenate([radius * np.cos(theta), radius * np.sin(theta)])[:n] * float(std)
        return z.reshape(size)

    def __repr__(self):
        return f"RandomStream(seed={self.seed}, path={self._path})"


@dataclass(frozen=True)
class NoiseSpec:
    """Rounded-Gaussian noise on Z_q with standard deviation alpha*q.

    ``support_len`` is the number of trailing coordinates that receive noise
    in a structured noise vector; the leading coordinates stay exactly zero.
    alpha = 0 is the degenerate noiseless setting (every draw is 0).
    """

    alpha: float
    q: int
    support_len: int

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
