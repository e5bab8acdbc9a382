"""Exact linear algebra over F_q: RREF, rank, null spaces, constrained solves.

Elimination is Gaussian reduction by one rank-1 update per pivot, the pivot
being the first row holding a nonzero entry — the field is exact, so there is
no stability reason to pivot by magnitude, and the reduced form is unique
whichever rows are chosen.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .field import FieldContext


def dot_mod(a: np.ndarray, b: np.ndarray, q: int) -> int:
    """<a, b> mod q without 64-bit overflow (products reduced before summing)."""
    return int((a.astype(np.int64) * b.astype(np.int64) % q).sum() % q)


def matmul_mod(A: np.ndarray, B: np.ndarray, q: int) -> np.ndarray:
    """A @ B mod q, exact in int64, for entries of magnitude below q < 2^31.

    Operands are not reduced here. Unless k·(q−1)² fits in int64, B is split
    into 16-bit limbs and k into chunks of 2^15: partial sums stay below 2^62.
    """
    A = np.asarray(A, dtype=np.int64)
    B = np.asarray(B, dtype=np.int64)
    k = A.shape[-1]
    if k * (q - 1) ** 2 < 2**63:
        return A @ B % q
    hi, lo = B >> 16, B & 0xFFFF  # B = 2^16·hi + lo, exact for negative entries too
    step = 1 << 15
    out = 0
    for j in range(0, k, step):
        a = A[..., j : j + step]
        out = (out + a @ hi[j : j + step] % q * 65536 + a @ lo[j : j + step]) % q
    return out


@dataclass
class MatrixFq:
    """A dense matrix over F_q; entries stored canonical in [0, q)."""

    data: np.ndarray
    ctx: FieldContext

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.int64)
        if arr.ndim != 2:
            raise ValueError(f"matrix must be 2-d, got shape {arr.shape}")
        self.data = arr % self.ctx.q

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @classmethod
    def identity(cls, n: int, ctx: FieldContext) -> "MatrixFq":
        return cls(np.eye(n, dtype=np.int64), ctx)

    @classmethod
    def zeros(cls, rows: int, cols: int, ctx: FieldContext) -> "MatrixFq":
        return cls(np.zeros((rows, cols), dtype=np.int64), ctx)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return matmul_mod(self.data, np.asarray(v, dtype=np.int64), self.ctx.q)

    def __eq__(self, other):
        return (
            isinstance(other, MatrixFq)
            and self.ctx.q == other.ctx.q
            and self.data.shape == other.data.shape
            and bool(np.array_equal(self.data, other.data))
        )


def rref(M: MatrixFq) -> Tuple[MatrixFq, int, List[int]]:
    """Reduced row echelon form; returns (R, rank, pivot_columns)."""
    q = M.ctx.q
    A = M.data.copy()
    rows, cols = A.shape
    pivots: List[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.flatnonzero(A[r:, c])
        if nz.size == 0:
            continue
        if nz[0]:  # bring the first nonzero row up to row r
            A[[r, r + nz[0]]] = A[[r + nz[0], r]]
        # rows r.. are zero left of column c, so only columns c.. change
        A[r, c:] = A[r, c:] * pow(int(A[r, c]), -1, q) % q
        col = A[:, c].copy()
        col[r] = 0
        A[:, c:] = (A[:, c:] - col[:, None] * A[r, c:]) % q
        pivots.append(c)
        r += 1
    return MatrixFq(A, M.ctx), len(pivots), pivots


def rank(M: MatrixFq) -> int:
    return rref(M)[1]


def nullspace_basis(M: MatrixFq) -> MatrixFq:
    """Rows span {v : M v = 0}; row count is cols - rank(M)."""
    q = M.ctx.q
    R, rk, pivots = rref(M)
    free = [c for c in range(M.cols) if c not in pivots]
    basis = np.zeros((len(free), M.cols), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[k, fc] = 1
        for i, pc in enumerate(pivots):
            basis[k, pc] = (-R.data[i, fc]) % q
    return MatrixFq(basis, M.ctx)


def in_rowspace(M: MatrixFq, v: np.ndarray) -> bool:
    """Exact membership of v in the row space of M."""
    stacked = MatrixFq(
        np.vstack([M.data, np.asarray(v, dtype=np.int64) % M.ctx.q]), M.ctx
    )
    return rank(stacked) == rank(M)


def solve_linear(A: MatrixFq, b: np.ndarray) -> Optional[np.ndarray]:
    """One solution x of A x = b (free variables set to 0), or None."""
    q = A.ctx.q
    b = np.asarray(b, dtype=np.int64) % q
    if b.shape != (A.rows,):
        raise ValueError(f"rhs length {b.shape} does not match {A.rows} rows")
    aug = MatrixFq(np.hstack([A.data, b.reshape(-1, 1)]), A.ctx)
    R, rk, pivots = rref(aug)
    if A.cols in pivots:  # pivot in the rhs column: inconsistent
        return None
    x = np.zeros(A.cols, dtype=np.int64)
    for i, c in enumerate(pivots):
        x[c] = R.data[i, -1]
    return x


def solve_head_for_orthogonality(
    V: MatrixFq, s2: np.ndarray, head_len: int
) -> Optional[np.ndarray]:
    """Extend a prescribed tail s2 to s = (s1, s2) with V s = 0.

    V's rows span the evaluated ideal subspace. Returns None only when the
    linear system for the head is inconsistent (a signal to resample points,
    not an error).
    """
    q = V.ctx.q
    s2 = np.asarray(s2, dtype=np.int64) % q
    if head_len < 0 or head_len + len(s2) != V.cols:
        raise ValueError(
            f"head_len {head_len} + tail {len(s2)} must equal {V.cols} columns"
        )
    head = MatrixFq(V.data[:, :head_len], V.ctx)
    rhs = (-matmul_mod(V.data[:, head_len:], s2, q)) % q
    s1 = solve_linear(head, rhs)
    if s1 is None:
        return None
    s = np.concatenate([s1, s2])
    assert np.all(V.matvec(s) == 0)
    return s
