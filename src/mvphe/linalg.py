"""Exact linear algebra over F_q: RREF, rank, null spaces, constrained solves.

Matrices and vectors are plain int64 numpy arrays and the modulus is a
separate argument, ``f(array, ..., q)``, as in exact linear-algebra libraries
such as FFLAS-FFPACK. Arrays hold canonical residues in [0, q); ``rref``
reduces its working copy mod q, so it also accepts any int64 entries. q is
checked (a prime below 2^31) once, where it enters the program, through
:class:`~mvphe.field.FieldContext`; nothing here tests it again.

``matmul_mod`` and ``dot_mod`` are exact at every such q. When k·(q−1)² fits
in int64 (:func:`_fits_int64`) each is one int64 product, reduced once: the
delayed reduction of FFLAS-FFPACK. Otherwise a large product whose B has two
or more columns is split into three limbs and multiplied in float64 BLAS, in
chunks of k short enough that every partial sum is an integer of magnitude at
most 2^53; a vector, a one-column B or a product below ``_F64_FLOOR``
multiply-adds is split into 16-bit limbs and multiplied in int64. The float64
sums are exact in any order, so results do not depend on the BLAS build, its
blocking or its thread count.

Elimination is Gaussian reduction by one rank-1 update per pivot, the pivot
being the first row holding a nonzero entry — the field is exact, so there is
no stability reason to pivot by magnitude, and the reduced form is unique
whichever rows are chosen.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np


def _fits_int64(k: int, q: int) -> bool:
    """Whether k products of residues below q sum exactly in int64."""
    return k * (q - 1) ** 2 < 2**63


# multiply-adds below which a many-column product at large q stays on int64
# limbs: the float64 path's fixed cost, about 20 numpy calls, dominates there
_F64_FLOOR = 16384


def dot_mod(a: np.ndarray, b: np.ndarray, q: int):
    """<a, b> mod q along the last axis: an int for two vectors, one value per
    row when one operand is a stack of rows and the other a vector. Operands
    are int64 arrays of magnitude below q.

    This is :func:`matmul_mod` with the stack first and the vector as B.
    """
    if a.ndim > 1:
        a, b = b, a  # a is the vector
    t = matmul_mod(b, a, q)
    return int(t) if t.ndim == 0 else t


def matmul_mod(A: np.ndarray, B: np.ndarray, q: int) -> np.ndarray:
    """A @ B mod q, exact, for int64 entries of magnitude below q < 2^31.

    Operands are not reduced here. When k·(q−1)² fits in int64 this is one
    int64 product. Otherwise a B of two or more columns in a product of at
    least ``_F64_FLOOR`` multiply-adds goes through float64 BLAS
    (:func:`_matmul_mod_f64`). A vector or one-column B, where converting A to
    float64 costs more than it saves, and any smaller product are split into
    16-bit limbs and k into chunks of 2^15, so the int64 partial sums stay
    below 2^62.
    """
    A = np.asarray(A, dtype=np.int64)
    B = np.asarray(B, dtype=np.int64)
    k = A.shape[-1]
    if _fits_int64(k, q):
        return A @ B % q
    if B.ndim == 2 and B.shape[1] > 1 and A.size * B.shape[1] >= _F64_FLOOR:
        return _matmul_mod_f64(A, B, q)
    hi, lo = B >> 16, B & 0xFFFF  # B = 2^16·hi + lo, exact for negative entries too
    step = 1 << 15
    out = 0
    for j in range(0, k, step):
        a = A[..., j : j + step]
        out = (out + a @ hi[j : j + step] % q * 65536 + a @ lo[j : j + step]) % q
    return out


def _matmul_mod_f64(A: np.ndarray, B: np.ndarray, q: int) -> np.ndarray:
    """A @ B mod q for a k×m int64 B through float64 BLAS, exactly.

    FFLAS-FFPACK's method: B = lo + 2^w·mid + 2^2w·hi with w = ⌈bits(q−1)/3⌉
    (11 at q = 2^31 − 1). lo and mid lie in [0, 2^w), and hi, an arithmetic
    shift, keeps the sign, so no limb exceeds 2^w in magnitude. k is taken in
    chunks of k_c = ⌊2^53 / ((q−1)·2^w)⌋ (2048 at q = 2^31 − 1): every term
    and every partial sum, in any order, is then an integer of magnitude at
    most 2^53, which float64 holds exactly. So the product of a chunk of A
    with the three limbs side by side is exact whatever the BLAS build, its
    blocking, its use of FMA or its thread count, as long as it sums the
    ordinary products (every dgemm does; a Strassen-type one would not). The
    limb products go back to int64 and combine mod q by Horner's rule.
    """
    k, m = B.shape
    w = -(-(q - 1).bit_length() // 3)
    step = 2**53 // ((q - 1) << w)
    mask = (1 << w) - 1
    limbs = np.empty((k, 3, m))
    limbs[:, 0], limbs[:, 1], limbs[:, 2] = B & mask, (B >> w) & mask, B >> 2 * w
    limbs = limbs.reshape(k, 3 * m)
    rows = A.reshape(-1, k).astype(np.float64)
    P = np.empty((len(rows), 3 * m))
    for j in range(0, k, step):
        _gemm_on_this_thread(rows[:, j : j + step], limbs[j : j + step], P)
        exact = P.astype(np.int64)
        lo, mid, hi = exact[:, :m], exact[:, m : 2 * m], exact[:, 2 * m :]
        t = (((hi % q) << w) + mid) % q  # < 2^31·2^w + 2^53: no int64 overflow
        t = ((t << w) + lo) % q
        out = t if j == 0 else (out + t) % q
    return out.reshape(A.shape[:-1] + (m,))


def _gemm_on_this_thread(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """out = a @ b in float64, in tiles of at most 128 columns and fewer than
    2^19 multiply-adds. OpenBLAS gives a dgemm one thread per 2^18
    multiply-adds, so each tile runs on the calling thread: on a busy
    two-core host a threaded 73×210·210×120 product was seen to wait 16 ms
    for its second thread, against 0.1 ms for the product itself."""
    k, n = b.shape
    width = min(n, 128)
    height = max(1, (2**19 - 1) // (k * width))
    for i in range(0, len(a), height):
        for j in range(0, n, width):
            np.matmul(a[i : i + height], b[:, j : j + width],
                      out=out[i : i + height, j : j + width])


def _eliminate(M: np.ndarray, q: int, reduce_above: bool) -> Tuple[np.ndarray, List[int]]:
    """Row echelon form of M mod q with unit pivots, and its pivot columns.

    With ``reduce_above`` each pivot column is also cleared above its pivot,
    which gives the reduced form; without it only the rows below change.
    """
    A = np.asarray(M, dtype=np.int64) % q
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
        top = 0 if reduce_above else r
        col = A[top:, c].copy()
        col[r - top] = 0
        A[top:, c:] = (A[top:, c:] - col[:, None] * A[r, c:]) % q
        pivots.append(c)
        r += 1
    return A, pivots


def rref(M: np.ndarray, q: int) -> Tuple[np.ndarray, int, List[int]]:
    """Reduced row echelon form of M mod q; returns (R, rank, pivot_columns)."""
    R, pivots = _eliminate(M, q, reduce_above=True)
    return R, len(pivots), pivots


def rank(M: np.ndarray, q: int) -> int:
    """Rank of M mod q, read off the echelon form (no back-substitution)."""
    return len(_eliminate(M, q, reduce_above=False)[1])


def nullspace_basis(M: np.ndarray, q: int) -> np.ndarray:
    """Rows span {v : M v = 0}; row count is cols - rank(M)."""
    R, rk, pivots = rref(M, q)
    free = [c for c in range(R.shape[1]) if c not in pivots]
    basis = np.zeros((len(free), R.shape[1]), dtype=np.int64)
    basis[range(len(free)), free] = 1
    basis[:, pivots] = -R[:rk, free].T % q
    return basis


def in_rowspace(M: np.ndarray, v: np.ndarray, q: int):
    """Exact membership of v in the row space of M, or of each row of a stack
    v (one answer per row), from one elimination of M.

    R's rows carry a unit at their pivot and zeros at the other pivots, so v
    is a member exactly when v equals the combination v[pivots]·R.
    """
    R, rk, pivots = rref(M, q)
    v = np.asarray(v, dtype=np.int64) % q
    return ~np.any((v - matmul_mod(v[..., pivots], R[:rk], q)) % q, axis=-1)


def solve_linear(A: np.ndarray, b: np.ndarray, q: int) -> Optional[np.ndarray]:
    """One solution x of A x = b (free variables set to 0), or None."""
    A = np.asarray(A, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if b.shape != (A.shape[0],):
        raise ValueError(f"rhs length {b.shape} does not match {A.shape[0]} rows")
    R, rk, pivots = rref(np.hstack([A, b.reshape(-1, 1)]), q)
    if A.shape[1] in pivots:  # pivot in the rhs column: inconsistent
        return None
    x = np.zeros(A.shape[1], dtype=np.int64)
    x[pivots] = R[:rk, -1]
    return x


def orthogonal_head_map(V: np.ndarray, head_len: int, q: int) -> Optional[np.ndarray]:
    """K with V·(K·s2, s2) ≡ 0 mod q for every tail s2, from one elimination.

    V = [V_head | V_tail] has head_len columns in its head. K exists exactly
    when the pivots of V are its first head_len columns, that is, when V_head
    has full rank head_len and V_tail adds none; then R = [I | V_head⁻¹·V_tail]
    and K = −R[:, head_len:]. Returns None otherwise.
    """
    if not 0 <= head_len <= V.shape[1]:
        raise ValueError(f"head_len {head_len} outside [0, {V.shape[1]}] columns")
    R, rk, pivots = rref(V, q)
    if pivots != list(range(head_len)):
        return None
    return -R[:rk, head_len:] % q
