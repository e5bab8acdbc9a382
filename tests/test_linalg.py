import numpy as np
import pytest

from mvphe import (
    FieldContext,
    MatrixFq,
    RandomStream,
    in_rowspace,
    matmul_mod,
    nullspace_basis,
    rank,
    rref,
    solve_head_for_orthogonality,
    solve_linear,
)

Q = 10007
Q31 = 2**31 - 1
CTX = FieldContext(Q)


def test_rref_identity_and_zero():
    I = MatrixFq.identity(3, CTX)
    R, rk, piv = rref(I)
    assert R == I and rk == 3 and piv == [0, 1, 2]
    Z = MatrixFq.zeros(2, 4, CTX)
    R, rk, piv = rref(Z)
    assert R == Z and rk == 0 and piv == []


def test_rref_random_shape_and_rowspace():
    rng = np.random.default_rng(0)
    M = MatrixFq(rng.integers(0, Q, size=(10, 20)), CTX)
    R, rk, piv = rref(M)
    # unit pivots with zeros above and below
    for i, c in enumerate(piv):
        col = R.data[:, c]
        assert col[i] == 1 and np.count_nonzero(col) == 1
    # mutual row membership: equal row spaces
    for row in R.data[:rk]:
        assert in_rowspace(M, row)
    for row in M.data:
        assert in_rowspace(MatrixFq(R.data[:rk], CTX), row)


def test_rref_idempotent():
    rng = np.random.default_rng(1)
    M = MatrixFq(rng.integers(0, Q, size=(6, 9)), CTX)
    R, rk, _ = rref(M)
    R2, rk2, _ = rref(R)
    assert R2 == R and rk2 == rk


def test_nullspace_identity_empty():
    assert nullspace_basis(MatrixFq.identity(4, CTX)).rows == 0


def test_nullspace_all_ones_row_q7():
    ctx7 = FieldContext(7)
    M = MatrixFq(np.ones((1, 3), dtype=np.int64), ctx7)
    N = nullspace_basis(M)
    assert N.rows == 2
    for v in N.data:
        assert int(v.sum()) % 7 == 0
    assert rank(N) == 2


def test_nullspace_random_properties():
    rng = np.random.default_rng(2)
    for rows, cols in ((4, 9), (8, 8), (12, 7)):
        M = MatrixFq(rng.integers(0, Q, size=(rows, cols)), CTX)
        N = nullspace_basis(M)
        assert N.rows == cols - rank(M)
        for v in N.data:
            assert np.all(M.matvec(v) == 0)
        # row-space basis stacked with null space spans everything
        R, rk, _ = rref(M)
        stacked = MatrixFq(np.vstack([R.data[:rk], N.data]), CTX) if N.rows else R
        assert rank(stacked) == cols if N.rows else rk == cols


def test_rank_nullity():
    rng = np.random.default_rng(3)
    for _ in range(20):
        rows = int(rng.integers(1, 12))
        cols = int(rng.integers(1, 12))
        M = MatrixFq(rng.integers(0, Q, size=(rows, cols)), CTX)
        assert rank(M) + nullspace_basis(M).rows == cols


def test_solve_linear_roundtrip_and_inconsistent():
    rng = np.random.default_rng(4)
    A = MatrixFq(rng.integers(0, Q, size=(6, 4)), CTX)
    x = rng.integers(0, Q, size=4).astype(np.int64)
    b = A.matvec(x)
    got = solve_linear(A, b)
    assert got is not None and np.all(A.matvec(got) == b)
    # an inconsistent system: two contradictory copies of one equation
    A2 = MatrixFq(np.array([[1, 2], [1, 2]]), CTX)
    assert solve_linear(A2, np.array([1, 3])) is None


def test_solve_head_decoupled_tail():
    rng = np.random.default_rng(5)
    head = rng.integers(0, Q, size=(3, 5)).astype(np.int64)
    V = MatrixFq(np.hstack([head, np.zeros((3, 4), dtype=np.int64)]), CTX)
    s2 = rng.integers(0, Q, size=4)
    s = solve_head_for_orthogonality(V, s2, head_len=5)
    assert s is not None
    assert np.all(V.matvec(s) == 0)
    assert np.array_equal(s[5:], s2 % Q)


def test_solve_head_zero_tail():
    rng = np.random.default_rng(6)
    V = MatrixFq(rng.integers(0, Q, size=(4, 9)), CTX)
    s = solve_head_for_orthogonality(V, np.zeros(3, dtype=np.int64), head_len=6)
    if s is not None:
        assert np.all(V.matvec(s) == 0)
        assert np.all(s[6:] == 0)


def test_solve_head_dimension_check():
    V = MatrixFq.zeros(2, 5, CTX)
    with pytest.raises(ValueError):
        solve_head_for_orthogonality(V, np.zeros(2, dtype=np.int64), head_len=4)


def test_solve_head_never_fails_on_keygen_subspace(mult_key):
    # conditions 1-2 guarantee the head block is invertible
    V = mult_key.evaluated_basis()
    stream = RandomStream(77)
    head = mult_key.head_len
    for _ in range(500):
        s2 = stream.ternary(mult_key.tail_len) % Q
        s = solve_head_for_orthogonality(V, s2, head_len=head)
        assert s is not None
        assert np.all(V.matvec(s) == 0)
        assert np.array_equal(s[head:], s2)


def test_matmul_mod_blocked_matches_direct():
    # force the blocked path with a large q and long inner dimension
    big_q = 2147483647
    ctx = FieldContext(big_q)
    rng = np.random.default_rng(7)
    A = rng.integers(0, big_q, size=(3, 500)).astype(np.int64)
    B = rng.integers(0, big_q, size=(500, 2)).astype(np.int64)
    got = matmul_mod(A, B, big_q)
    expect = np.array(
        [[sum(int(a) * int(b) for a, b in zip(A[i], B[:, j])) % big_q
          for j in range(2)] for i in range(3)],
        dtype=np.int64,
    )
    assert np.array_equal(got, expect)


@pytest.mark.parametrize("q", [3, Q, Q31])
@pytest.mark.parametrize("k", [1, 2, 3, 2**15 + 3])
def test_matmul_mod_exact_against_python_ints(q, k):
    # at q = 2^31 - 1, k = 2 is the longest single product (k·(q-1)^2 < 2^63),
    # k = 3 the shortest limb-split one, and 2^15 + 3 spans two chunks
    rng = np.random.default_rng([q, k])
    edge = np.array([-(q - 1), -1, 0, 1, q - 1])
    A = rng.integers(-(q - 1), q, size=(2, 4, k))  # a leading batch dimension
    A[0, 0] = q - 1
    A[0, 1] = -(q - 1)
    A[1, 0] = rng.choice(edge, size=k)
    A[1, 1] = rng.integers(-(q // 2), q // 2 + 1, size=k)  # balanced residues
    B = np.stack([
        np.full(k, q - 1),
        np.full(k, -(q - 1)),
        rng.integers(-(q - 1), q, size=k),
        rng.choice(edge, size=k),
        rng.integers(0, q, size=k),
    ], axis=1)
    expect = (A.astype(object) @ B.astype(object)) % q
    got = matmul_mod(A, B, q)
    assert got.dtype == np.int64 and got.shape == (2, 4, 5)
    assert np.array_equal(got, expect.astype(np.int64))
    for j in range(B.shape[1]):  # a 1-D right operand
        assert np.array_equal(matmul_mod(A, B[:, j], q), expect[..., j].astype(np.int64))


def test_matmul_mod_long_extreme_sums():
    # every term at its largest magnitude over several chunks; (q-1)^2 = 1
    # mod q, so the exact result is +-k
    k = 2**17 + 1
    for sign in (1, -1):
        A = np.full((1, k), sign * (Q31 - 1))
        B = np.full(k, Q31 - 1)
        assert matmul_mod(A, B, Q31)[0] == sign * k % Q31


def _rref_rowwise(M):
    """Row-by-row elimination, first nonzero row as pivot: the reference for rref."""
    q = M.ctx.q
    A = M.data.copy()
    rows, cols = A.shape
    pivots = []
    r = 0
    for c in range(cols):
        sel = None
        for i in range(r, rows):
            if A[i, c]:
                sel = i
                break
        if sel is None:
            continue
        if sel != r:
            A[[r, sel]] = A[[sel, r]]
        A[r] = A[r] * pow(int(A[r, c]), -1, q) % q
        nz = np.nonzero(A[:, c])[0]
        for i in nz:
            if i != r:
                A[i] = (A[i] - A[i, c] * A[r]) % q
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return A, len(pivots), pivots


@pytest.mark.parametrize("q", [Q, Q31])
def test_rref_matches_rowwise_reference(q):
    # the reduced echelon form is unique, so R, rank and pivots match exactly
    ctx = FieldContext(q)
    rng = np.random.default_rng([q, 8])

    def rand(rows, cols):
        return rng.integers(0, q, size=(rows, cols))

    deficient = matmul_mod(rand(9, 3), rand(3, 12), q)  # rank 3
    zero_cols = rand(7, 10)
    zero_cols[:, [0, 4, 9]] = 0
    late_pivot = rand(6, 8)
    late_pivot[:4, :3] = 0  # pivots found below the current row: swaps
    stacked = np.vstack([rand(4, 6)] * 3)  # repeated rows
    for data in (rand(12, 5), rand(5, 14), rand(73, 210), deficient, zero_cols,
                 late_pivot, stacked, np.zeros((3, 4), dtype=np.int64)):
        M = MatrixFq(data, ctx)
        R, rk, piv = rref(M)
        R_ref, rk_ref, piv_ref = _rref_rowwise(M)
        assert np.array_equal(R.data, R_ref)
        assert rk == rk_ref and piv == piv_ref
