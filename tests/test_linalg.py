import numpy as np
import pytest

from mvphe import RandomStream, linalg
from mvphe.linalg import (
    dot_mod,
    in_rowspace,
    matmul_mod,
    nullspace_basis,
    orthogonal_head_map,
    rank,
    rref,
    solve_linear,
)

Q = 10007
Q31 = 2**31 - 1


def test_rref_identity_and_zero():
    I = np.eye(3, dtype=np.int64)
    R, rk, piv = rref(I, Q)
    assert np.array_equal(R, I) and rk == 3 and piv == [0, 1, 2]
    Z = np.zeros((2, 4), dtype=np.int64)
    R, rk, piv = rref(Z, Q)
    assert np.array_equal(R, Z) and rk == 0 and piv == []


def test_rref_random_shape_and_rowspace():
    rng = np.random.default_rng(0)
    M = rng.integers(0, Q, size=(10, 20))
    R, rk, piv = rref(M, Q)
    # unit pivots with zeros above and below
    for i, c in enumerate(piv):
        col = R[:, c]
        assert col[i] == 1 and np.count_nonzero(col) == 1
    # mutual row membership: equal row spaces
    for row in R[:rk]:
        assert in_rowspace(M, row, Q)
    for row in M:
        assert in_rowspace(R[:rk], row, Q)


def test_rref_idempotent():
    rng = np.random.default_rng(1)
    M = rng.integers(0, Q, size=(6, 9))
    R, rk, _ = rref(M, Q)
    R2, rk2, _ = rref(R, Q)
    assert np.array_equal(R2, R) and rk2 == rk


def test_nullspace_identity_empty():
    assert nullspace_basis(np.eye(4, dtype=np.int64), Q).shape == (0, 4)


def test_nullspace_all_ones_row_q7():
    N = nullspace_basis(np.ones((1, 3), dtype=np.int64), 7)
    assert N.shape[0] == 2
    for v in N:
        assert int(v.sum()) % 7 == 0
    assert rank(N, 7) == 2


def test_nullspace_random_properties():
    rng = np.random.default_rng(2)
    for rows, cols in ((4, 9), (8, 8), (12, 7)):
        M = rng.integers(0, Q, size=(rows, cols))
        N = nullspace_basis(M, Q)
        assert N.shape[0] == cols - rank(M, Q)
        for v in N:
            assert not np.any(matmul_mod(M, v, Q))
        # row-space basis stacked with null space spans everything
        R, rk, _ = rref(M, Q)
        assert rank(np.vstack([R[:rk], N]), Q) == cols


def test_rank_nullity():
    rng = np.random.default_rng(3)
    for _ in range(20):
        rows = int(rng.integers(1, 12))
        cols = int(rng.integers(1, 12))
        M = rng.integers(0, Q, size=(rows, cols))
        assert rank(M, Q) + nullspace_basis(M, Q).shape[0] == cols


def test_solve_linear_roundtrip_and_inconsistent():
    rng = np.random.default_rng(4)
    A = rng.integers(0, Q, size=(6, 4))
    x = rng.integers(0, Q, size=4).astype(np.int64)
    b = matmul_mod(A, x, Q)
    got = solve_linear(A, b, Q)
    assert got is not None and np.array_equal(matmul_mod(A, got, Q), b)
    # an inconsistent system: two contradictory copies of one equation
    A2 = np.array([[1, 2], [1, 2]])
    assert solve_linear(A2, np.array([1, 3]), Q) is None


def _extend(K, s2, q):
    """The secret s = (K·s2, s2) that a head map K gives for the tail s2."""
    return np.concatenate([matmul_mod(K, s2, q), s2])


def test_solve_head_decoupled_tail():
    # V = [H | 0]: the tail never meets V, so every head is zero
    rng = np.random.default_rng(5)
    head = rng.integers(0, Q, size=(5, 5)).astype(np.int64)
    V = np.hstack([head, np.zeros((5, 4), dtype=np.int64)])
    K = orthogonal_head_map(V, 5, Q)
    assert K is not None and K.shape == (5, 4) and not np.any(K)
    s2 = rng.integers(0, Q, size=4)
    s = _extend(K, s2, Q)
    assert not np.any(matmul_mod(V, s, Q))
    assert np.array_equal(s[5:], s2)


def test_solve_head_zero_tail():
    for q in (Q, Q31):
        rng = np.random.default_rng([q, 6])
        V = rng.integers(0, q, size=(4, 9))
        K = orthogonal_head_map(V, 4, q)
        assert K is not None and K.shape == (4, 5)
        assert not np.any(_extend(K, np.zeros(5, dtype=np.int64), q))
        for _ in range(20):
            s2 = rng.integers(0, q, size=5)
            assert not np.any(matmul_mod(V, _extend(K, s2, q), q))


@pytest.mark.parametrize("q", [Q, Q31])
def test_solve_head_refuses_heads_without_unique_solution(q):
    rng = np.random.default_rng([q, 7])
    V = rng.integers(0, q, size=(4, 9))
    assert orthogonal_head_map(V, 4, q) is not None
    singular = V.copy()
    singular[:, 3] = 2 * singular[:, 1] % q  # dependent head columns
    assert orthogonal_head_map(singular, 4, q) is None
    assert orthogonal_head_map(V, 3, q) is None  # a tail column carries a pivot
    assert orthogonal_head_map(V, 6, q) is None  # a head wider than V's rank


def test_solve_head_dimension_check():
    V = np.zeros((2, 5), dtype=np.int64)
    for head_len in (-1, 6):
        with pytest.raises(ValueError):
            orthogonal_head_map(V, head_len, Q)


def test_solve_head_never_fails_on_keygen_subspace(mult_key):
    # conditions 1-2 guarantee the head block is invertible
    V = mult_key.evaluated_basis()
    K = orthogonal_head_map(V, mult_key.head_len, Q)
    assert K is not None
    stream = RandomStream(77)
    for _ in range(500):
        s2 = stream.ternary(mult_key.tail_len) % Q
        s = _extend(K, s2, Q)
        assert not np.any(matmul_mod(V, s, Q))
        assert np.array_equal(s[mult_key.head_len :], s2)


def test_matmul_mod_blocked_matches_direct():
    # force the blocked path with a large q and long inner dimension
    big_q = 2147483647
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
@pytest.mark.parametrize("k", [1, 2, 3, 2048, 2049, 2**15 + 3])
def test_matmul_mod_exact_against_python_ints(q, k):
    # at q = 2^31 - 1, k = 2 is the longest single product (k·(q-1)^2 < 2^63)
    # and k = 3 the shortest limb-split one. A B of two or more columns then
    # goes through float64 limbs from k = 2048 on (k = 3 stays below the size
    # floor, on int64 limbs), one chunk for k <= 2048: 2049 and 2^15 + 3 take
    # two and seventeen. A vector or one-column B stays on int64 limbs, whose
    # chunks of 2^15 make 2^15 + 3 two.
    rng = np.random.default_rng([q, k])
    edge = np.array([-(q - 1), -1, 0, 1, q - 1])
    A = rng.integers(-(q - 1), q, size=(2, 4, k))  # a leading batch dimension
    A[0, 0] = q - 1
    A[0, 1] = -(q - 1)
    A[0, 2] = q - 2  # odd: a float64 sum past 2^53 would drop its low bit
    A[1, 0] = rng.choice(edge, size=k)
    A[1, 1] = rng.integers(-(q // 2), q // 2 + 1, size=k)  # balanced residues
    B = np.stack([
        np.full(k, q - 1),
        np.full(k, -(q - 1)),
        rng.integers(-(q - 1), q, size=k),
        rng.choice(edge, size=k),
        rng.integers(0, q, size=k),
        np.full(k, -1),  # every float64 limb but the top one at its largest
    ], axis=1)
    expect = (A.astype(object) @ B.astype(object)) % q
    got = matmul_mod(A, B, q)
    assert got.dtype == np.int64 and got.shape == (2, 4, 6)
    assert np.array_equal(got, expect.astype(np.int64))
    assert np.array_equal(matmul_mod(A[1, 2], B, q), expect[1, 2].astype(np.int64))  # 1-D A
    for j in range(B.shape[1]):  # a 1-D and a one-column right operand
        assert np.array_equal(matmul_mod(A, B[:, j], q), expect[..., j].astype(np.int64))
        assert np.array_equal(matmul_mod(A, B[:, j : j + 1], q),
                              expect[..., j : j + 1].astype(np.int64))


def test_matmul_mod_size_floor_picks_the_path(monkeypatch):
    # at q = 2^31 - 1 a B of two or more columns goes through float64 exactly
    # when the product makes at least _F64_FLOOR multiply-adds; both paths
    # are exact on either side of the floor
    taken = []
    real = linalg._matmul_mod_f64
    monkeypatch.setattr(linalg, "_matmul_mod_f64",
                        lambda A, B, q: taken.append(A.shape) or real(A, B, q))
    floor = linalg._F64_FLOOR
    rng = np.random.default_rng(17)
    shapes = [(2, 35, 2), (15, 15, 8), (15, 64, 17), (16, 64, 16), (210, 69, 4)]
    for rows, k, cols in shapes:
        A = rng.integers(-(Q31 - 1), Q31, size=(rows, k))
        B = rng.integers(-(Q31 - 1), Q31, size=(k, cols))
        A[0], B[:, 0] = Q31 - 1, -(Q31 - 1)
        expect = (A.astype(object) @ B.astype(object)) % Q31
        assert np.array_equal(matmul_mod(A, B, Q31), expect.astype(np.int64))
    assert 15 * 64 * 17 < floor <= 16 * 64 * 16
    assert taken == [(r, k) for r, k, c in shapes if r * k * c >= floor]


@pytest.mark.parametrize("q, n", [(Q31, 2), (Q31, 3), (Q, 15)])
def test_dot_mod_at_the_int64_bound(q, n):
    # every entry q - 1: at q = 2^31 - 1, n = 2 is the longest sum that fits
    # one int64 product (2·(q-1)^2 < 2^63) and n = 3 goes through 16-bit limbs
    rng = np.random.default_rng([q, n])
    B = np.vstack([np.full(n, q - 1), np.full(n, -(q - 1)),
                   rng.integers(-(q - 1), q, size=(3, n))])
    for a in (np.full(n, q - 1), np.full(n, -(q - 1))):
        expect = [sum(int(x) * int(y) for x, y in zip(a, row)) % q for row in B]
        assert dot_mod(a, B, q).tolist() == expect  # a stack in either order
        assert dot_mod(B, a, q).tolist() == expect
        for row, e in zip(B, expect):
            for got in (dot_mod(a, row, q), dot_mod(row, a, q)):
                assert got == e and isinstance(got, int)


def test_matmul_mod_long_extreme_sums():
    # every term at its largest magnitude over several chunks; (q-1)^2 = 1
    # mod q, so the exact result is +-k
    k = 2**17 + 1
    for sign in (1, -1):
        A = np.full((1, k), sign * (Q31 - 1))
        B = np.full(k, Q31 - 1)
        assert matmul_mod(A, B, Q31)[0] == sign * k % Q31


def _rref_rowwise(M, q):
    """Row-by-row elimination, first nonzero row as pivot: the reference for rref."""
    A = np.asarray(M, dtype=np.int64) % q
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
        R, rk, piv = rref(data, q)
        R_ref, rk_ref, piv_ref = _rref_rowwise(data, q)
        assert np.array_equal(R, R_ref)
        assert rk == rk_ref and piv == piv_ref
        assert rank(data, q) == rk_ref  # the echelon-only elimination


@pytest.mark.parametrize("q", [Q, Q31])
def test_rref_reduces_noncanonical_entries(q):
    # entries below 0 or at/above q give the R of their canonical residues
    rng = np.random.default_rng([q, 9])
    M = rng.integers(0, q, size=(7, 11))
    M[:, 3] = 0
    shift = rng.integers(-3, 4, size=M.shape) * q  # negative and >= q copies
    shift[0, 0] = -q
    shift[1, 1] = q
    assert (M + shift).min() < 0 and (M + shift).max() >= q
    R, rk, piv = rref(M, q)
    R2, rk2, piv2 = rref(M + shift, q)
    assert np.array_equal(R2, R) and rk2 == rk and piv2 == piv
    assert np.array_equal(R, _rref_rowwise(M, q)[0])


def _in_rowspace_two_ranks(M, v, q):
    """The former definition: v is a member when stacking it keeps the rank."""
    return rank(np.vstack([M, np.asarray(v) % q]), q) == rank(M, q)


@pytest.mark.parametrize("q", [Q, Q31])
def test_in_rowspace_matches_two_rank_definition(q):
    rng = np.random.default_rng([q, 10])
    for rows, cols in ((3, 8), (8, 8), (12, 5), (6, 15)):
        M = matmul_mod(rng.integers(0, q, size=(rows, 4)), rng.integers(0, q, size=(4, cols)), q)
        members = matmul_mod(rng.integers(0, q, size=(5, rows)), M, q)
        others = rng.integers(0, q, size=(5, cols))
        others[0] = members[0]
        others[0, -1] = (others[0, -1] + 1) % q  # one entry off a member
        for v, want in [(v, True) for v in members] + [(v, None) for v in others]:
            got = in_rowspace(M, v, q)
            assert got == _in_rowspace_two_ranks(M, v, q)
            assert want is None or got == want
        stack = np.vstack([members, others])  # one answer per row
        assert list(in_rowspace(M, stack, q)) == [in_rowspace(M, v, q) for v in stack]
        assert not in_rowspace(M, others[0], q)
        assert in_rowspace(M, np.zeros(cols, dtype=np.int64), q)
        assert in_rowspace(M, members[1] - q, q)  # noncanonical entries
    zero = np.zeros((3, 4), dtype=np.int64)
    assert in_rowspace(zero, np.zeros(4, dtype=np.int64), q)
    assert not in_rowspace(zero, np.eye(4, dtype=np.int64)[2], q)


@pytest.mark.parametrize("q", [Q, Q31])
def test_dot_mod_reduces_the_last_axis(q):
    rng = np.random.default_rng(21)
    a = rng.integers(0, q, size=40)
    B = rng.integers(0, q, size=(7, 40))
    B[0] = q - 1  # the largest products still fit int64 before reduction
    expect = [sum(int(x) * int(y) for x, y in zip(a, row)) % q for row in B]
    assert dot_mod(a, B, q).tolist() == expect
    assert [dot_mod(a, row, q) for row in B] == expect
    assert isinstance(dot_mod(a, B[0], q), int)
