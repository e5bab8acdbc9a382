import math

import numpy as np
import pytest

from mvphe.field import FieldContext
from mvphe.linalg import matmul_mod
from mvphe.mvpoly import (
    IdealSpec,
    MonomialIndex,
    Polynomial,
    evaluation_matrix,
    ideal_truncated_basis,
    monomial_count,
    poly_mul,
)

Q = 10007
CTX = FieldContext(Q)


def _brute_rank_mod(rows, q):
    """Independent row-reduction oracle: plain int Gauss elimination."""
    M = [list(int(x) % q for x in row) for row in rows]
    rank = 0
    cols = len(M[0])
    for c in range(cols):
        piv = None
        for i in range(rank, len(M)):
            if M[i][c] % q:
                piv = i
                break
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        inv = pow(M[rank][c], -1, q)
        M[rank] = [x * inv % q for x in M[rank]]
        for i in range(len(M)):
            if i != rank and M[i][c]:
                f = M[i][c]
                M[i] = [(x - f * y) % q for x, y in zip(M[i], M[rank])]
        rank += 1
    return rank


def test_monomial_count_examples():
    assert monomial_count(2, 2) == 6
    assert monomial_count(1, 1) == 2
    assert monomial_count(3, 2) == 10
    with pytest.raises(ValueError):
        monomial_count(0, 2)
    with pytest.raises(ValueError):
        monomial_count(2, 0)


def test_monomial_order_matches_listed_sequence():
    # 1, x1, x2, x1^2, x1*x2, x2^2
    idx = MonomialIndex(2, 2)
    assert idx.exponents == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


@pytest.mark.parametrize("ell,r", [(1, 3), (2, 2), (3, 4), (4, 2)])
def test_index_bijectivity(ell, r):
    idx = MonomialIndex(ell, r)
    assert idx.size == monomial_count(ell, r)
    for pos in range(idx.size):
        e = idx.exponents[pos]
        assert idx.position(e) == pos
    with pytest.raises(ValueError):
        idx.position((r + 1,) + (0,) * (ell - 1))


@pytest.mark.parametrize("ell", [1, 2, 3, 4])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_degree_r_index_is_a_prefix_of_degree_2r(ell, r):
    # SecretKey.enc_basis zero-extends B_r to the degree-2r columns by this
    low = MonomialIndex(ell, r)
    assert MonomialIndex(ell, 2 * r).exponents[: math.comb(ell + r, r)] == low.exponents


def _row(idx, ctx, z):
    """The evaluation-matrix row of the single point z."""
    return evaluation_matrix(idx, ctx, np.asarray(z).reshape(1, -1))[0]


def _eval(f, z):
    """f(z) as the inner product of f's coefficients with the row of z."""
    return int(matmul_mod(_row(f.index, f.ctx, z), f.coeffs, f.ctx.q))


def test_eval_monomials_examples():
    idx = MonomialIndex(2, 2)
    G = evaluation_matrix(idx, CTX, [(0, 0), (1, 1), (123, 4567)])
    z1, z2 = 123, 4567
    assert G.tolist() == [
        [1, 0, 0, 0, 0, 0],
        [1, 1, 1, 1, 1, 1],
        [1, z1, z2, z1 * z1 % Q, z1 * z2 % Q, z2 * z2 % Q],
    ]
    with pytest.raises(ValueError, match=r"shape \(n, 2\)"):
        evaluation_matrix(idx, CTX, [(1, 2, 3)])


def test_evaluation_matrix_rows_match_single_point():
    idx = MonomialIndex(3, 3)
    rng = np.random.default_rng(0)
    pts = rng.integers(0, Q, size=(7, 3)).astype(np.int64)
    G = evaluation_matrix(idx, CTX, pts)
    for i in range(7):
        assert np.array_equal(G[i], _row(idx, CTX, pts[i]))


@pytest.mark.parametrize("q", [Q, 2**31 - 1])
@pytest.mark.parametrize("ell,r", [(1, 3), (2, 4), (4, 6)])
def test_evaluation_matrix_against_python_int_powers(ell, r, q):
    # the per-variable gathers against products of Python ints, which cannot
    # overflow; entries near q exercise the largest int64 products
    idx, rng = MonomialIndex(ell, r), np.random.default_rng(ell * r)
    pts = rng.integers(0, q, size=(9, ell))
    pts[0] = q - 1
    G = evaluation_matrix(idx, FieldContext(q), pts)
    expect = [[math.prod(pow(int(z), e, q) for z, e in zip(row, exps)) % q
               for exps in idx.exponents] for row in pts]
    assert G.tolist() == expect


def test_poly_eval_examples():
    ctx7 = FieldContext(7)
    idx = MonomialIndex(2, 2)
    f = Polynomial.from_terms(idx, ctx7, [(1, (1, 0)), (1, (0, 1))])  # x1 + x2
    assert _eval(f, (1, 2)) == 3
    z = Polynomial(idx, ctx7, np.zeros(idx.size, dtype=np.int64))
    assert _eval(z, (5, 6)) == 0


def test_poly_eval_against_term_by_term_oracle():
    rng = np.random.default_rng(1)
    idx = MonomialIndex(2, 3)
    for _ in range(1000):
        coeffs = rng.integers(0, Q, size=idx.size).astype(np.int64)
        f = Polynomial(idx, CTX, coeffs)
        z = rng.integers(0, Q, size=2)
        expect = 0
        for c, e in f.terms():
            term = c
            for v, ev in enumerate(e):
                term = term * pow(int(z[v]), ev, Q) % Q
            expect = (expect + term) % Q
        assert _eval(f, z) == expect


def test_poly_eval_linearity():
    rng = np.random.default_rng(2)
    idx = MonomialIndex(2, 2)
    for _ in range(100):
        f = Polynomial(idx, CTX, rng.integers(0, Q, size=idx.size))
        g = Polynomial(idx, CTX, rng.integers(0, Q, size=idx.size))
        a, b = int(rng.integers(0, Q)), int(rng.integers(0, Q))
        comb = Polynomial(idx, CTX, (a * f.coeffs + b * g.coeffs) % Q)
        z = rng.integers(0, Q, size=2)
        assert comb is not None
        lhs = _eval(comb, z)
        rhs = (a * _eval(f, z) + b * _eval(g, z)) % Q
        assert lhs == rhs


def test_poly_mul_examples():
    idx = MonomialIndex(2, 2)
    x1 = Polynomial.from_terms(idx, CTX, [(1, (1, 0))])
    x2 = Polynomial.from_terms(idx, CTX, [(1, (0, 1))])
    prod = poly_mul(x1, x2)
    assert prod.index.r == 4
    assert prod.terms() == [(1, (1, 1))]

    one = Polynomial.from_terms(idx, CTX, [(1, (0, 0))])
    rng = np.random.default_rng(3)
    f = Polynomial(idx, CTX, rng.integers(0, Q, size=idx.size))
    # grlex lists degree <= 2 first, so f sits in the prefix of the degree-4 index
    prod = poly_mul(f, one).coeffs
    assert np.array_equal(prod[: idx.size], f.coeffs) and not np.any(prod[idx.size :])


def test_poly_mul_pointwise_identity():
    rng = np.random.default_rng(4)
    idx = MonomialIndex(2, 2)
    for _ in range(100):
        f = Polynomial(idx, CTX, rng.integers(0, Q, size=idx.size))
        g = Polynomial(idx, CTX, rng.integers(0, Q, size=idx.size))
        fg = poly_mul(f, g)
        z = rng.integers(0, Q, size=2)
        assert _eval(fg, z) == _eval(f, z) * _eval(g, z) % Q


def test_poly_mul_degree_bound():
    rng = np.random.default_rng(5)
    idx = MonomialIndex(2, 3)
    for _ in range(50):
        f = Polynomial(idx, CTX, rng.integers(0, Q, size=idx.size))
        g = Polynomial(idx, CTX, rng.integers(0, Q, size=idx.size))
        fg = poly_mul(f, g)
        assert fg.degree() <= f.degree() + g.degree()


def _circle_poly():
    idx = MonomialIndex(2, 2)
    return Polynomial.from_terms(
        idx, CTX, [(1, (2, 0)), (1, (0, 2)), (Q - 1, (0, 0))]
    )


def test_truncated_basis_single_generator_r2():
    ideal = IdealSpec([_circle_poly()])
    B = ideal_truncated_basis(ideal, 2)
    assert B.rows == 1  # only scalar multiples fit in degree <= 2


def test_truncated_basis_single_generator_r4_matches_oracle():
    g = _circle_poly()
    ideal = IdealSpec([g])
    B = ideal_truncated_basis(ideal, 4)
    # oracle: the 6 cofactor multiples {m * g : deg m <= 2}, brute row reduction
    out_idx = MonomialIndex(2, 4)
    rows = []
    for m_exp in MonomialIndex(2, 2).exponents:
        row = [0] * out_idx.size
        for c, e in g.terms():
            ee = tuple(a + b for a, b in zip(e, m_exp))
            row[out_idx.position(ee)] = (row[out_idx.position(ee)] + c) % Q
        rows.append(row)
    assert B.rows == _brute_rank_mod(rows, Q)


def test_truncated_basis_unit_ideal_spans_everything():
    idx = MonomialIndex(2, 2)
    one = Polynomial.from_terms(idx, CTX, [(1, (0, 0))])
    B = ideal_truncated_basis(IdealSpec([one]), 2)
    assert B.rows == 6


def test_truncated_basis_contains_generators():
    from mvphe.linalg import in_rowspace

    idx = MonomialIndex(2, 2)
    g2 = Polynomial.from_terms(idx, CTX, [(1, (1, 1)), (Q - 3, (0, 0))])
    ideal = IdealSpec([_circle_poly(), g2])
    B = ideal_truncated_basis(ideal, 2)
    for g in ideal.generators:
        assert in_rowspace(B.data, g.coeffs, Q)


def test_truncated_basis_rejects_high_degree_generator():
    idx4 = MonomialIndex(2, 4)
    quartic = Polynomial.from_terms(idx4, CTX, [(1, (4, 0)), (1, (0, 0))])
    with pytest.raises(ValueError):
        ideal_truncated_basis(IdealSpec([quartic]), 2)


def test_ideal_spec_validation():
    idx = MonomialIndex(2, 2)
    with pytest.raises(ValueError):
        IdealSpec([])
    with pytest.raises(ValueError):
        IdealSpec([Polynomial(idx, CTX, np.zeros(idx.size, dtype=np.int64))])
    other = Polynomial.from_terms(MonomialIndex(3, 2), CTX, [(1, (1, 0, 0))])
    with pytest.raises(ValueError):
        IdealSpec([_circle_poly(), other])
