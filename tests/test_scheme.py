import hashlib
import math

import numpy as np
import pytest

from mvphe import (
    Ciphertext,
    DepthError,
    KeyGenError,
    MatrixFq,
    MonomialIndex,
    Polynomial,
    IdealSpec,
    RandomStream,
    SchemeParams,
    UnsupportedOperationError,
    decrypt,
    dot_mod,
    encrypt,
    encrypt_traced,
    eval_key,
    evaluation_matrix,
    hom_add,
    hom_mult,
    keygen,
    matmul_mod,
    noise_budget,
    noise_measure,
    poly_mul,
    rref,
)
from mvphe.presets import TOY_Q, toy_additive_params, toy_ideal, toy_mult_params
from mvphe.scheme import MODE_ADDITIVE, MODE_MULT

Q = TOY_Q


def _unit_ideal():
    from mvphe import FieldContext

    idx = MonomialIndex(2, 2)
    return IdealSpec([Polynomial.from_terms(idx, FieldContext(Q), [(1, (0, 0))])])


# ---------------------------------------------------------------------------
# parameters and keygen

def test_params_validation_errors():
    with pytest.raises(ValueError):
        toy_additive_params(epsilon="0")
    with pytest.raises(ValueError):
        SchemeParams(lam=32, q=Q, ell=2, r=2, n=5, alpha="0.0008", epsilon="0.01",
                     mode="bogus", ideal=toy_ideal())
    with pytest.raises(ValueError):
        SchemeParams(lam=32, q=Q, ell=2, r=2, n=0, alpha="0.0008", epsilon="0.01",
                     mode=MODE_ADDITIVE, ideal=toy_ideal())
    with pytest.raises(ValueError):  # n above the evaluation dimension
        SchemeParams(lam=32, q=Q, ell=2, r=2, n=7, alpha="0.0008", epsilon="0.01",
                     mode=MODE_ADDITIVE, ideal=toy_ideal())
    with pytest.raises(ValueError):
        SchemeParams(lam=32, q=Q, ell=2, r=2, n=5, alpha="0.0008", epsilon="0.01",
                     mode=MODE_ADDITIVE, ideal=toy_ideal(), headroom=0.5)


def test_keygen_rejects_unit_ideal():
    params = SchemeParams(lam=32, q=Q, ell=2, r=2, n=5, alpha="0.0008",
                          epsilon="0.01", mode=MODE_ADDITIVE, ideal=_unit_ideal())
    with pytest.raises(KeyGenError):
        keygen(params, RandomStream(0))


def test_keygen_infeasible_alpha():
    # alpha*q so large that even sigma_s = 1 cannot fit under q/2
    params = toy_additive_params(alpha="0.2")  # eta*alpha*q ~ 80000 > q/2
    with pytest.raises(KeyGenError):
        keygen(params, RandomStream(0))


def test_keygen_mult_mode_needs_n_above_d2r():
    # dim(I_<=4) = 11 for the toy ideal, so n = 11 cannot host a tail
    params = SchemeParams(lam=32, q=Q, ell=2, r=2, n=11, alpha="0.0008",
                          epsilon="0.01", mode=MODE_MULT, ideal=toy_ideal())
    with pytest.raises(KeyGenError):
        keygen(params, RandomStream(0))


def _q31_mult_params():
    """The toy mult preset lifted to q = 2^31 - 1."""
    q = 2**31 - 1
    return SchemeParams(lam=32, q=q, ell=2, r=2, n=15, alpha="0.0008", epsilon="0.01",
                        mode=MODE_MULT, ideal=toy_ideal(q), headroom=2)


@pytest.mark.parametrize(
    "make_params, digest",
    [
        (toy_mult_params, "3aa6d5735513b1f44775f26b66a13cde9a3d74685aec3eae10caab647aaec33d"),
        (_q31_mult_params, "f7a4466a15c75067d04efb8cb7485336013e0388d35de6c0868a1ce1221b6f78"),
    ],
)
def test_keygen_golden_key_bytes(tmp_path, make_params, digest):
    # keygen draws only integers, so its key file is platform-stable; at
    # q = 2^31 - 1 its long products go through the limb-split matmul_mod
    from mvphe.files import save_key

    path = tmp_path / "key.json"
    save_key(path, keygen(make_params(), RandomStream(42)))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_additive_key_invariants(toy_key):
    sk = toy_key
    q = sk.params.q
    assert sk.d_r == 2 and sk.n == 5
    # condition 1: rank(G) = n
    assert rref(MatrixFq(sk.G, sk.ctx))[1] == sk.n
    # condition 2: degree-r slice separates at the first d_r points
    E = matmul_mod(sk.B_r.data, sk.G[: sk.d_r].T, q)
    assert rref(MatrixFq(E, sk.ctx))[1] == sk.d_r
    # orthogonality of s against the whole evaluated basis
    assert np.all(sk.evaluated_basis().matvec(sk.s) == 0)
    # sigma and p bounds
    assert 0 < sk.sigma_s * sk.p <= q // 2
    assert math.gcd(sk.p, q) == 1
    assert sk.sigma_s == sk.ctx.balanced(int(sk.s.sum() % q))
    # the tail is a nonzero {-1, 0, 1} vector
    tail = sk.ctx.balanced(sk.s2)
    assert set(np.unique(tail)) <= {-1, 0, 1} and np.any(tail)


def test_additive_shortcut_tail_preferred(toy_params):
    # when the solve admits it, the tail is (0, ..., 0, +-1)
    sk = keygen(toy_params, RandomStream(42))
    tail = sk.ctx.balanced(sk.s2)
    assert list(np.abs(tail)) == [0, 0, 1]


def test_mult_key_orthogonal_to_b2r_rowspace(mult_key):
    sk = mult_key
    stream = RandomStream(21)
    V = sk.evaluated_basis()
    for _ in range(100):
        u = stream.uniform_fq(Q, size=sk.d_2r)
        f = matmul_mod(u.reshape(1, -1), sk.B_2r.data, Q)[0]
        Gf = matmul_mod(sk.G, f, Q)
        assert dot_mod(sk.s, Gf, Q) == 0


def test_keygen_deterministic(toy_params):
    a = keygen(toy_params, RandomStream(9))
    b = keygen(toy_params, RandomStream(9))
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.s, b.s)
    assert (a.p, a.sigma_s) == (b.p, b.sigma_s)


# ---------------------------------------------------------------------------
# encrypt / decrypt

def test_encrypt_formula_and_trace(toy_key):
    sk = toy_key
    ct, f, e = encrypt_traced(sk, 1, RandomStream(31))
    expect = (sk.p + matmul_mod(sk.G, f, Q) + e) % Q
    assert np.array_equal(ct.c, expect)
    assert ct.adds == 0 and ct.mults == 0
    assert np.all(e[: sk.n - sk.noise_support_len()] == 0)


def test_encrypt_rejects_non_bits(toy_key):
    with pytest.raises(ValueError):
        encrypt(toy_key, 2, RandomStream(0))


def test_noiseless_inner_product_is_message_multiple(toy_key_noiseless):
    sk = toy_key_noiseless
    stream = RandomStream(32)
    for m in (0, 1):
        for i in range(50):
            ct = encrypt(sk, m, stream.derive(10 * m + i))
            assert dot_mod(sk.s, ct.c, Q) == m * sk.sigma_s * sk.p % Q


def test_zero_ciphertext_decrypts_to_zero(toy_key):
    ct = Ciphertext(np.zeros(toy_key.n, dtype=np.int64), Q)
    assert decrypt(toy_key, ct) == 0
    assert noise_measure(toy_key, ct, 0) == 0


def test_exact_encoding_of_one_decrypts_to_one(toy_key):
    sk = toy_key
    # c = p * 1 has <s, c> = sigma_s * p exactly
    ct = Ciphertext(np.full(sk.n, sk.p, dtype=np.int64), Q)
    assert decrypt(sk, ct) == 1


def test_noiseless_roundtrip_1000_trials(toy_key_noiseless, mult_key_noiseless):
    stream = RandomStream(33)
    for k, sk in enumerate((toy_key_noiseless, mult_key_noiseless)):
        for m in (0, 1):
            for i in range(250):
                ct = encrypt(sk, m, stream.derive(1000 * k + 500 * m + i))
                assert decrypt(sk, ct) == m


def test_fresh_error_rate_small(toy_key):
    sk = toy_key
    stream = RandomStream(34)
    errs = 0
    for i in range(2000):
        m = i & 1
        errs += decrypt(sk, encrypt(sk, m, stream.derive(i))) != m
    assert errs / 2000 <= 0.01


def test_fresh_noise_scale(toy_key):
    sk = toy_key
    stream = RandomStream(35)
    noises = []
    for i in range(3000):
        m = i & 1
        noises.append(noise_measure(sk, encrypt(sk, m, stream.derive(i)), m))
    measured = float(np.std(np.asarray(noises, dtype=np.float64)))
    predicted = noise_budget(sk).predicted_std_fresh
    assert abs(measured - predicted) <= 0.15 * predicted


# ---------------------------------------------------------------------------
# homomorphic addition

def test_hom_add_identity_ciphertext(toy_key):
    sk = toy_key
    stream = RandomStream(36)
    for m in (0, 1):
        ct = encrypt(sk, m, stream.derive(m))
        zero_ct = Ciphertext(np.zeros(sk.n, dtype=np.int64), Q)  # f = 0, e = 0
        assert decrypt(sk, hom_add(ct, zero_ct)) == decrypt(sk, ct)


def test_hom_add_noiseless_one_plus_one(toy_key_noiseless):
    sk = toy_key_noiseless
    stream = RandomStream(37)
    c1 = encrypt(sk, 1, stream.derive(0))
    c2 = encrypt(sk, 1, stream.derive(1))
    assert decrypt(sk, hom_add(c1, c2)) == 0


def test_hom_add_counters_and_inner_product_linearity(toy_key):
    sk = toy_key
    stream = RandomStream(38)
    c1 = encrypt(sk, 0, stream.derive(0))
    c2 = encrypt(sk, 1, stream.derive(1))
    ca = hom_add(c1, c2)
    assert ca.adds == 1 and ca.mults == 0
    lhs = dot_mod(sk.s, ca.c, Q)
    rhs = (dot_mod(sk.s, c1.c, Q) + dot_mod(sk.s, c2.c, Q)) % Q
    assert lhs == rhs
    # measured noise of the sum equals the sum of fresh noises
    n1 = noise_measure(sk, c1, 0)
    n2 = noise_measure(sk, c2, 1)
    assert noise_measure(sk, ca, 1) == sk.ctx.balanced(n1 + n2)


def test_hom_add_dimension_mismatch(toy_key, mult_key):
    stream = RandomStream(39)
    c1 = encrypt(toy_key, 0, stream.derive(0))
    c2 = encrypt(mult_key, 0, stream.derive(1))
    with pytest.raises(ValueError):
        hom_add(c1, c2)


def test_hom_add_error_rate_within_doubled_budget(toy_key):
    sk = toy_key
    stream = RandomStream(40)
    errs = 0
    trials = 2000
    for i in range(trials):
        m1, m2 = (i >> 1) & 1, i & 1
        ca = hom_add(encrypt(sk, m1, stream.derive(2 * i)),
                     encrypt(sk, m2, stream.derive(2 * i + 1)))
        errs += decrypt(sk, ca) != (m1 + m2) % 2
    assert errs / trials <= 2 * 0.01


# ---------------------------------------------------------------------------
# homomorphic multiplication

def test_hom_mult_noiseless_all_bit_pairs(mult_key_noiseless):
    sk = mult_key_noiseless
    ek = eval_key(sk)
    stream = RandomStream(41)
    for m1 in (0, 1):
        for m2 in (0, 1):
            c1 = encrypt(sk, m1, stream.derive(10 * m1 + m2))
            c2 = encrypt(sk, m2, stream.derive(20 * m1 + m2))
            assert decrypt(sk, hom_mult(c1, c2, ek)) == m1 * m2


def test_hom_mult_requires_mult_mode(toy_key):
    with pytest.raises(UnsupportedOperationError):
        eval_key(toy_key)


def test_hom_mult_depth_limit(mult_key_noiseless):
    sk = mult_key_noiseless
    ek = eval_key(sk)
    stream = RandomStream(42)
    c1 = encrypt(sk, 1, stream.derive(0))
    c2 = encrypt(sk, 1, stream.derive(1))
    prod = hom_mult(c1, c2, ek)
    assert prod.mults == 1
    with pytest.raises(DepthError):
        hom_mult(prod, c1, ek)


def test_hom_mult_expanded_identity_with_cross_terms(mult_key):
    """The exact field identity satisfied by scaled componentwise products:
    the advertised noise law plus the tail cross terms <s2 . tail(G f_i), e_j>.
    With zero noise the cross terms vanish and only m1*m2*sigma*p survives."""
    sk = mult_key
    ek = eval_key(sk)
    stream = RandomStream(43)
    tail = sk.head_len
    s2 = sk.s2
    for i in range(100):
        m1, m2 = (i >> 1) & 1, i & 1
        c1, f1, e1 = encrypt_traced(sk, m1, stream.derive(2 * i))
        c2, f2, e2 = encrypt_traced(sk, m2, stream.derive(2 * i + 1))
        cm = hom_mult(c1, c2, ek)
        lhs = dot_mod(sk.s, cm.c, Q)
        eb1, eb2 = e1[tail:], e2[tail:]
        noise = (m1 * eb2 + m2 * eb1 + ek.p_inverse * (eb1 * eb2 % Q)) % Q
        cross = (
            dot_mod(s2 * (matmul_mod(sk.G, f1, Q)[tail:]) % Q, eb2, Q)
            + dot_mod(s2 * (matmul_mod(sk.G, f2, Q)[tail:]) % Q, eb1, Q)
        ) % Q
        rhs = (m1 * m2 * sk.sigma_s * sk.p
               + dot_mod(s2, noise, Q) + ek.p_inverse * cross) % Q
        assert lhs == rhs


def test_hom_mult_advertised_congruence_noiseless(mult_key_noiseless):
    sk = mult_key_noiseless
    ek = eval_key(sk)
    stream = RandomStream(44)
    for i in range(50):
        m1, m2 = (i >> 1) & 1, i & 1
        c1 = encrypt(sk, m1, stream.derive(2 * i))
        c2 = encrypt(sk, m2, stream.derive(2 * i + 1))
        cm = hom_mult(c1, c2, ek)
        assert dot_mod(sk.s, cm.c, Q) == m1 * m2 * sk.sigma_s * sk.p % Q


def test_pointwise_product_law(mult_key):
    """(G f1) . (G f2) = G_2r coeffs(f1 * f2) at the key's points."""
    sk = mult_key
    ctx = sk.ctx
    r_idx = MonomialIndex(2, 2)
    G_r = evaluation_matrix(r_idx, ctx, sk.points)
    stream = RandomStream(45)
    for _ in range(200):
        f1 = Polynomial(r_idx, ctx, stream.uniform_fq(Q, size=r_idx.size))
        f2 = Polynomial(r_idx, ctx, stream.uniform_fq(Q, size=r_idx.size))
        lhs = matmul_mod(G_r, f1.coeffs, Q) * matmul_mod(G_r, f2.coeffs, Q) % Q
        rhs = matmul_mod(sk.G, poly_mul(f1, f2).coeffs, Q)
        assert np.array_equal(lhs, rhs)


def test_cross_terms_vanish_only_on_ideal_points(mult_key):
    """The product (G f) . e pairs tail evaluations of f with the noise; it is
    annihilated by s exactly when those evaluations vanish, which uniformly
    sampled points do not provide. Documented scheme-level limitation."""
    sk = mult_key
    stream = RandomStream(46)
    tail = sk.head_len
    nonzero = 0
    for i in range(50):
        _, f1, _ = encrypt_traced(sk, 0, stream.derive(i))
        tail_vals = matmul_mod(sk.G, f1, Q)[tail:]
        nonzero += bool(np.any(sk.s2 * tail_vals % Q))
    assert nonzero == 50


# ---------------------------------------------------------------------------
# noise accounting

def test_noise_measure_noiseless_zero(toy_key_noiseless):
    sk = toy_key_noiseless
    ct = encrypt(sk, 1, RandomStream(47))
    assert noise_measure(sk, ct, 1) == 0


def test_noise_measure_decision_radius(toy_key):
    sk = toy_key
    stream = RandomStream(48)
    radius = sk.sigma_s * sk.p // 2
    inside = 0
    for i in range(2000):
        m = i & 1
        inside += abs(noise_measure(sk, encrypt(sk, m, stream.derive(i)), m)) < radius
    assert inside / 2000 >= 1 - 0.01


def test_noise_budget_fields(toy_key, toy_key_noiseless):
    b = noise_budget(toy_key)
    assert 1.0 / b.k**2 <= toy_key.params.epsilon_f
    assert b.predicted_std_add == pytest.approx(math.sqrt(2) * b.predicted_std_fresh)
    alpha_q = toy_key.params.alpha_f * Q
    assert b.predicted_std_mult == pytest.approx(
        math.sqrt(2) * alpha_q + alpha_q**2 / math.sqrt(toy_key.p)
    )
    b0 = noise_budget(toy_key_noiseless)
    assert b0.k == math.inf
    assert b0.predicted_std_fresh == 0 and b0.predicted_std_add == 0
    assert b0.predicted_std_mult == 0


def test_literal_mult_noise_flag():
    params = toy_mult_params()
    params.literal_mult_noise = True
    sk = keygen(params, RandomStream(49))
    assert sk.noise_support_len() == sk.n - sk.d_r  # wider than the s2 tail
