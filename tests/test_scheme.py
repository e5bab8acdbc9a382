import dataclasses
import hashlib
import math

import numpy as np
import pytest

from mvphe import (
    Ciphertext,
    FieldContext,
    DepthError,
    KeyGenError,
    MonomialIndex,
    Polynomial,
    IdealSpec,
    RandomStream,
    SchemeParams,
    UnsupportedOperationError,
    decrypt,
    dot_mod,
    encrypt,
    encrypt_batch,
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
)
from mvphe.field import round_nearest
from mvphe.linalg import orthogonal_head_map, rank
from mvphe.mvpoly import ideal_truncated_basis
from mvphe.presets import TOY_Q, toy_additive_params, toy_ideal, toy_mult_params
from mvphe import scheme
from mvphe.scheme import MODE_ADDITIVE, MODE_MULT, noise_bench

Q = TOY_Q


def _unit_ideal():
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
    # each refused naming its field, before save_params could write a file
    # that load_params refuses
    bad = [("lam", lam, "lambda must be an integer >= 1") for lam in ("x", 2.5, True, 0, -1, None)]
    bad += [(name, value, f"{name} must be an int") for name, value in (
        ("n", 5.0), ("n", True), ("ell", 2.0), ("r", 2.0), ("q", 10007.0), ("headroom", True))]
    bad += [("q", 10000, "q must be prime, got 10000")]  # not the ideal's q, so tested here
    for name, value, message in bad:
        with pytest.raises(ValueError, match=message):
            SchemeParams(**{**dict(lam=32, q=Q, ell=2, r=2, n=5, alpha="0.0008", epsilon="0.01",
                                   mode=MODE_ADDITIVE, ideal=toy_ideal()), name: value})


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


def _scaled_q31_shaped_params():
    """Two dense random degree-3 generators in ell = 4 over q = 2^31 - 1, r = 3,
    mult mode, n = 73: d_2r = 69 and N_enc = 210."""
    q = 2**31 - 1
    rng, ctx, idx = np.random.default_rng(31), FieldContext(q), MonomialIndex(4, 3)
    gens = []
    while len(gens) < 2:
        g = Polynomial(idx, ctx, rng.integers(0, q, size=idx.size))
        if g.degree() == 3:
            gens.append(g)
    return SchemeParams(lam=32, q=q, ell=4, r=3, n=73, alpha="0.0000000037252903",
                        epsilon="0.01", mode=MODE_MULT, ideal=IdealSpec(gens), headroom=2)


def _small_prime_mult_params():
    """The toy ideal at q = 17 with n = 14 of N_enc = 15, where both
    conditions reject: of the 120 point sets that seeds 1-100 draw, 16 fail
    condition 2 and 3 have a singular G, one of them failing both."""
    return SchemeParams(lam=32, q=17, ell=2, r=2, n=14, alpha="0", epsilon="0.01",
                        mode=MODE_MULT, ideal=toy_ideal(17), headroom=2)


@pytest.mark.parametrize(
    "make_params, seeds, digest",
    [
        (_scaled_q31_shaped_params, range(1, 4),
         "45a2a66f798a633eba9e6989e4813c54f48580cc2ee6341aa4f68eafea250a95"),
        (_small_prime_mult_params, range(1, 101),
         "507d752a0be470743dc9fb38d71684c7b4cd9cd8c022900a3f329c7af90e42b3"),
    ],
)
def test_keygen_golden_keys_across_seeds(make_params, seeds, digest):
    # sha256 over points, G, s, p and sigma_s of every key; a seed whose keygen
    # raises adds only the exception's type, since its message counts failures
    params, h = make_params(), hashlib.sha256()
    for seed in seeds:
        try:
            sk = keygen(params, RandomStream(seed))
        except KeyGenError as exc:
            h.update(type(exc).__name__.encode())
            continue
        for a in (sk.points, sk.G, sk.s, np.array([sk.p, sk.sigma_s])):
            h.update(np.ascontiguousarray(a, dtype="<i8").tobytes())
    assert h.hexdigest() == digest


def test_encrypt_golden_ciphertext_bytes(tmp_path):
    # at alpha = 0 every noise draw is exactly 0, so the file is platform-stable
    from mvphe.files import load_ciphertext, params_hash, save_ciphertext

    params = toy_additive_params(alpha="0")
    path, again = tmp_path / "ct.json", tmp_path / "ct2.json"
    save_ciphertext(path, encrypt(keygen(params, RandomStream(42)), 1, RandomStream(43)),
                    params_hash(params))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "3114ba9ee834f2e3d1875f707eeaca370aa3cb57b08e09f8b3cda8b7ebdfcd26")
    save_ciphertext(again, *load_ciphertext(path))
    assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize(
    "make_params, digest",
    [
        (toy_mult_params, "d06d81420f838216f6479c99a6dc94861ebb4599bfb7835270727f6924878fae"),
        (_q31_mult_params, "623d2320a95741203e294280dc1b516ac5a4bceef053a4a7c8d95d97ec77703e"),
    ],
)
def test_encrypt_golden_ciphertexts_with_live_noise(make_params, digest):
    # pins the draw order of u and of the noise at alpha = 0.0008; the noise
    # goes through libm (Box-Muller), so the digest holds per platform
    sk = keygen(make_params(), RandomStream(42))
    h = hashlib.sha256()
    for seed in (43, 44, 45):
        for m in (0, 1):
            h.update(encrypt(sk, m, RandomStream(seed)).c.astype("<i8").tobytes())
    assert h.hexdigest() == digest


@pytest.fixture(scope="module")
def q31_key():
    return keygen(_q31_mult_params(), RandomStream(42))


def test_encrypt_batch_golden_bytes_at_q31(q31_key):
    # G·Fᵀ with eight columns: the float64 limb products of matmul_mod; live
    # noise goes through libm (Box-Muller), so this and the next golden hold
    # per platform
    C = encrypt_batch(q31_key, [0, 1, 1, 0, 1, 0, 0, 1], RandomStream(43))
    assert C.shape == (8, 15)
    assert hashlib.sha256(C.astype("<i8").tobytes()).hexdigest() == (
        "92983dee8af3bcb781a484edc2a82ad1bf7ab81d5fa785f80b7dd43f09d5ed6e")


def test_noise_bench_golden_rows_at_q31(q31_key):
    # 300 trials: one block of 256 and one of 44, each one batch of 2k rows
    assert noise_bench(q31_key, 300, RandomStream(44)) == {
        "fresh": {"predicted_std": 1717986.9176, "measured_std": 1614055.445537028,
                  "error_rate": 0.0, "max_abs_noise": 4447477, "p999_abs_noise": 4447477,
                  "margin": 100566009.5, "error_rate_upper95": 0.009936081944457711},
        "add": {"predicted_std": 2429600.398849469, "measured_std": 2474231.83623186,
                "error_rate": 0.0, "max_abs_noise": 7323644, "p999_abs_noise": 7323644,
                "margin": 97689842.5, "error_rate_upper95": 0.009936081944457711},
        "mult": {"predicted_std": 2951481478645.1484, "measured_std": 623293368.4387084,
                 "error_rate": 0.48, "max_abs_noise": 1073130167,
                 "p999_abs_noise": 1073130167, "margin": -968116680.5,
                 "error_rate_upper95": 0.5291016658963698},
    }


def test_eval_key_golden_bytes(tmp_path):
    from mvphe.files import load_evalkey, params_hash, save_evalkey

    params = toy_mult_params()
    path, again = tmp_path / "ek.json", tmp_path / "ek2.json"
    save_evalkey(path, eval_key(keygen(params, RandomStream(42))), params_hash(params))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "031025b0fd62a9e567675820b962fd8d56f8a3c1bb355ebd2bc986e944840541")
    save_evalkey(again, *load_evalkey(path))
    assert again.read_bytes() == path.read_bytes()


def _enc_basis_by_position(sk):
    """B_r's rows placed column by column at their exponents' positions in
    G's monomial index."""
    dst = MonomialIndex(sk.params.ell, sk.params.enc_degree())
    wide = np.zeros((sk.d_r, dst.size), dtype=np.int64)
    wide[:, [dst.position(e) for e in sk.B_r.index.exponents]] = sk.B_r.data
    return wide


@pytest.mark.parametrize("key", ["toy_key", "mult_key", "q31_key"])
def test_enc_basis_is_b_r_at_its_monomials_positions(key, request):
    sk = request.getfixturevalue(key)
    assert np.array_equal(sk.enc_basis, _enc_basis_by_position(sk))


@pytest.mark.parametrize("key", ["toy_key", "mult_key", "q31_key"])
def test_loaded_key_derives_what_keygen_built(key, request, tmp_path):
    from mvphe.files import load_key, save_key

    sk = request.getfixturevalue(key)
    save_key(tmp_path / "key.json", sk)
    back = load_key(tmp_path / "key.json")
    for name in ("head_len", "tail_len", "d_r", "d_2r", "noise_spec"):
        assert getattr(back, name) == getattr(sk, name), name
    for name in ("G", "enc_basis", "s", "_s_limbs"):  # _s_limbs may be None on both
        assert np.array_equal(getattr(back, name), getattr(sk, name)), name
    for name in ("B_r", "B_2r"):
        data = [getattr(getattr(k, name), "data", None) for k in (back, sk)]
        assert np.array_equal(*data), name


def test_additive_key_invariants(toy_key):
    sk = toy_key
    q = sk.params.q
    assert sk.d_r == 2 and sk.n == 5
    # condition 1: rank(G) = n
    assert rank(sk.G, q) == sk.n
    # condition 2: degree-r slice separates at the first d_r points
    E = matmul_mod(sk.B_r.data, sk.G[: sk.d_r].T, q)
    assert rank(E, q) == sk.d_r
    # orthogonality of s against the whole evaluated basis
    assert not np.any(matmul_mod(sk.evaluated_basis(), sk.s, q))
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


def _point_ideal_params():
    """Additive params whose ideal <x1 - 5, x2 - 7> is every poly vanishing
    at (5, 7): d_r = 5 and n = 6, so the tail has one coordinate."""
    idx, ctx = MonomialIndex(2, 2), FieldContext(Q)
    gens = [Polynomial.from_terms(idx, ctx, [(1, (1, 0)), (-5, (0, 0))]),
            Polynomial.from_terms(idx, ctx, [(1, (0, 1)), (-7, (0, 0))])]
    return SchemeParams(lam=32, q=Q, ell=2, r=2, n=6, alpha="0.0008", epsilon="0.01",
                        mode=MODE_ADDITIVE, ideal=IdealSpec(gens))


def test_keygen_condition2_rejects_a_point_of_the_ideal_variety(monkeypatch):
    # every ideal member vanishes at (5, 7), so a point set holding it among
    # the first head_len points evaluates the ideal slice to a singular head
    params = _point_ideal_params()
    assert keygen(params, RandomStream(3)).head_len == 5
    real_sampler = scheme._sample_distinct_points
    calls = []

    def sampler_with_root(stream, q, n, ell):
        points = real_sampler(stream, q, n, ell)
        points[len(calls) % 5] = (5, 7)
        calls.append(1)
        return points

    monkeypatch.setattr(scheme, "_sample_distinct_points", sampler_with_root)
    with pytest.raises(KeyGenError) as exc:
        keygen(params, RandomStream(3))
    assert exc.value.reason == "condition2"
    assert "'condition1': 0" in str(exc.value) and "'tail': 0" in str(exc.value)


@pytest.mark.parametrize("q", [11, 13, 17])
@pytest.mark.parametrize("mode", [MODE_ADDITIVE, MODE_MULT])
def test_condition1_from_the_head_map_agrees_with_rank_of_g(q, mode):
    # wherever V = B·Gᵀ passes condition 2, the verdict read off its head map
    # K must equal rank(G) == n; square and nearly square G at small q are
    # singular often enough that both verdicts occur
    B = ideal_truncated_basis(toy_ideal(q), 2 if mode == MODE_ADDITIVE else 4)
    stream, verdicts = RandomStream(q), {True: 0, False: 0}
    for trial in range(1000):
        n = B.index.size - trial % 2
        points = scheme._sample_distinct_points(stream.derive(trial), q, n, 2)
        G = evaluation_matrix(B.index, FieldContext(q), points)
        K = orthogonal_head_map(matmul_mod(B.data, G.T, q), B.rows, q)
        if K is None:
            continue
        verdict = scheme._full_row_rank(G, K, q)
        assert verdict == (rank(G, q) == n)
        verdicts[verdict] += 1
    assert min(verdicts.values()) > 0, verdicts


def test_keygen_condition1_rejects_points_on_a_line(toy_params, monkeypatch):
    # five points on the line x2 = 3·x1 + 1, a curve outside the ideal: the
    # degree-<=2 monomials restricted to a line span only 3 dimensions, so
    # G (5×6) is singular, while the two head points separate the ideal
    # slice, so V's head stays invertible
    real_sampler = scheme._sample_distinct_points

    def sampler_on_a_line(stream, q, n, ell):
        points = real_sampler(stream, q, n, ell)
        points[:, 1] = (3 * points[:, 0] + 1) % q
        return points

    monkeypatch.setattr(scheme, "_sample_distinct_points", sampler_on_a_line)
    with pytest.raises(KeyGenError) as exc:
        keygen(toy_params, RandomStream(3))
    assert exc.value.reason == "condition1"
    assert "'condition2': 0" in str(exc.value) and "'tail': 0" in str(exc.value)


def test_keygen_checks_orthogonality_without_assert(toy_params, monkeypatch):
    # a corrupted head map must raise even under python -O, which strips asserts
    real_map = scheme.orthogonal_head_map

    def corrupted(V, head_len, q):
        K = real_map(V, head_len, q)
        return None if K is None else (K + 1) % q

    monkeypatch.setattr(scheme, "orthogonal_head_map", corrupted)
    with pytest.raises(KeyGenError) as exc:
        keygen(toy_params, RandomStream(42))
    assert exc.value.reason == "orthogonality"


def test_truncated_bases_built_once_per_ideal(tmp_path, monkeypatch):
    from mvphe import mvpoly
    from mvphe.files import load_params, save_params

    built = []
    real_build = mvpoly._build_truncated_basis

    def counting_build(ideal, r):
        built.append(r)
        return real_build(ideal, r)

    monkeypatch.setattr(mvpoly, "_build_truncated_basis", counting_build)
    params = toy_mult_params()
    a, b = keygen(params, RandomStream(1)), keygen(params, RandomStream(2))
    assert sorted(built) == [2, 4]
    assert a.B_r is b.B_r and a.B_2r is b.B_2r
    with pytest.raises(ValueError):
        a.B_2r.data[0, 0] = 1  # shared, so read-only

    # a params object loaded again from the same file has its own ideal
    path = tmp_path / "params.json"
    save_params(path, params)
    built.clear()
    first, second = load_params(path)[0], load_params(path)[0]
    ka, kb = keygen(first, RandomStream(1)), keygen(second, RandomStream(1))
    assert sorted(built) == [2, 2, 4, 4]
    assert ka.B_2r is not kb.B_2r and np.array_equal(ka.B_2r.data, kb.B_2r.data)
    assert np.array_equal(ka.s, a.s)


# ---------------------------------------------------------------------------
# encrypt / decrypt

def test_encrypt_formula_and_trace(toy_key):
    sk = toy_key
    ct, f, e = encrypt_traced(sk, 1, RandomStream(31))
    expect = (sk.p + matmul_mod(sk.G, f, Q) + e) % Q
    assert np.array_equal(ct.c, expect)
    assert ct.adds == 0 and ct.mults == 0
    assert np.all(e[: sk.head_len] == 0)


def test_encrypt_rejects_non_bits(toy_key):
    with pytest.raises(ValueError):
        encrypt(toy_key, 2, RandomStream(0))


@pytest.fixture(scope="module", params=[toy_mult_params, _q31_mult_params],
                ids=["q10007", "q2^31-1"])
def batch_key(request):
    return keygen(request.param(), RandomStream(7))


def test_encrypt_is_the_one_row_batch(batch_key):
    sk = batch_key
    for seed in range(6):
        for m in (0, 1):
            row = encrypt_batch(sk, [m], RandomStream(seed))[0]
            assert np.array_equal(encrypt(sk, m, RandomStream(seed)).c, row)
            ct, f, e = encrypt_traced(sk, m, RandomStream(seed))
            assert np.array_equal(ct.c, row)


def test_every_row_of_a_batch_decrypts_to_its_bit(batch_key):
    sk = batch_key
    q = sk.params.q
    bits = RandomStream(8).integers(0, 2, size=37)
    C = encrypt_batch(sk, bits, RandomStream(9))
    assert C.shape == (37, sk.n) and C.dtype == np.int64
    assert np.all((0 <= C) & (C < q))
    assert [decrypt(sk, Ciphertext(row, q)) for row in C] == bits.tolist()
    assert len({row.tobytes() for row in C}) == 37  # every row has its own randomness


def test_stacked_decrypt_and_noise_measure_match_rows(batch_key):
    sk = batch_key
    q, ek = sk.params.q, eval_key(sk)
    bits = RandomStream(10).integers(0, 2, size=2 * 37)
    C = encrypt_batch(sk, bits, RandomStream(11))
    c1, c2 = Ciphertext(C[:37], q), Ciphertext(C[37:], q)
    m1, m2 = bits[:37], bits[37:]
    for ct, multiple in ((c1, m1), (hom_add(c1, c2), m1 + m2), (hom_mult(c1, c2, ek), m1 * m2)):
        assert ct.n == sk.n
        rows = [Ciphertext(row, q) for row in ct.c]
        assert decrypt(sk, ct).tolist() == [decrypt(sk, r) for r in rows]
        assert noise_measure(sk, ct, multiple).tolist() == [
            noise_measure(sk, r, int(m)) for r, m in zip(rows, multiple)]


def _phase_in_python_ints(sk, c):
    """balanced(<s, c>) of one row, in Python ints."""
    return sk.ctx.balanced(sum(int(a) * int(b) for a, b in zip(sk.s, c)))


def _agree_with_python_ints(sk, C, multiples):
    """noise_measure and decrypt of the stack C, and of each of its rows, equal
    the rule applied to a Python-int <s, c>."""
    q, scale = sk.params.q, sk.sigma_s * sk.p
    phases = [_phase_in_python_ints(sk, row) for row in C]
    noise = [sk.ctx.balanced(ph - int(m) * scale) for ph, m in zip(phases, multiples)]
    bits = [round_nearest(ph, scale) % 2 for ph in phases]
    ct = Ciphertext(C, q)
    assert noise_measure(sk, ct, multiples).tolist() == noise
    assert decrypt(sk, ct).tolist() == bits
    for row, m, want_noise, want_bit in zip(C, multiples, noise, bits):
        got = noise_measure(sk, Ciphertext(row, q), int(m))
        assert got == want_noise and isinstance(got, int)
        assert decrypt(sk, Ciphertext(row, q)) == want_bit


def test_inner_product_agrees_with_python_ints(batch_key):
    sk = batch_key
    q, ek = sk.params.q, eval_key(sk)
    bits = RandomStream(13).integers(0, 2, size=2 * 9)
    C = encrypt_batch(sk, bits, RandomStream(14))
    c1, c2, m1, m2 = Ciphertext(C[:9], q), Ciphertext(C[9:], q), bits[:9], bits[9:]
    for ct, multiple in ((c1, m1), (hom_add(c1, c2), m1 + m2), (hom_mult(c1, c2, ek), m1 * m2)):
        _agree_with_python_ints(sk, ct.c, multiple)
    extremes = np.array([np.full(sk.n, q - 1), np.zeros(sk.n, dtype=np.int64)])
    _agree_with_python_ints(sk, extremes, np.array([0, 1]))


@pytest.mark.parametrize("r, n", [(1, 2), (2, 3)])
def test_inner_product_at_the_int64_bound(r, n):
    # s and c all q - 1 at q = 2^31 - 1: <s, c> is one int64 product at n = 2,
    # where 2·(q-1)^2 < 2^63, and goes through s's 16-bit limbs at n = 3
    q = 2**31 - 1
    x = Polynomial.from_terms(MonomialIndex(1, r), FieldContext(q), [(1, (1,))])
    params = SchemeParams(lam=32, q=q, ell=1, r=r, n=n, alpha="0", epsilon="0.01",
                          mode=MODE_ADDITIVE, ideal=IdealSpec([x]))
    sk = dataclasses.replace(keygen(params, RandomStream(3)), s=np.full(n, q - 1))
    assert (sk._s_limbs is None) == (n == 2)
    C = np.array([np.full(n, q - 1), np.full(n, q - 2), np.arange(1, n + 1)])
    _agree_with_python_ints(sk, C, np.array([0, 1, 0]))


def test_encrypt_batch_rejects_non_bits(toy_key):
    for bad in ([0, 2], [[0, 1]], [0.5], [-1], 1):
        with pytest.raises(ValueError):
            encrypt_batch(toy_key, bad, RandomStream(0))


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


def test_ciphertext_constructor_enforces_its_contract():
    for bad in ([1.7, 2.2], np.array([True, False]), 5, np.array(5), [], [[]],
                np.zeros((2, 2, 2), dtype=np.int64), [2**70]):
        with pytest.raises(ValueError, match="c must be a nonempty 1-d or 2-d integer array"):
            Ciphertext(bad, Q)
    for good, residues in (([-1, Q, 3], [Q - 1, 0, 3]),
                           (np.array([Q + 2, 7], dtype=np.int32), [2, 7]),
                           (np.array([2**64 - 1, 1], dtype=np.uint64), [(2**64 - 1) % Q, 1]),
                           ([[1, -2], [Q, 4]], [[1, Q - 2], [0, 4]])):
        ct = Ciphertext(good, Q)
        assert ct.c.dtype == np.int64 and ct.c.tolist() == residues


def test_hom_ops_compute_fresh_canonical_residues(batch_key):
    sk = batch_key
    q, ek = sk.params.q, eval_key(sk)
    C = encrypt_batch(sk, [0, 1, 1, 0], RandomStream(15))
    for c1, c2 in ((Ciphertext(C[0], q), Ciphertext(C[1], q)),
                   (Ciphertext(C[:2], q), Ciphertext(C[2:], q)),
                   (Ciphertext(C[2], q), Ciphertext(C[2], q))):
        for x, y in ((c1, c2), (c1, c1)):  # hom_add(c, c) too
            before = x.c.copy(), y.c.copy()
            a, b = x.c.astype(object), y.c.astype(object)
            ca, cm = hom_add(x, y), hom_mult(x, y, ek)
            for got, want in ((ca, (a + b) % q), (cm, ek.p_inverse * (a * b) % q)):
                assert got.c.dtype == np.int64 and got.c.tolist() == want.tolist()
                assert not np.shares_memory(got.c, x.c) and not np.shares_memory(got.c, y.c)
            assert np.array_equal(x.c, before[0]) and np.array_equal(y.c, before[1])
            assert (ca.adds, ca.mults, cm.adds, cm.mults) == (1, 0, 0, 1)
    sums = hom_add(hom_add(c1, c2), c1)
    assert (sums.adds, sums.mults) == (2, 0)
    prod = hom_mult(sums, c2, ek)
    assert (prod.adds, prod.mults) == (2, 1)
    assert (hom_add(prod, c1).adds, hom_add(prod, c1).mults) == (3, 1)


def test_hom_add_dimension_mismatch(toy_key, mult_key):
    stream = RandomStream(39)
    c1 = encrypt(toy_key, 0, stream.derive(0))
    c2 = encrypt(mult_key, 0, stream.derive(1))
    with pytest.raises(ValueError):
        hom_add(c1, c2)


def test_decrypt_and_noise_measure_reject_foreign_ciphertext(toy_key, mult_key):
    ct = encrypt(mult_key, 1, RandomStream(40))  # n = 15 against a key with n = 5
    short = Ciphertext(encrypt(toy_key, 1, RandomStream(41)).c[:-1], Q)
    other_q = Ciphertext(np.ones(toy_key.n, dtype=np.int64), 10009)
    for bad in (ct, short, other_q):
        with pytest.raises(ValueError, match=r"does not match the key \(n=5, q=10007\)"):
            decrypt(toy_key, bad)
        with pytest.raises(ValueError, match="does not match the key"):
            noise_measure(toy_key, bad, 1)


def test_decrypt_does_not_retest_q(toy_key, monkeypatch):
    # q is checked once, when the parameters are built; decrypt only reads it
    import mvphe.field

    calls = []
    real = mvphe.field._is_prime
    monkeypatch.setattr(mvphe.field, "_is_prime", lambda n: calls.append(n) or real(n))
    for i in range(100):
        ct = encrypt(toy_key, i & 1, RandomStream(42).derive(i))
        decrypt(toy_key, ct)
        noise_measure(toy_key, ct, i & 1)
    assert calls == []


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


@pytest.mark.parametrize("key", ["toy_key", "q31_key"])
def test_noise_measure_at_the_edges_of_the_balanced_window(key, request):
    # rows whose phase <s, c> is q//2 and q//2 + 1: the balanced view keeps
    # the first and wraps the second, for a row and for a stack alike
    sk = request.getfixturevalue(key)
    q, half = sk.params.q, sk.params.q // 2
    j = next(i for i in range(sk.head_len, sk.n) if sk.s[i])
    rows = np.zeros((2, sk.n), dtype=np.int64)
    rows[:, j] = [x * pow(int(sk.s[j]), -1, q) % q for x in (half, half + 1)]
    assert [noise_measure(sk, Ciphertext(row, q), 0) for row in rows] == [half, -half]
    assert noise_measure(sk, Ciphertext(rows, q), np.zeros(2, dtype=np.int64)).tolist() == [
        half, -half]
    scale = sk.sigma_s * sk.p  # the multiple is folded into the same reduction
    assert noise_measure(sk, Ciphertext(rows, q), np.ones(2, dtype=np.int64)).tolist() == [
        sk.ctx.balanced(x - scale) for x in (half, half + 1)]


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


def test_noise_bench_is_deterministic_per_seed_across_blocks(batch_key):
    trials = scheme._BENCH_BLOCK + 7  # one full block and one partial block
    first = noise_bench(batch_key, trials, RandomStream(12))
    assert noise_bench(batch_key, trials, RandomStream(12)) == first
    assert noise_bench(batch_key, trials, RandomStream(13)) != first
    assert set(first) == {"fresh", "add", "mult"}


def test_noise_bench_tail_statistics(toy_key):
    sk = toy_key
    trials = 600
    rows = noise_bench(sk, trials, RandomStream(14))
    assert set(rows) == {"fresh", "add"}
    for row in rows.values():
        assert 0 <= row["p999_abs_noise"] <= row["max_abs_noise"]
        assert row["margin"] == sk.sigma_s * sk.p / 2 - row["max_abs_noise"]
        assert row["error_rate"] == 0 and row["margin"] > 0
        assert row["error_rate_upper95"] == pytest.approx(1 - 0.05 ** (1 / trials), rel=1e-12)


def test_noise_bench_rows_agree_with_decrypt_and_noise_measure():
    # noise_bench takes one phase <s, c> per row and derives both the noise
    # and the bit from it; rebuild its blocks (256 + 44 trials) and count
    # errors with decrypt and noise with noise_measure, row by row. The
    # product noise wraps mod q, so the mult row has errors to count
    sk = keygen(toy_mult_params(), RandomStream(1))
    trials, stream = 300, RandomStream(21)
    rows = noise_bench(sk, trials, stream)
    errors = {"fresh": 0, "add": 0, "mult": 0}
    max_abs = dict.fromkeys(errors, 0)
    ek = eval_key(sk)
    for b, start in enumerate(range(0, trials, scheme._BENCH_BLOCK)):
        k = min(scheme._BENCH_BLOCK, trials - start)
        sub = stream.derive(b)
        m = sub.integers(0, 2, size=2 * k)
        C = encrypt_batch(sk, m, sub)
        ct1, ct2, m1, m2 = Ciphertext(C[:k], Q), Ciphertext(C[k:], Q), m[:k], m[k:]
        for op, ct, multiple, bit in (("fresh", ct1, m1, m1),
                                      ("add", hom_add(ct1, ct2), m1 + m2, (m1 + m2) % 2),
                                      ("mult", hom_mult(ct1, ct2, ek), m1 * m2, m1 * m2)):
            errors[op] += int(np.count_nonzero(decrypt(sk, ct) != bit))
            noise = np.abs(noise_measure(sk, ct, multiple)).max()
            max_abs[op] = max(max_abs[op], int(noise))
    for op, row in rows.items():
        assert row["error_rate"] * trials == errors[op], op
        assert row["max_abs_noise"] == max_abs[op], op
    assert errors["mult"] > 0


def test_noise_tally_matches_whole_array_statistics():
    # the block-merged tally against statistics of all values at once
    rng = np.random.default_rng(15)
    for trials, block in ((1, 1), (999, 256), (2500, 256), (3001, 1000)):
        noise = rng.integers(-5000, 5000, size=trials)
        tally = scheme._NoiseTally(trials)
        for start in range(0, trials, block):
            tally.add(noise[start : start + block], 0)
        ranked = np.sort(np.abs(noise))
        assert tally.n == trials
        assert math.sqrt(tally.m2 / tally.n) == pytest.approx(np.std(noise), rel=1e-12)
        assert tally.top.max() == ranked[-1]
        assert tally.top.min() == ranked[math.ceil(0.999 * trials) - 1]  # nearest rank
        assert len(tally.top) <= trials // 1000 + 1


def test_error_rate_upper95_is_the_clopper_pearson_bound():
    from scipy.stats import beta

    for errors, trials in ((0, 1), (0, 1000), (1, 2), (3, 1000), (45, 100), (450, 1000),
                           (999, 1000), (10, 100000)):
        expect = beta.ppf(0.95, errors + 1, trials - errors)
        assert scheme.error_rate_upper95(errors, trials) == pytest.approx(expect, rel=1e-9)
    assert scheme.error_rate_upper95(7, 7) == 1.0
    # every error count below n, for every n up to 60 and three larger n
    for trials in [*range(1, 61), 100, 300, 1000]:
        errors = np.arange(trials)
        expect = beta.ppf(0.95, errors + 1, trials - errors)
        got = [scheme.error_rate_upper95(int(x), trials) for x in errors]
        assert got == pytest.approx(expect, rel=1e-12), trials
        assert scheme.error_rate_upper95(trials, trials) == 1.0


def test_error_rate_upper95_stops_once_newton_has_converged(monkeypatch):
    # each Newton step takes two log1p(-p): the CDF and its slope. A step
    # that lands on a bracket end must end the search, not restart it by
    # bisection, so no count at 20 trials may need more than 8 steps
    calls = []
    real_log1p = math.log1p

    def counting_log1p(x):
        calls.append(x)
        return real_log1p(x)

    monkeypatch.setattr(math, "log1p", counting_log1p)
    for errors, trials in [*((x, 20) for x in range(1, 20)), (144, 300), (235, 1000)]:
        calls.clear()
        scheme.error_rate_upper95(errors, trials)
        assert len(calls) <= 16, (errors, trials, len(calls))
