import hashlib
import json

import pytest

from mvphe import RandomStream, decrypt, encrypt, hom_add, hom_mult, eval_key, keygen
from mvphe.cli import main
from mvphe.files import (
    load_ciphertext,
    load_evalkey,
    load_key,
    load_params,
    params_hash,
    params_to_dict,
    save_ciphertext,
    save_evalkey,
    save_key,
    save_params,
)
from mvphe.presets import toy_additive_params, toy_mult_params


@pytest.fixture()
def toy_paramfile(tmp_path):
    path = tmp_path / "toy.json"
    save_params(path, toy_additive_params())
    return str(path)


@pytest.fixture()
def mult_paramfile(tmp_path):
    path = tmp_path / "toym.json"
    save_params(path, toy_mult_params())
    return str(path)


def test_keygen_encrypt_decrypt_roundtrip(tmp_path, toy_paramfile, capsys):
    key = str(tmp_path / "key.json")
    ct = str(tmp_path / "ct.json")
    assert main(["keygen", "--params", toy_paramfile, "--seed", "42", "--out", key]) == 0
    assert main(["encrypt", "--key", key, "--bit", "1", "--seed", "7", "--out", ct]) == 0
    capsys.readouterr()
    assert main(["decrypt", "--key", key, "--in", ct]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_keygen_deterministic_bytes(tmp_path, toy_paramfile):
    k1, k2 = str(tmp_path / "k1.json"), str(tmp_path / "k2.json")
    main(["keygen", "--params", toy_paramfile, "--seed", "42", "--out", k1])
    main(["keygen", "--params", toy_paramfile, "--seed", "42", "--out", k2])
    assert open(k1, "rb").read() == open(k2, "rb").read()


def test_encrypt_deterministic_bytes(tmp_path, toy_paramfile):
    key = str(tmp_path / "key.json")
    main(["keygen", "--params", toy_paramfile, "--seed", "42", "--out", key])
    c1, c2 = str(tmp_path / "c1.json"), str(tmp_path / "c2.json")
    main(["encrypt", "--key", key, "--bit", "0", "--seed", "9", "--out", c1])
    main(["encrypt", "--key", key, "--bit", "0", "--seed", "9", "--out", c2])
    assert open(c1, "rb").read() == open(c2, "rb").read()


def test_cross_command_consistency_with_library(tmp_path, toy_paramfile, capsys):
    key = str(tmp_path / "key.json")
    a, b, s = (str(tmp_path / x) for x in ("a.json", "b.json", "sum.json"))
    main(["keygen", "--params", toy_paramfile, "--seed", "42", "--out", key])
    main(["encrypt", "--key", key, "--bit", "1", "--seed", "100", "--out", a])
    main(["encrypt", "--key", key, "--bit", "0", "--seed", "101", "--out", b])
    main(["add", "--in", a, "--in", b, "--out", s])
    capsys.readouterr()
    assert main(["decrypt", "--key", key, "--in", s]) == 0
    cli_bit = int(capsys.readouterr().out.strip())

    params, _ = load_params(toy_paramfile)
    sk = keygen(params, RandomStream(42))
    c1 = encrypt(sk, 1, RandomStream(100))
    c2 = encrypt(sk, 0, RandomStream(101))
    assert decrypt(sk, hom_add(c1, c2)) == cli_bit
    ct_file, _ = load_ciphertext(s)
    assert list(ct_file.c) == list(hom_add(c1, c2).c)


def test_mul_via_files(tmp_path, mult_paramfile, capsys):
    key = str(tmp_path / "keym.json")
    a, b, prod = (str(tmp_path / x) for x in ("ma.json", "mb.json", "mp.json"))
    main(["keygen", "--params", mult_paramfile, "--seed", "5", "--out", key])
    main(["encrypt", "--key", key, "--bit", "1", "--seed", "200", "--out", a])
    main(["encrypt", "--key", key, "--bit", "1", "--seed", "201", "--out", b])
    evk = str(tmp_path / "keym.evk.json")
    assert main(["mul", "--in", a, "--in", b, "--evalkey", evk, "--out", prod]) == 0
    capsys.readouterr()

    params, _ = load_params(mult_paramfile)
    sk = keygen(params, RandomStream(5))
    c1 = encrypt(sk, 1, RandomStream(200))
    c2 = encrypt(sk, 1, RandomStream(201))
    expect = hom_mult(c1, c2, eval_key(sk))
    got, _ = load_ciphertext(prod)
    assert list(got.c) == list(expect.c)
    assert got.mults == 1


def test_mul_depth_exceeded_exit3(tmp_path, mult_paramfile, capsys):
    key = str(tmp_path / "keym.json")
    a, b, prod = (str(tmp_path / x) for x in ("ma.json", "mb.json", "mp.json"))
    main(["keygen", "--params", mult_paramfile, "--seed", "5", "--out", key])
    main(["encrypt", "--key", key, "--bit", "1", "--seed", "1", "--out", a])
    main(["encrypt", "--key", key, "--bit", "1", "--seed", "2", "--out", b])
    evk = str(tmp_path / "keym.evk.json")
    main(["mul", "--in", a, "--in", b, "--evalkey", evk, "--out", prod])
    capsys.readouterr()
    assert main(["mul", "--in", prod, "--in", a, "--evalkey", evk, "--out", prod]) == 3


def test_negative_seed_exits_3_naming_seed(tmp_path, toy_paramfile, capsys):
    key = tmp_path / "key.json"
    assert main(["keygen", "--params", toy_paramfile, "--seed", "-3", "--out", str(key)]) == 3
    assert "seed must be >= 0, got -3" in capsys.readouterr().err
    assert not key.exists()
    assert main(["game", "hsm", "--trials", "100", "--seed", "-3"]) == 3
    assert "seed must be >= 0, got -3" in capsys.readouterr().err


@pytest.mark.parametrize("count", [1, 3])
def test_add_and_mul_take_exactly_two_inputs(tmp_path, toy_paramfile, count, capsys):
    key, ct, out = (tmp_path / x for x in ("key.json", "ct.json", "out.json"))
    main(["keygen", "--params", toy_paramfile, "--seed", "42", "--out", str(key)])
    main(["encrypt", "--key", str(key), "--bit", "1", "--seed", "3", "--out", str(ct)])
    capsys.readouterr()
    ins = ["--in", str(ct)] * count
    assert main(["add", *ins, "--out", str(out)]) == 2
    assert main(["mul", *ins, "--evalkey", str(ct), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count(f"takes exactly two --in files, got {count}") == 2
    assert not out.exists()


def test_check_params_prints_n6(toy_paramfile, capsys):
    assert main(["check-params", "--params", toy_paramfile]) == 0
    out = capsys.readouterr().out.splitlines()
    header = out[0].split("\t")
    row = out[1].split("\t")
    assert row[header.index("N")] == "6"
    assert row[header.index("d_r")] == "2"
    assert row[header.index("d_2r")] == "11"


def test_check_params_json(toy_paramfile, capsys):
    assert main(["check-params", "--params", toy_paramfile, "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["N"] == 6 and obj["d_r"] == 2 and obj["d_2r"] == 11


def test_encrypt_bit2_usage_error(tmp_path, toy_paramfile):
    key = str(tmp_path / "key.json")
    main(["keygen", "--params", toy_paramfile, "--seed", "42", "--out", key])
    with pytest.raises(SystemExit) as exc:
        main(["encrypt", "--key", key, "--bit", "2", "--out", str(tmp_path / "x.json")])
    assert exc.value.code == 2


def test_keygen_unit_ideal_exit4(tmp_path, capsys):
    from mvphe.files import params_to_dict

    params = params_to_dict(toy_additive_params())
    params["ideal"] = [[{"coeff": 1, "exps": [0, 0]}]]  # <1> spans everything
    path = tmp_path / "unit.json"
    path.write_text(json.dumps(params))
    assert main(["keygen", "--params", str(path), "--seed", "1",
                 "--out", str(tmp_path / "k.json")]) == 4


def test_corrupted_key_field_exit3(tmp_path, toy_paramfile, capsys):
    key = str(tmp_path / "key.json")
    main(["keygen", "--params", toy_paramfile, "--seed", "42", "--out", key])
    d = json.loads(open(key).read())
    q = d["params"]["q"]
    # sum-preserving tamper: breaks orthogonality but not the sigma_s check
    d["s"][0] = (d["s"][0] + 1) % q
    d["s"][1] = (d["s"][1] - 1) % q
    open(key, "w").write(json.dumps(d))
    capsys.readouterr()
    assert main(["decrypt", "--key", key, "--in", key]) == 3
    assert "'s'" in capsys.readouterr().err


def test_ciphertext_out_of_range_exit3(tmp_path, toy_paramfile, capsys):
    key = str(tmp_path / "key.json")
    ct = str(tmp_path / "ct.json")
    main(["keygen", "--params", toy_paramfile, "--seed", "42", "--out", key])
    main(["encrypt", "--key", key, "--bit", "0", "--seed", "3", "--out", ct])
    d = json.loads(open(ct).read())
    d["c"][0] = d["q"] + 5
    open(ct, "w").write(json.dumps(d))
    capsys.readouterr()
    assert main(["decrypt", "--key", key, "--in", ct]) == 3
    assert "'c'" in capsys.readouterr().err


def test_short_ciphertext_exit3_names_n(tmp_path, toy_paramfile, capsys):
    key = str(tmp_path / "key.json")
    ct = str(tmp_path / "ct.json")
    main(["keygen", "--params", toy_paramfile, "--seed", "42", "--out", key])
    main(["encrypt", "--key", key, "--bit", "1", "--seed", "3", "--out", ct])
    d = json.loads(open(ct).read())
    d["c"] = d["c"][:-1]  # same params_hash, one entry short
    open(ct, "w").write(json.dumps(d))
    capsys.readouterr()
    assert main(["decrypt", "--key", key, "--in", ct]) == 3
    err = capsys.readouterr().err
    assert "n=4" in err and "n=5" in err and "broadcast" not in err


# the best-case boundary for q = 10007, h = 2, eps = 0.01: sigma_s*p must
# exceed 40*alpha*q and stay <= floor(5003/2) = 2501, so alpha < 2501/400280
@pytest.mark.parametrize("make_params", [toy_additive_params, toy_mult_params])
@pytest.mark.parametrize("alpha", ["0.004", "0.006", "0.0062481", "0.0062482", "0.0065", "0.2"])
def test_check_params_accepts_exactly_when_keygen_feasible(tmp_path, capsys, make_params, alpha):
    from mvphe import ParameterInfeasibleError
    from mvphe.errors import KeyGenError

    params = make_params(alpha=alpha)
    path = str(tmp_path / "p.json")
    save_params(path, params)
    try:
        keygen(params, RandomStream(1))
        infeasible = False
    except ParameterInfeasibleError:
        infeasible = True
    except KeyGenError:  # a retry budget ran out: feasible, this seed unlucky
        infeasible = False
    capsys.readouterr()
    code = main(["check-params", "--params", path, "--json"])
    out, err = capsys.readouterr()
    assert code == (4 if infeasible else 0)
    assert infeasible == (float(alpha) * 400280 >= 2501)
    if infeasible:
        assert "scale" in err and out == ""
    else:
        obj = json.loads(out)
        assert obj["sigma_p_min"] <= obj["sigma_p_max"] == 2501
        assert "p_min" not in obj and "p_max" not in obj


def test_ragged_key_points_exit3(tmp_path, toy_paramfile, capsys):
    key = str(tmp_path / "key.json")
    main(["keygen", "--params", toy_paramfile, "--seed", "42", "--out", key])
    d = json.loads(open(key).read())
    d["points"][0] = d["points"][0][:1]
    open(key, "w").write(json.dumps(d))
    capsys.readouterr()
    assert main(["encrypt", "--key", key, "--bit", "1", "--out", str(tmp_path / "ct.json")]) == 3
    assert "'points'" in capsys.readouterr().err


def test_hash_mismatch_exit3(tmp_path, toy_paramfile, mult_paramfile, capsys):
    k1, k2 = str(tmp_path / "k1.json"), str(tmp_path / "k2.json")
    c1 = str(tmp_path / "c1.json")
    main(["keygen", "--params", toy_paramfile, "--seed", "42", "--out", k1])
    main(["keygen", "--params", mult_paramfile, "--seed", "42", "--out", k2])
    main(["encrypt", "--key", k1, "--bit", "0", "--seed", "3", "--out", c1])
    capsys.readouterr()
    assert main(["decrypt", "--key", k2, "--in", c1]) == 3
    assert "params_hash" in capsys.readouterr().err


def test_load_save_identity_all_file_types(tmp_path, toy_key, mult_key):
    import numpy as np

    p_path = tmp_path / "p.json"
    save_params(p_path, toy_key.params, seed=17)
    params, seed = load_params(p_path)
    assert seed == 17
    assert params.canonical_dict() == toy_key.params.canonical_dict()

    k_path = tmp_path / "k.json"
    save_key(k_path, mult_key)
    loaded = load_key(k_path)
    assert np.array_equal(loaded.s, mult_key.s)
    assert np.array_equal(loaded.points, mult_key.points)
    assert (loaded.p, loaded.sigma_s) == (mult_key.p, mult_key.sigma_s)
    # byte-stability: save(load(x)) == save(x)
    k2_path = tmp_path / "k2.json"
    save_key(k2_path, loaded)
    assert open(k_path, "rb").read() == open(k2_path, "rb").read()

    ct = encrypt(toy_key, 1, RandomStream(2))
    c_path = tmp_path / "c.json"
    phash = params_hash(toy_key.params)
    save_ciphertext(c_path, ct, phash)
    got, h = load_ciphertext(c_path)
    assert h == phash and np.array_equal(got.c, ct.c)
    assert (got.adds, got.mults) == (ct.adds, ct.mults)

    ek = eval_key(mult_key)
    e_path = tmp_path / "e.json"
    save_evalkey(e_path, ek, params_hash(mult_key.params))
    got_ek, _ = load_evalkey(e_path)
    assert got_ek == ek


def test_noise_bench_runs(tmp_path, toy_paramfile, capsys):
    key = str(tmp_path / "key.json")
    main(["keygen", "--params", toy_paramfile, "--seed", "42", "--out", key])
    capsys.readouterr()
    assert main(["noise-bench", "--key", key, "--trials", "100", "--seed", "0"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].split("\t") == ["op", "predicted_std", "measured_std", "error_rate"]
    assert out[1].startswith("fresh\t") and out[2].startswith("add\t")


def test_noise_bench_json_mult(tmp_path, mult_paramfile, capsys):
    key = str(tmp_path / "keym.json")
    main(["keygen", "--params", mult_paramfile, "--seed", "5", "--out", key])
    capsys.readouterr()
    assert main(["noise-bench", "--key", key, "--trials", "50", "--seed", "0",
                 "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert set(obj["rows"]) == {"fresh", "add", "mult"}


def test_noise_bench_json_reports_tail_statistics(tmp_path, mult_paramfile, capsys):
    key = str(tmp_path / "keym.json")
    main(["keygen", "--params", mult_paramfile, "--seed", "5", "--out", key])
    capsys.readouterr()
    args = ["noise-bench", "--key", key, "--trials", "300", "--seed", "1"]
    assert main(args + ["--json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    sk = load_key(key)
    for op in ("fresh", "add", "mult"):
        row = rows[op]
        assert 0 <= row["p999_abs_noise"] <= row["max_abs_noise"] <= sk.params.q // 2
        assert row["margin"] == sk.sigma_s * sk.p / 2 - row["max_abs_noise"]
        assert row["error_rate"] <= row["error_rate_upper95"] <= 1
    assert rows["fresh"]["error_rate_upper95"] == pytest.approx(1 - 0.05 ** (1 / 300))
    assert rows["mult"]["margin"] < 0  # noisy products decrypt at chance
    # the text table keeps its four columns
    assert main(args) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [len(line.split("\t")) for line in lines] == [4, 4, 4, 4]
    assert [line.split("\t")[0] for line in lines[1:]] == ["fresh", "add", "mult"]


def test_game_command_smoke(capsys):
    assert main(["game", "hsm", "--adversary", "rank", "--trials", "100",
                 "--seed", "4", "--alpha-q", "0", "--n", "8", "--l", "4"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("game\t")
    rate = float(out[1].split("\t")[4])
    assert rate >= 0.95


def test_game_reduction_json(capsys):
    assert main(["game", "hsm", "--adversary", "rank", "--reduction", "lemma1",
                 "--trials", "100", "--seed", "4", "--n", "6", "--alpha-q", "0",
                 "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert "native_hsm" in obj and "wrapped_dlwe" in obj


@pytest.mark.parametrize("q, why", [
    (4294967311, "[2, 2^31)"),  # prime, but int64 products would overflow
    (10000, "prime"),
])
@pytest.mark.parametrize("game", [
    ["dlwe", "--adversary", "oracle"],
    ["hsm", "--adversary", "oracle"],
    ["hsm", "--adversary", "rank", "--reduction", "lemma1"],
])
def test_game_refuses_bad_q_naming_it(game, q, why, capsys):
    assert main(["game", *game, "--alpha-q", "0",
                 "--trials", "100", "--seed", "1", "--q", str(q)]) == 3
    err = capsys.readouterr().err
    assert "q must be" in err and why in err and str(q) in err


def test_game_accepts_q_61():
    assert main(["game", "hsm", "--q", "61", "--trials", "100", "--seed", "1"]) == 0


@pytest.mark.parametrize("n", [0, -3])
@pytest.mark.parametrize("game", [
    ["hsm", "--adversary", "rank"],
    ["dlwe", "--adversary", "rank"],
    ["hsm", "--adversary", "rank", "--reduction", "lemma1"],
])
def test_game_refuses_n_below_one_naming_it(game, n, capsys):
    assert main(["game", *game, "--trials", "100", "--seed", "1", "--n", str(n)]) == 3
    captured = capsys.readouterr()
    assert f"n must be >= 1, got {n}" in captured.err and captured.out == ""


@pytest.mark.parametrize("l", [-1, 0, 12])
def test_game_hsm_refuses_l_outside_1_to_n(l, capsys):
    assert main(["game", "hsm", "--trials", "100", "--seed", "1", "--l", str(l)]) == 3
    captured = capsys.readouterr()
    assert f"need 1 <= l < n, got l={l}, n=12" in captured.err and captured.out == ""


@pytest.mark.parametrize("alpha_q", ["nan", "inf"])
@pytest.mark.parametrize("game", ["hsm", "dlwe"])
def test_game_refuses_non_finite_alpha_q(game, alpha_q, capsys):
    assert main(["game", game, "--trials", "100", "--seed", "1", "--alpha-q", alpha_q]) == 3
    captured = capsys.readouterr()
    assert "alpha must be finite" in captured.err and captured.out == ""


# json.dumps writes float('inf') and float('nan') as the literals Infinity and
# NaN, which json.loads accepts
@pytest.mark.parametrize("field, value", [
    ("alpha", "Infinity"), ("alpha", "1e400"), ("alpha", "NaN"), ("alpha", "sNaN"),
    ("headroom", float("inf")), ("headroom", float("nan")), ("headroom", 10**400),
    ("epsilon", "sNaN"),
])
@pytest.mark.parametrize("command", ["check-params", "keygen"])
def test_non_finite_params_exit3_naming_the_field(tmp_path, command, field, value, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({**params_to_dict(toy_additive_params()), field: value}))
    argv = ["check-params", "--params", str(path)]
    if command == "keygen":
        argv = ["keygen", "--params", str(path), "--seed", "1", "--out", str(tmp_path / "k.json")]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert f"'params': {field} must" in captured.err and captured.out == ""


@pytest.mark.parametrize("reduction", [[], ["--reduction", "theorem1"]])
def test_indcpa_game_ignores_q(reduction, capsys):
    # indcpa's modulus is the scheme's, so --q neither is checked nor changes a draw
    argv = ["game", "indcpa", "--adversary", "rank", *reduction, "--trials", "100",
            "--seed", "2", "--json"]
    assert main(argv) == 0
    default = capsys.readouterr().out
    assert main([*argv, "--q", "10000"]) == 0
    assert capsys.readouterr().out == default


def test_game_reduction_usage_errors(capsys):
    assert main(["game", "indcpa", "--reduction", "lemma1", "--trials", "100"]) == 2
    # Lemma 1 has one spelling: the dlwe spelling ran the same experiment
    assert main(["game", "dlwe", "--reduction", "lemma1", "--trials", "100"]) == 2
    assert "applies to the hsm game" in capsys.readouterr().err
    assert main(["game", "hsm", "--reduction", "theorem1", "--trials", "100"]) == 2
    assert main(["game", "hsm", "--adversary", "oracle", "--reduction", "lemma1",
                 "--trials", "100"]) == 2


# Exit code and sha256 of stdout for every `mvphe game` game/adversary/reduction
# combination at --trials 100 --seed 9, text and --json; usage errors (exit 2)
# print nothing to stdout. Recorded before the adversary table replaced the
# per-game if-chains; same-seed output must not move. The four dlwe cases of
# random and rank under lemma1 became usage errors when Lemma 1 kept its one
# spelling, `game hsm --reduction lemma1`, whose output they had repeated.
_GAME_GOLDEN = {
    ("hsm", "random", None, False): (0, "78fd1b02bd3cd38409c20e6f673f31329af2b860a50f27cfe08115dffd3ed099"),
    ("hsm", "random", None, True): (0, "5c58a7580373cc2b04d6a236a148ce9738e5f2e77f3982cbbe21a37abeecec58"),
    ("hsm", "random", 'lemma1', False): (0, "eb90532eb7bbba60f9c0a39ffe5e7be629fb9987408e16b269ac5a9d4d631b85"),
    ("hsm", "random", 'lemma1', True): (0, "f52f5750336f425a2f8d7dee03880ee0f4a3ce0a6d667335752a6850c02b039c"),
    ("hsm", "random", 'theorem1', False): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("hsm", "random", 'theorem1', True): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("hsm", "rank", None, False): (0, "7de5a06f02006f0d4319213d2dd8a0d86ae14e21464d289f7bab0bfb660dbb64"),
    ("hsm", "rank", None, True): (0, "2f1d095499d5058b5bcee0edbcf741e0df3559e3f4d553f65565cf3007f85639"),
    ("hsm", "rank", 'lemma1', False): (0, "d441912b0213a70870ea7684bdff0ac3b48cdd8c9aba7a96cd6acffc71473727"),
    ("hsm", "rank", 'lemma1', True): (0, "1abbf09e374df4d78cd214b506dfa59200921308f63b14ead0df410e7294b5c1"),
    ("hsm", "rank", 'theorem1', False): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("hsm", "rank", 'theorem1', True): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("hsm", "oracle", None, False): (0, "c4a92abc168cc0b3ac6b4e4b73ff30fcdb4565d97405f18c8a1f29259cb6ee0f"),
    ("hsm", "oracle", None, True): (0, "2d01e4bc51bd921d9d6c456f576ba1f63c2635a92f78b8ff1e8d53e6ecc3155a"),
    ("hsm", "oracle", 'lemma1', False): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("hsm", "oracle", 'lemma1', True): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("hsm", "oracle", 'theorem1', False): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("hsm", "oracle", 'theorem1', True): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("dlwe", "random", None, False): (0, "3f7603df4141f2be618326ee836e93f765ecad83a36d1fd51397620b3e655927"),
    ("dlwe", "random", None, True): (0, "23f930a3d375449a30a10083f34105b9cf0ea8e832ee829790fdc730a2305040"),
    ("dlwe", "random", 'lemma1', False): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("dlwe", "random", 'lemma1', True): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("dlwe", "random", 'theorem1', False): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("dlwe", "random", 'theorem1', True): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("dlwe", "rank", None, False): (0, "11b5d6832c48e3923a6615c75e635f97534fd4913ccb7f57366e3c88f7b10f52"),
    ("dlwe", "rank", None, True): (0, "5a5674bcd6acd80156c3bb0359304b08694db5a592efc3265e466bf43b18cbc3"),
    ("dlwe", "rank", 'lemma1', False): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("dlwe", "rank", 'lemma1', True): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("dlwe", "rank", 'theorem1', False): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("dlwe", "rank", 'theorem1', True): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("dlwe", "oracle", None, False): (0, "6b2b07368d5560a729438abdde7512b017976a57d1df34a4ffe9b7af959e6957"),
    ("dlwe", "oracle", None, True): (0, "23f930a3d375449a30a10083f34105b9cf0ea8e832ee829790fdc730a2305040"),
    ("dlwe", "oracle", 'lemma1', False): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("dlwe", "oracle", 'lemma1', True): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("dlwe", "oracle", 'theorem1', False): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("dlwe", "oracle", 'theorem1', True): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("indcpa", "random", None, False): (0, "13ae1c9858f7ed89d246b9e19175c495e9dbcb04d1ef3a25448123bc635198e1"),
    ("indcpa", "random", None, True): (0, "14f5771dea1499a55ea382226ddb902095c3129133775493757d6932b15abc03"),
    ("indcpa", "random", 'lemma1', False): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("indcpa", "random", 'lemma1', True): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("indcpa", "random", 'theorem1', False): (0, "194f1958a136c909469729da064e578e0adbaeb1f321f5f3eacf665e80fe6a65"),
    ("indcpa", "random", 'theorem1', True): (0, "315b108d2fef3c95cf1190f0ac6d47103bafca561edd4cf8a82661f90f5d8e4e"),
    ("indcpa", "rank", None, False): (0, "97a1013941dda4ad60fe43a05f9cc4ae6a6bed1d27173cb52d899711a6dd4ac6"),
    ("indcpa", "rank", None, True): (0, "6d30cf09268e0db6fc7eb0d1d1269ed7bd3b626ae1a94eeec628e7330ea89757"),
    ("indcpa", "rank", 'lemma1', False): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("indcpa", "rank", 'lemma1', True): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("indcpa", "rank", 'theorem1', False): (0, "7f454fd3442ef3f20007af8fb62416016fde5629b31f61f8f5d6b5214bde28fc"),
    ("indcpa", "rank", 'theorem1', True): (0, "f36bdacb12a3ee8cf2f16b86b19836f920adb2e88d0d4a2d6d1252e1ad1135e3"),
    ("indcpa", "oracle", None, False): (0, "51649d49e520b8e659f3c96f4f87b98f856c2836119ef55ba2daf9d7c9239371"),
    ("indcpa", "oracle", None, True): (0, "2b2d553f627e3ed49b840bb83633b5f84f21c0f48fd6e9ad7200ec86c1eaac2f"),
    ("indcpa", "oracle", 'lemma1', False): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("indcpa", "oracle", 'lemma1', True): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("indcpa", "oracle", 'theorem1', False): (0, "c1ddd01c5782dbaa6374ca5452bc01fe51544023a6c67846c9c8901468a6329e"),
    ("indcpa", "oracle", 'theorem1', True): (0, "e0483c4a7aa4e94055ef9b42047809260a597ae44d4bcdcc0447b99d9fd11440"),
}


@pytest.mark.parametrize("game, adversary, reduction, as_json", list(_GAME_GOLDEN))
def test_game_command_golden_output(game, adversary, reduction, as_json, capsys):
    argv = ["game", game, "--adversary", adversary, "--trials", "100", "--seed", "9"]
    if reduction:
        argv += ["--reduction", reduction]
    if as_json:
        argv.append("--json")
    code = main(argv)
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == _GAME_GOLDEN[game, adversary, reduction, as_json]
