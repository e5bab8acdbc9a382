import hashlib
import json
from pathlib import Path

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


def test_keygen_takes_the_params_file_seed(tmp_path, capsys):
    path, by_file, by_flag = (tmp_path / x for x in ("p.json", "k1.json", "k2.json"))
    save_params(path, toy_additive_params(), seed=5)
    assert main(["keygen", "--params", str(path), "--out", str(by_file)]) == 0
    assert "no seed given" not in capsys.readouterr().err
    main(["keygen", "--params", str(path), "--seed", "5", "--out", str(by_flag)])
    assert by_file.read_bytes() == by_flag.read_bytes()


def test_a_seedless_keygen_logs_a_256_bit_seed_that_reproduces_its_key(tmp_path,
                                                                       toy_paramfile, capsys):
    fresh, again = str(tmp_path / "fresh.json"), str(tmp_path / "again.json")
    assert main(["keygen", "--params", toy_paramfile, "--out", fresh]) == 0
    seed = int(capsys.readouterr().err.split("using seed ")[1])
    assert seed >= 2**64  # below 2^64 with chance 2^-192, the old 64-bit fold always
    assert main(["keygen", "--params", toy_paramfile, "--seed", str(seed), "--out", again]) == 0
    assert Path(fresh).read_bytes() == Path(again).read_bytes()


def test_keygen_out_without_json_suffix_names_the_eval_key(tmp_path, mult_paramfile, capsys):
    key = tmp_path / "key"
    assert main(["keygen", "--params", mult_paramfile, "--seed", "5", "--out", str(key)]) == 0
    assert capsys.readouterr().out == f"wrote {key} and {key}.evk.json\n"
    assert load_evalkey(f"{key}.evk.json")[0] == eval_key(load_key(key))


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


def test_key_with_a_foreign_p_exit3_names_p(tmp_path, toy_paramfile, capsys):
    # p = q - 1 is in range but not the noise rule's p for this s: refused
    # before a decrypt at chance
    key, ct = str(tmp_path / "key.json"), str(tmp_path / "ct.json")
    main(["keygen", "--params", toy_paramfile, "--seed", "42", "--out", key])
    main(["encrypt", "--key", key, "--bit", "1", "--seed", "3", "--out", ct])
    d = json.loads(open(key).read())
    d["p"] = d["params"]["q"] - 1
    open(key, "w").write(json.dumps(d))
    capsys.readouterr()
    assert main(["decrypt", "--key", key, "--in", ct]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "'p'" in err


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


def test_check_params_reports_the_exact_least_scale_at_its_boundary(tmp_path, capsys):
    # 2h·alpha·q/sqrt(eps) is exactly 51 at q = 17, h = 1, eps = 0.01 and
    # alpha = 0.15, so the least admissible sigma_s*p is 52, as keygen's rule says
    from mvphe import SchemeParams
    from mvphe.presets import toy_ideal
    from mvphe.scheme import MODE_ADDITIVE

    path = tmp_path / "p.json"
    save_params(path, SchemeParams(lam=32, q=17, ell=2, r=2, n=5, alpha="0.15", epsilon="0.01",
                                   mode=MODE_ADDITIVE, ideal=toy_ideal(17), headroom=1))
    assert main(["check-params", "--params", str(path), "--json"]) == 4
    out, err = capsys.readouterr()
    assert "sigma_s*p=52" in err and out == ""


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
    c2, out, evk = str(tmp_path / "c2.json"), tmp_path / "out.json", tmp_path / "k2.evk.json"
    main(["encrypt", "--key", k2, "--bit", "0", "--seed", "4", "--out", c2])
    assert main(["add", "--in", c1, "--in", c2, "--out", str(out)]) == 3
    assert main(["mul", "--in", c1, "--in", c2, "--evalkey", str(evk), "--out", str(out)]) == 3
    d = json.loads(evk.read_text())
    evk.write_text(json.dumps({**d, "params_hash": "0" * 64}))  # an eval key of other params
    assert main(["mul", "--in", c2, "--in", c2, "--evalkey", str(evk), "--out", str(out)]) == 3
    assert capsys.readouterr().err.count("params_hash") == 3 and not out.exists()


@pytest.mark.parametrize("flag", ["decrypt --in", "decrypt --key", "keygen --out"])
def test_a_directory_for_a_file_exits_3_naming_it(tmp_path, toy_paramfile, flag, capsys):
    key, folder = str(tmp_path / "key.json"), tmp_path / "folder"
    folder.mkdir()
    main(["keygen", "--params", toy_paramfile, "--seed", "42", "--out", key])
    argv = {"decrypt --in": ["decrypt", "--key", key, "--in", str(folder)],
            "decrypt --key": ["decrypt", "--key", str(folder), "--in", key],
            "keygen --out": ["keygen", "--params", toy_paramfile, "--seed", "1",
                             "--out", str(folder)]}[flag]
    capsys.readouterr()
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert str(folder) in captured.err and captured.out == ""


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


def test_indcpa_game_plays_under_its_params_file(mult_paramfile, capsys):
    from mvphe import estimate_advantage, indcpa_game
    from mvphe.adversaries import IndCpaRankAdversary

    argv = ["game", "indcpa", "--adversary", "rank", "--trials", "100", "--seed", "3", "--json"]
    assert main([*argv, "--params", mult_paramfile]) == 0
    wins = json.loads(capsys.readouterr().out)["indcpa"]["wins"]
    params = toy_mult_params()
    expect = estimate_advantage(lambda adv, sub: indcpa_game(params, adv, sub),
                                IndCpaRankAdversary(), 100, RandomStream(3))
    assert wins == expect.wins
    assert main(argv) == 0  # the default, toy additive, plays another game
    assert json.loads(capsys.readouterr().out)["indcpa"]["wins"] != wins


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
    ("hsm", "random", None, False): (0, "c81c7c14f704fd28c2affdc48608eaface6f377b894da30a3c147a20c50d66c7"),
    ("hsm", "random", None, True): (0, "545e93fc2176d167156a10f51f9cbbfc2ddceab966d31dc3aefb3debfcf758e1"),
    ("hsm", "random", 'lemma1', False): (0, "b50401e09cd196b66e524d1556e1ef55888ae09982f196854b04feb590760973"),
    ("hsm", "random", 'lemma1', True): (0, "3ed364c087f04e193ead3794c03f023f43a3a852e78b48c3cec7bf9530fca26b"),
    ("hsm", "random", 'theorem1', False): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("hsm", "random", 'theorem1', True): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("hsm", "rank", None, False): (0, "e05c9e5017108782a5f5ce958425e19754cfe9646a0f67321b585e6da824002e"),
    ("hsm", "rank", None, True): (0, "4c2a50fd3af86f675e0e4c0d9bc8e2c99e45edf90e5cefcdfb9e1e9a13afc72f"),
    ("hsm", "rank", 'lemma1', False): (0, "fe81162a013a76c085d6dd48efcf67d0c924a2e2d08593c7264b20121b3d8eae"),
    ("hsm", "rank", 'lemma1', True): (0, "28fa4b23b18d61a9e9396a0dd0d603b780dffca8600b2cf3890990f4c27e876c"),
    ("hsm", "rank", 'theorem1', False): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("hsm", "rank", 'theorem1', True): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("hsm", "oracle", None, False): (0, "e25a64ae8a11a695882f2ffa6ec04fc9bf7da04a9daed888e6bb1623555de6be"),
    ("hsm", "oracle", None, True): (0, "9aae6285caa66325ca7984cde609d3aaed7a01ecd5dfca7de32a2cfd73573830"),
    ("hsm", "oracle", 'lemma1', False): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("hsm", "oracle", 'lemma1', True): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("hsm", "oracle", 'theorem1', False): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("hsm", "oracle", 'theorem1', True): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("dlwe", "random", None, False): (0, "324500d9baa32b98985b3ef7c39daa65a63cafd614190fb861786aae4d467214"),
    ("dlwe", "random", None, True): (0, "5a5674bcd6acd80156c3bb0359304b08694db5a592efc3265e466bf43b18cbc3"),
    ("dlwe", "random", 'lemma1', False): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("dlwe", "random", 'lemma1', True): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("dlwe", "random", 'theorem1', False): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("dlwe", "random", 'theorem1', True): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("dlwe", "rank", None, False): (0, "66b5460db817606484917e72b5aa7be36a90edf31371cfe158a032271b6420c4"),
    ("dlwe", "rank", None, True): (0, "904aaaa3ad86a92f95b9b564073ce294137bd30127a896d9b2761885e30376c9"),
    ("dlwe", "rank", 'lemma1', False): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("dlwe", "rank", 'lemma1', True): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("dlwe", "rank", 'theorem1', False): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("dlwe", "rank", 'theorem1', True): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("dlwe", "oracle", None, False): (0, "073b373f32be176001d3765e3097c68e3f651f50a45ee913e4c47ff0aaf220d9"),
    ("dlwe", "oracle", None, True): (0, "5a5674bcd6acd80156c3bb0359304b08694db5a592efc3265e466bf43b18cbc3"),
    ("dlwe", "oracle", 'lemma1', False): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("dlwe", "oracle", 'lemma1', True): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("dlwe", "oracle", 'theorem1', False): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("dlwe", "oracle", 'theorem1', True): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("indcpa", "random", None, False): (0, "4f699fb4605b74db123ef8874961ab6f7e6786ade91d529697f62d0c05dcdd23"),
    ("indcpa", "random", None, True): (0, "e11bfd456ab05e12c9a78692f33e78c303b88c6da69f5ee241fa95201462b332"),
    ("indcpa", "random", 'lemma1', False): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("indcpa", "random", 'lemma1', True): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("indcpa", "random", 'theorem1', False): (0, "f73d0bb6b22e922101cf0cb2d458e69f1c43b95e07376aedf606de55bd2b8f34"),
    ("indcpa", "random", 'theorem1', True): (0, "a8ca893a2401ee24ba229871409c6cab6f38f614740c6a2f4db3aafcee54dfb4"),
    ("indcpa", "rank", None, False): (0, "736d868b189b96f6aecbfd2c0a624c608e925ac1d524f14747fda74c9f8681dd"),
    ("indcpa", "rank", None, True): (0, "f0f20462c1d320d06843c0acdc421e5b557b657e92850266dea8eef29dadf949"),
    ("indcpa", "rank", 'lemma1', False): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("indcpa", "rank", 'lemma1', True): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("indcpa", "rank", 'theorem1', False): (0, "6e078128a9b9352a0480fd778e853e59202b7b87a9b2df8b3d643926e7afeaff"),
    ("indcpa", "rank", 'theorem1', True): (0, "a2174af5836437e80484b35fd68bbcab4670076b7624e418f4ac51a2aea5164c"),
    ("indcpa", "oracle", None, False): (0, "51649d49e520b8e659f3c96f4f87b98f856c2836119ef55ba2daf9d7c9239371"),
    ("indcpa", "oracle", None, True): (0, "2b2d553f627e3ed49b840bb83633b5f84f21c0f48fd6e9ad7200ec86c1eaac2f"),
    ("indcpa", "oracle", 'lemma1', False): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("indcpa", "oracle", 'lemma1', True): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("indcpa", "oracle", 'theorem1', False): (0, "6b2d37ba284ee389e497ec5d1d62f5e7f2c9d7d9537415d9736f47b21502f396"),
    ("indcpa", "oracle", 'theorem1', True): (0, "46ad377d438a72cab7815125a98b692e678a447818a2487b0da25de80fed9be9"),
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
