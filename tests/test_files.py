import dataclasses
import json

import pytest

from mvphe import Ciphertext, FileFormatError, RandomStream, encrypt, encrypt_batch, eval_key
from mvphe.files import (
    load_ciphertext,
    load_evalkey,
    load_key,
    load_params,
    params_from_dict,
    params_hash,
    save_ciphertext,
    save_evalkey,
    save_key,
    save_params,
)


@pytest.fixture()
def artifacts(tmp_path, toy_key, mult_key):
    """One valid file of each type: key, ciphertext and eval key."""
    paths = {kind: tmp_path / f"{kind}.json" for kind in ("key", "ct", "ek")}
    save_key(paths["key"], toy_key)
    save_ciphertext(paths["ct"], encrypt(toy_key, 1, RandomStream(5)), params_hash(toy_key.params))
    save_evalkey(paths["ek"], eval_key(mult_key), params_hash(mult_key.params))
    return paths


LOADERS = {"key": load_key, "ct": load_ciphertext, "ek": load_evalkey}


def _true(_):
    return True


@pytest.mark.parametrize(
    "kind, where, change, field",
    [
        pytest.param("ct", ("c", 0), lambda v: v + 0.7, "c", id="ct-float-entry"),
        pytest.param("ct", ("c", 0), str, "c", id="ct-string-entry"),
        pytest.param("ct", ("c", 0), _true, "c", id="ct-bool-entry"),
        pytest.param("ct", ("c", 0), lambda v: [v], "c", id="ct-nested-c"),
        pytest.param("ct", ("c",), lambda v: [], "c", id="ct-empty-c"),
        pytest.param("ct", ("mults",), _true, "mults", id="ct-bool-mults"),
        pytest.param("ct", ("q",), lambda v: 10008, "q", id="ct-nonprime-q"),
        pytest.param("key", ("s", 0), float, "s", id="key-float-entry"),
        pytest.param("key", ("points", 0, 0), str, "points", id="key-string-entry"),
        pytest.param("key", ("B_r", 0, 0), float, "B_r", id="key-float-basis-entry"),
        pytest.param("key", ("p",), _true, "p", id="key-bool-p"),
        pytest.param("key", ("points", 0), lambda v: v[:1], "points", id="key-ragged-points"),
        pytest.param("key", ("points",), lambda v: v[:-1], "points", id="key-short-points"),
        pytest.param("ek", ("p_inverse",), _true, "p_inverse", id="ek-bool-p-inverse"),
        pytest.param("ek", ("n",), float, "n", id="ek-float-n"),
        pytest.param("ek", ("q",), lambda v: 10008, "q", id="ek-nonprime-q"),
    ],
)
def test_malformed_artifact_names_field(artifacts, kind, where, change, field):
    path = artifacts[kind]
    d = json.loads(path.read_text())
    target = d
    for key in where[:-1]:
        target = target[key]
    target[where[-1]] = change(target[where[-1]])
    path.write_text(json.dumps(d))
    with pytest.raises(FileFormatError) as exc:
        LOADERS[kind](path)
    assert exc.value.field == field


def test_deleted_literal_mult_noise_key_is_refused(tmp_path, artifacts, mult_key):
    # the flag's wider noise support is gone; a file that still asks for it
    # is refused by name rather than silently loaded without it
    path = tmp_path / "params.json"
    save_params(path, mult_key.params)
    d = json.loads(path.read_text())
    d["literal_mult_noise"] = True
    path.write_text(json.dumps(d))
    key = json.loads(artifacts["key"].read_text())
    key["params"]["literal_mult_noise"] = False
    artifacts["key"].write_text(json.dumps(key))
    for load, target in ((load_params, path), (load_key, artifacts["key"])):
        with pytest.raises(FileFormatError) as exc:
            load(target)
        assert exc.value.field == "literal_mult_noise"


@pytest.mark.parametrize("lam", [1, 32, 256])
def test_params_round_trip_every_accepted_lambda(tmp_path, toy_params, lam):
    params = dataclasses.replace(toy_params, lam=lam)
    save_params(tmp_path / "p.json", params)
    loaded, _ = load_params(tmp_path / "p.json")
    assert loaded.lam == lam and loaded.canonical_dict() == params.canonical_dict()
    d = json.loads((tmp_path / "p.json").read_text())
    with pytest.raises(FileFormatError, match="lambda"):
        params_from_dict({**d, "lambda": 0})


@pytest.mark.parametrize("headroom", [1, 2.5])
def test_params_round_trip_int_and_float_headroom(tmp_path, toy_params, headroom):
    params = dataclasses.replace(toy_params, headroom=headroom)
    save_params(tmp_path / "p.json", params)
    loaded, _ = load_params(tmp_path / "p.json")
    assert type(loaded.headroom) is type(headroom)
    assert loaded.canonical_dict() == params.canonical_dict()


def test_params_load_tests_q_once(tmp_path, toy_params, monkeypatch):
    import mvphe.field

    save_params(tmp_path / "p.json", toy_params)
    calls = []
    real = mvphe.field._is_prime
    monkeypatch.setattr(mvphe.field, "_is_prime", lambda n: calls.append(n) or real(n))
    load_params(tmp_path / "p.json")
    assert calls == [toy_params.q]


def test_a_stack_of_ciphertexts_is_not_saved_as_one(tmp_path, toy_key):
    stack = Ciphertext(encrypt_batch(toy_key, [0, 1], RandomStream(6)), toy_key.params.q)
    with pytest.raises(ValueError, match="one ciphertext"):
        save_ciphertext(tmp_path / "ct.json", stack, params_hash(toy_key.params))
    assert not (tmp_path / "ct.json").exists()


@pytest.mark.parametrize("key, field", [("toy_key", "B_r"), ("mult_key", "B_r"),
                                        ("mult_key", "B_2r")])
def test_key_file_with_a_foreign_basis_names_it(tmp_path, request, key, field):
    # a well-formed basis that is not the params ideal's truncated basis
    sk = request.getfixturevalue(key)
    path = tmp_path / "key.json"
    save_key(path, sk)
    d = json.loads(path.read_text())
    d[field][0][0] = (d[field][0][0] + 1) % sk.params.q
    path.write_text(json.dumps(d))
    with pytest.raises(FileFormatError) as exc:
        load_key(path)
    assert exc.value.field == field


def test_key_file_with_n_below_the_ideal_slice_names_params(tmp_path, toy_key):
    # params that validate, but leave s no tail beyond the evaluated basis
    path = tmp_path / "key.json"
    save_key(path, toy_key)
    d = json.loads(path.read_text())
    n = toy_key.head_len - 1
    d["params"]["n"] = n
    d["params_hash"] = params_hash(params_from_dict(d["params"]))
    d["points"], d["s"] = d["points"][:n], d["s"][:n]
    path.write_text(json.dumps(d))
    with pytest.raises(FileFormatError) as exc:
        load_key(path)
    assert exc.value.field == "params"
