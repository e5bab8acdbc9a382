"""Tests of the benchmark itself (not collected by a bare ``pytest`` run,
because each case starts several interpreters). From the checkout root:

    python3 -m pytest -q perfbench/selftest.py

Each workload runs once in tiny mode (``--seconds 1``) per trace setting;
the result is shared by the tests below.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COMPUTED = (
    "linalg.matmul_mod.blocks",
    "linalg.matmul_mod.macs",
    "linalg.rref.cells",
    "scheme.keygen.point_sets",
    "games.oracle_calls_per_trial",
)
_results = {}


def _run(workload, trace, seed=3, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result(workload, trace):
    if (workload, trace) not in _results:
        proc = _run(workload, trace)
        assert proc.returncode == 0, proc.stderr[-3000:]
        _results[workload, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    return _results[workload, trace]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(workload, trace, kind):
    res = result(workload, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {name: m["unit"] for name, m in res["metrics"].items()} == expected
    for name, m in res["metrics"].items():
        assert math.isfinite(m["value"]), name
        if kind == "end_to_end":
            assert m["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_computed_counts_repeat_for_the_same_seed(workload):
    first = result(workload, 1)["metrics"]
    proc = _run(workload, 1)
    assert proc.returncode == 0, proc.stderr[-3000:]
    second = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    repeat = [n for n in first if n in COMPUTED or n.endswith(".calls")]
    assert {n: first[n]["value"] for n in repeat} == {n: second[n]["value"] for n in repeat}


def test_workloads_split_the_matmul_regimes():
    def per_encrypt(workload):
        return result(workload, 1)["metrics"]["linalg.matmul_mod.blocks_per_encrypt"]["value"]

    assert per_encrypt("toy-mult") == 2
    assert per_encrypt("scaled-q31") == 212


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("toy-mult", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.fixture
def workloads():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    return workloads


def test_one_corrupted_ciphertext_word_is_counted_as_failed(workloads, tmp_path, monkeypatch):
    from mvphe import scheme

    session = workloads.Session(ROOT, "toy-mult", 5, 0.1, tmp_path)
    session.prepare()

    sk = session.sk
    q = sk.params.q
    j = next(i for i in range(sk.head_len, sk.n) if sk.s[i])
    # shifts <s, c> by sigma_s * p: the sum then decrypts to the other bit
    delta = sk.sigma_s * sk.p * pow(int(sk.s[j]), -1, q) % q
    real_add = scheme.hom_add
    corrupted = []

    def corrupting_add(c1, c2):
        out = real_add(c1, c2)
        if not corrupted:
            out.c[j] = (out.c[j] + delta) % q
            corrupted.append(j)
        return out

    monkeypatch.setattr(scheme, "hom_add", corrupting_add)
    for _ in range(2):
        session.unit_encrypt()
        session.unit_add()
        session.unit_mult()
    # per round of units: 8 fresh decrypts, 8 sums and 8 products are checked
    assert corrupted == [j]
    assert (session.failed, session.attempted) == (1, 48)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond(workloads):
    assert workloads.tail([float(i) for i in range(1, 41)]) == (75.0, 30.0)
    assert workloads.tail([float(i) for i in range(1, 20)]) == (50.0, 10.0)
    assert workloads.tail([float(i) for i in range(1, 1001)]) == (99.0, 990.0)
