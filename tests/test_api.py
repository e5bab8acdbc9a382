"""The package root is the documented API."""

import re
import types
from pathlib import Path

import mvphe

ROOT_API = {
    # the scheme
    "SchemeParams", "IdealSpec", "MODE_ADDITIVE", "MODE_MULT", "Ciphertext",
    "keygen", "encrypt", "encrypt_batch", "encrypt_traced", "decrypt",
    "eval_key", "hom_add", "hom_mult", "noise_measure", "noise_budget",
    # the games and the two reductions
    "indcpa_game", "estimate_advantage", "joint_ci",
    "lemma1_experiment", "theorem1_experiment",
    # field, polynomials, randomness and the exact products
    "FieldContext", "MonomialIndex", "Polynomial", "evaluation_matrix", "poly_mul",
    "NoiseSpec", "RandomStream", "dot_mod", "matmul_mod",
    # errors
    "DepthError", "FileFormatError", "KeyGenError", "ParameterInfeasibleError",
    "ProtocolViolationError", "UnsupportedOperationError",
}


def test_root_exports_exactly_the_documented_api():
    public = {
        name for name, value in vars(mvphe).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(ROOT_API) == 35
    assert public == ROOT_API


def test_readme_quick_start_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
