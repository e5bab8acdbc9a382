"""mvphe: somewhat-homomorphic encryption from noisy multivariate polynomial
evaluation over a prime field, plus a game-based security harness."""

from .errors import (
    DepthError,
    FileFormatError,
    KeyGenError,
    ParameterInfeasibleError,
    ProtocolViolationError,
    UnsupportedOperationError,
)
from .field import FieldContext, round_nearest
from .linalg import (
    dot_mod,
    in_rowspace,
    matmul_mod,
    nullspace_basis,
    orthogonal_head_map,
    rank,
    rref,
    solve_linear,
)
from .mvpoly import (
    IdealSpec,
    MonomialIndex,
    Polynomial,
    eval_monomials,
    evaluation_matrix,
    ideal_truncated_basis,
    monomial_count,
    poly_eval,
    poly_mul,
)
from .sampling import (
    NoiseSpec,
    RandomStream,
    sample_noise_vector,
)
from .scheme import (
    MODE_ADDITIVE,
    MODE_MULT,
    Ciphertext,
    EvalKey,
    NoiseBudget,
    SchemeParams,
    SecretKey,
    decrypt,
    encrypt,
    encrypt_batch,
    encrypt_traced,
    eval_key,
    hom_add,
    hom_mult,
    keygen,
    noise_bench,
    noise_budget,
    noise_measure,
)
from .games import (
    AdvantageEstimate,
    Leak,
    Lemma1Adversary,
    SubspaceInstance,
    Theorem1Adversary,
    dlwe_game,
    estimate_advantage,
    hsm_game,
    indcpa_game,
    joint_ci,
    lemma1_experiment,
    lwe_subspace_instance,
    scheme_instance,
    theorem1_experiment,
    uniform_subspace_instance,
)
from .presets import toy_additive_params, toy_ideal, toy_mult_params

__version__ = "0.1.0"
