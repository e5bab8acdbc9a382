"""mvphe: somewhat-homomorphic encryption from noisy multivariate polynomial
evaluation over a prime field, plus a game-based security harness.

The root holds the documented API: the scheme, its parameters, the games and
reductions, and the error classes. Everything else is imported from its
module, for example ``from mvphe.linalg import rref``.
"""

from .errors import (
    DepthError,
    FileFormatError,
    KeyGenError,
    ParameterInfeasibleError,
    ProtocolViolationError,
    UnsupportedOperationError,
)
from .field import FieldContext
from .linalg import dot_mod, matmul_mod
from .mvpoly import IdealSpec, MonomialIndex, Polynomial, evaluation_matrix, poly_mul
from .sampling import NoiseSpec, RandomStream
from .scheme import (
    MODE_ADDITIVE,
    MODE_MULT,
    Ciphertext,
    SchemeParams,
    decrypt,
    encrypt,
    encrypt_batch,
    encrypt_traced,
    eval_key,
    hom_add,
    hom_mult,
    keygen,
    noise_budget,
    noise_measure,
)
from .games import (
    estimate_advantage,
    indcpa_game,
    joint_ci,
    lemma1_experiment,
    theorem1_experiment,
)

__version__ = "0.1.0"
