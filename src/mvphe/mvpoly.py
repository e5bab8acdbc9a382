"""Multivariate polynomials of bounded degree over F_q.

Coefficient vectors are dense, indexed by a fixed graded monomial order
("grlex": total degree first, then x1 > x2 > ...), so that for ell=2, r=2 the
basis reads 1, x1, x2, x1^2, x1*x2, x2^2. The order name is recorded in
serialized artifacts so coefficient vectors stay portable.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from .field import FieldContext
from .linalg import dot_mod, rref

MONOMIAL_ORDER = "grlex"


def monomial_count(ell: int, r: int) -> int:
    """Number of monomials in ell variables of total degree <= r: C(ell+r, r)."""
    if ell < 1 or r < 1:
        raise ValueError(f"need ell >= 1 and r >= 1, got ell={ell}, r={r}")
    return math.comb(ell + r, r)


class MonomialIndex:
    """Bijection between exponent vectors (|e| <= r) and positions 0..N-1."""

    def __init__(self, ell: int, r: int):
        if ell < 1 or r < 0:
            raise ValueError(f"need ell >= 1 and r >= 0, got ell={ell}, r={r}")
        self.ell = ell
        self.r = r
        exps: List[Tuple[int, ...]] = []
        for d in range(r + 1):
            for combo in itertools.combinations_with_replacement(range(ell), d):
                e = [0] * ell
                for v in combo:
                    e[v] += 1
                exps.append(tuple(e))
        self.exponents: Tuple[Tuple[int, ...], ...] = tuple(exps)
        # the same exponents as an N x ell array, for gathers from a power table
        self.exponent_array = np.array(exps, dtype=np.intp).reshape(-1, ell)
        self._pos = {e: i for i, e in enumerate(exps)}
        self.size = len(exps)
        assert self.size == math.comb(ell + r, r)

    def position(self, exponent: Sequence[int]) -> int:
        e = tuple(int(x) for x in exponent)
        try:
            return self._pos[e]
        except KeyError:
            raise ValueError(f"exponent {e} not admissible for ell={self.ell}, r={self.r}")

    def __eq__(self, other):
        return (
            isinstance(other, MonomialIndex)
            and self.ell == other.ell
            and self.r == other.r
        )

    def __repr__(self):
        return f"MonomialIndex(ell={self.ell}, r={self.r}, size={self.size})"


@dataclass
class Polynomial:
    """Dense coefficient vector over a fixed MonomialIndex."""

    index: MonomialIndex
    ctx: FieldContext
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.int64) % self.ctx.q
        if c.shape != (self.index.size,):
            raise ValueError(
                f"coefficient vector length {c.shape} != index size {self.index.size}"
            )
        self.coeffs = c

    @classmethod
    def zero(cls, index: MonomialIndex, ctx: FieldContext) -> "Polynomial":
        return cls(index, ctx, np.zeros(index.size, dtype=np.int64))

    @classmethod
    def from_terms(
        cls,
        index: MonomialIndex,
        ctx: FieldContext,
        terms: Iterable[Tuple[int, Sequence[int]]],
    ) -> "Polynomial":
        """Build from (coefficient, exponent-vector) pairs; repeats accumulate."""
        c = np.zeros(index.size, dtype=np.int64)
        for coeff, exps in terms:
            pos = index.position(exps)
            c[pos] = (c[pos] + int(coeff)) % ctx.q
        return cls(index, ctx, c)

    def terms(self) -> List[Tuple[int, Tuple[int, ...]]]:
        """Nonzero (coefficient, exponent) pairs in index order."""
        return [
            (int(c), self.index.exponents[i])
            for i, c in enumerate(self.coeffs)
            if c
        ]

    def degree(self):
        """Max total degree with nonzero coefficient; -inf for the zero poly."""
        nz = np.nonzero(self.coeffs)[0]
        if len(nz) == 0:
            return float("-inf")
        return max(sum(self.index.exponents[i]) for i in nz)

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.index == other.index
            and self.ctx.q == other.ctx.q
            and bool(np.array_equal(self.coeffs, other.coeffs))
        )


def _power_table(points: np.ndarray, max_deg: int, q: int) -> np.ndarray:
    """pows[i, v, e] = points[i, v]^e mod q."""
    n, ell = points.shape
    pows = np.ones((n, ell, max_deg + 1), dtype=np.int64)
    base = points.astype(np.int64) % q
    for e in range(1, max_deg + 1):
        pows[:, :, e] = pows[:, :, e - 1] * base % q
    return pows


def evaluation_matrix(
    index: MonomialIndex, ctx: FieldContext, points: np.ndarray
) -> np.ndarray:
    """n x N matrix whose row i evaluates every monomial of the index at z_i:
    one gather of the power table per variable, G[i, j] = prod_v z_iv^E[j, v]."""
    pts = np.asarray(points, dtype=np.int64)
    if pts.ndim != 2 or pts.shape[1] != index.ell:
        raise ValueError(f"points must have shape (n, {index.ell}), got {pts.shape}")
    pows = _power_table(pts, index.r, ctx.q)
    E = index.exponent_array
    G = pows[:, 0, E[:, 0]]
    for v in range(1, index.ell):
        G = G * pows[:, v, E[:, v]] % ctx.q
    return G


def eval_monomials(index: MonomialIndex, ctx: FieldContext, z: Sequence[int]) -> np.ndarray:
    """All degree-<=r monomials evaluated at one point; one row of G."""
    z = np.asarray(z, dtype=np.int64)
    if z.shape != (index.ell,):
        raise ValueError(f"point must have {index.ell} coordinates, got {z.shape}")
    return evaluation_matrix(index, ctx, z.reshape(1, -1))[0]


def poly_eval(f: Polynomial, z: Sequence[int]) -> int:
    """f(z) in [0, q): the inner product of coefficients with the monomial row."""
    return dot_mod(f.coeffs, eval_monomials(f.index, f.ctx, z), f.ctx.q)


def poly_mul(f: Polynomial, g: Polynomial) -> Polynomial:
    """Product polynomial, indexed by degree bound f.r + g.r."""
    if f.index.ell != g.index.ell:
        raise ValueError("variable count mismatch")
    if f.ctx.q != g.ctx.q:
        raise ValueError("field mismatch")
    out_index = MonomialIndex(f.index.ell, f.index.r + g.index.r)
    out = np.zeros(out_index.size, dtype=np.int64)
    q = f.ctx.q
    for cf, ef in f.terms():
        for cg, eg in g.terms():
            e = tuple(a + b for a, b in zip(ef, eg))
            pos = out_index.position(e)
            out[pos] = (out[pos] + cf * cg) % q
    return Polynomial(out_index, f.ctx, out)


@dataclass(frozen=True)
class IdealSpec:
    """Generators of the ideal I as handed to key generation.

    The generators are frozen into a tuple, because the ideal keeps the
    truncated bases built from them (see :func:`ideal_truncated_basis`).
    """

    generators: Tuple[Polynomial, ...]
    _bases: Dict[int, "IdealBasis"] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        if not self.generators:
            raise ValueError("ideal needs at least one generator")
        ell = self.generators[0].index.ell
        q = self.generators[0].ctx.q
        for g in self.generators:
            if g.index.ell != ell or g.ctx.q != q:
                raise ValueError("generators must share one (ell, q) context")
            if g.degree() == float("-inf"):
                raise ValueError("zero polynomial is not a valid generator")

    @property
    def ell(self) -> int:
        return self.generators[0].index.ell

    @property
    def ctx(self) -> FieldContext:
        return self.generators[0].ctx

    def max_degree(self) -> int:
        return max(int(g.degree()) for g in self.generators)


@dataclass(frozen=True)
class IdealBasis:
    """A row-reduced basis of an ideal slice (``data``), its dimension, and
    the monomial index of its columns."""

    data: np.ndarray
    rows: int
    index: MonomialIndex


def ideal_truncated_basis(ideal: IdealSpec, r: int) -> IdealBasis:
    """Row basis of span{m * g : g generator, deg(m*g) <= r}.

    This is the degree-<=r slice of the ideal as used operationally: monomial
    multiples of the supplied generators, row-reduced. Low-degree ideal members
    that only arise through higher-degree cancellations are not chased (no
    Groebner machinery); the span used here is what both encryption and the
    orthogonality solve are built on, so the scheme stays consistent.

    The basis is built once per ideal and degree and kept on the ideal; every
    later call returns the same object, whose ``data`` is read-only.
    """
    basis = ideal._bases.get(r)
    if basis is None:
        basis = ideal._bases[r] = _build_truncated_basis(ideal, r)
    return basis


def _build_truncated_basis(ideal: IdealSpec, r: int) -> IdealBasis:
    ctx = ideal.ctx
    out_index = MonomialIndex(ideal.ell, r)
    rows = []
    for g in ideal.generators:
        gdeg = int(g.degree())
        if gdeg > r:
            raise ValueError(
                f"generator of degree {gdeg} rejected for truncation degree {r}"
            )
        for m_exp in MonomialIndex(ideal.ell, r - gdeg).exponents:
            row = np.zeros(out_index.size, dtype=np.int64)
            for coeff, exps in g.terms():
                e = tuple(a + b for a, b in zip(exps, m_exp))
                pos = out_index.position(e)
                row[pos] = (row[pos] + coeff) % ctx.q
            rows.append(row)
    R, rk, _ = rref(np.array(rows, dtype=np.int64), ctx.q)
    data = R[:rk]
    data.flags.writeable = False
    return IdealBasis(data, rk, out_index)
