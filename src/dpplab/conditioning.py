"""Multiplicative reweighting of projection processes.

Reweighting a projection DPP by the product functional prod_{x in X} g(x)
and renormalizing yields another determinantal process; its kernel is
``sqrt(g) P (1 + (g-1) P)^{-1} sqrt(g)``, which is itself the orthogonal
projection onto sqrt(g) applied to the range of P.  This module builds
that kernel, diagnoses when the construction is well posed, and exposes
the normalization constant in closed form.  P is held as its n x r
factor U (``Phat = U U^T``), and each of these works on n x r and r x r
matrices only.

Note on the degenerate boundary: the construction is obstructed exactly
when the range of P contains a function supported on {g = 0} (then the
margin 1 - ||sqrt(1-g) P|| vanishes).  Vanishing of 1 - g, i.e. g = 1 on
part of the space, is harmless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dpp import Samples, _check_law_size, _law_array
from .errors import ConditioningImpossibleError, ContractError, DimensionError, InducibilityError
from .ground import GroundSpace, Window
from .operators import Projection, _check_same_space, _gram_schmidt

#: Values of 1 - ||sqrt(1-g) P|| at or below this count as non-invertible.
MARGIN_TOLERANCE = 1e-10


@dataclass(frozen=True, eq=False)
class WeightFunction:
    """Per-point nonnegative weights; role 'g' (conditioning, <= 1) or 'f' (embedding).

    ``values`` is a read-only copy of the given weights and ``sqrt`` their
    pointwise square roots, read-only and taken once at construction.
    """

    space: GroundSpace
    values: np.ndarray
    role: str = "g"
    sqrt: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.shape != (self.space.n,):
            raise DimensionError(f"weight function needs {self.space.n} values")
        if self.role not in ("g", "f"):
            raise ValueError("role must be 'g' or 'f'")
        lo, hi = values.min(), values.max()  # a NaN is both
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("weight-function values must be finite")
        if lo < 0:
            raise ValueError("weight-function values must be nonnegative")
        if self.role == "g" and hi > 1.0:
            raise ValueError("conditioning weights must not exceed 1")
        values.flags.writeable = False
        sqrt = np.sqrt(values)
        sqrt.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "sqrt", sqrt)

    @classmethod
    def constant(cls, space: GroundSpace, value: float, role: str = "g") -> "WeightFunction":
        return cls(space, np.full(space.n, float(value)), role)

    @classmethod
    def indicator(cls, space: GroundSpace, window: Window, role: str = "g") -> "WeightFunction":
        window.validate(space)
        values = np.zeros(space.n)
        values[window.index_set] = 1.0
        return cls(space, values, role)


def _check_conditioning_weight(g: WeightFunction) -> None:
    """Raise ``ValueError`` unless g is a conditioning weight (role 'g', so 0 <= g <= 1)."""
    if g.role != "g":
        raise ValueError(f"a weight of role {g.role!r} was given where a conditioning weight (role 'g') is expected")


def psi_g(g: WeightFunction, samples: Samples) -> np.ndarray:
    """The multiplicative functional prod_{x in X} g(x) of each draw X; the empty product is 1.

    Each draw's weights are multiplied in increasing point order by one
    ``np.multiply.at`` over the occupied entries, so no (count, n) float
    array is formed.
    """
    _check_conditioning_weight(g)
    _check_same_space(g.space, samples.space)
    draws, points = np.nonzero(samples.occupancy)
    values = np.ones(len(samples))
    np.multiply.at(values, draws, g.values[points])
    return values


@dataclass(frozen=True)
class InducibilityCheck:
    margin: float
    invertible: bool


def check_inducibility(g: WeightFunction, P: Projection) -> InducibilityCheck:
    """Report the margin 1 - ||sqrt(1-g)P|| and the invertibility verdict.

    Since U has orthonormal columns, ||D U U^T|| = ||D U||: the norm is the
    largest singular value of the n x r matrix sqrt(1-g) U, from one SVD
    call, bit for bit the value of ``np.linalg.norm(., 2)``, which runs the
    same LAPACK routine.  A rank-0 projection has norm 0 and margin 1.
    Raises ``ValueError`` unless g has role 'g', and :class:`DimensionError`
    when g and P live on different ground spaces.
    """
    _check_conditioning_weight(g)
    _check_same_space(g.space, P.space)
    top = np.linalg.svd(np.sqrt(1.0 - g.values)[:, None] * P.factor, compute_uv=False).max(initial=0.0)
    margin = 1.0 - float(top)
    return InducibilityCheck(margin, margin > MARGIN_TOLERANCE)


def induced_kernel(g: WeightFunction, P: Projection) -> Projection:
    """The reweighted-process kernel sqrt(g) P (1 + (g-1) P)^{-1} sqrt(g).

    By Woodbury's identity the resolvent reduces to the r x r system
    1 + U^T (g-1) U = U^T g U, and the kernel is the projection onto
    sqrt(g) times the range of P.  Its factor comes from the Gram-Schmidt
    routine behind ``orthonormalize``, run from no rows over the columns of
    W = sqrt(g) U.  The margin check keeps that routine from refusing a
    column, also where g has zeros: W^T W = I - U^T (1-g) U, so with m the
    margin, sigma_min(W)^2 = 1 - (1-m)^2 = m(2 - m), and each column of W
    has norm at most 1, so every residual ratio is at least sqrt(m(2 - m)),
    above 1.4e-5 for any m > ``MARGIN_TOLERANCE``.  Raises
    :class:`InducibilityError` at a margin at or below that tolerance, and
    the errors of :func:`check_inducibility` for a weight without role 'g'
    or on another ground space.
    """
    check = check_inducibility(g, P)
    if not check.invertible:
        raise InducibilityError(check.margin)
    rows = []
    for _ in _gram_schmidt(rows, (g.sqrt[:, None] * P.factor).T):
        pass
    return Projection(P.space, np.array(rows).reshape(len(rows), P.n).T)


def normalization_constant(g: WeightFunction, P: Projection) -> float:
    """det(1 + (g-1) P): the mass of the reweighted, unnormalized process.

    By Sylvester's identity this is det(1 + U^T (g-1) U) = det(U^T g U).
    Raises ``ValueError`` unless g has role 'g', and :class:`DimensionError`
    when g and P live on different ground spaces.
    """
    _check_conditioning_weight(g)
    _check_same_space(g.space, P.space)
    return float(np.linalg.det(P.factor.T @ (g.values[:, None] * P.factor)))


def reweighted_distribution(g: WeightFunction, probs) -> tuple[np.ndarray, float]:
    """Reweight a complete configuration law by psi_g and renormalize.

    ``probs[mask]`` is the probability of the configuration with occupancy
    bitmask ``mask``, for all 2^n masks.  Returns the renormalized law and
    its total mass E[psi_g] before renormalization.  The psi_g table is
    built by doubling, psi[m + 2^i] = psi[m] g_i for m < 2^i, which
    multiplies the weights of each configuration in increasing index
    order, as :func:`psi_g` does, so it equals
    ``psi_g(g, Samples(g.space, occupancy_table(n)))`` bit for bit.
    A weight without role 'g' raises ``ValueError``.  The law's size is
    checked before anything is allocated: a law whose length is not 2^n
    raises :class:`DimensionError`, and n above
    ``MAX_ENUMERATION_POINTS`` raises :class:`EnumerationSizeError`.  A law
    with a negative, NaN or infinite entry raises :class:`ContractError`.
    """
    _check_conditioning_weight(g)
    n = g.space.n
    probs = _law_array(probs, n)
    _check_law_size(n)
    lo, hi = probs.min(), probs.max()  # a NaN is both
    if not (lo >= 0.0 and hi < math.inf):
        raise ContractError(f"not a configuration law: its entries range over [{lo:.6g}, {hi:.6g}]")
    weighted = np.empty(2**n)
    weighted[0] = 1.0
    for i, gi in enumerate(g.values):
        np.multiply(weighted[: 1 << i], gi, out=weighted[1 << i : 2 << i])
    weighted *= probs
    total = float(weighted.sum())
    if total <= 1e-12:
        raise ConditioningImpossibleError("reweighted table has vanishing total mass")
    weighted /= total
    return weighted, total
