"""Kernel operators on a weighted grid and their norm diagnostics.

Kernels are stored relative to the grid measure: ``entries[i, j]`` is
``K(x_i, x_j)``.  All spectral and determinantal work happens on the
symmetrized counting form ``Khat = W^{1/2} K W^{1/2}``, under which
composition of kernels becomes plain matrix multiplication and the
weighted inner product becomes the Euclidean one.

Orthogonal projections of finite rank r are held as a :class:`Projection`:
an orthonormal n x r counting-coordinate factor U with ``Phat = U U^T``.
Every operation on projections works on U at O(n r^2) cost; the dense
n x n form is built only when it is read.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ContractError, DegenerateBasisError, DimensionError
from .ground import GroundSpace, Window
from .tables import csv_text, step_labels, window_labels

#: Residual-norm ratio below which a spanning vector counts as dependent on its
#: predecessors: a Gram condition number above 1e12 (the ratio's inverse square).
_RESIDUAL_RATIO_LIMIT = 1e-6
#: Norms in this open range are taken from a vector as it is (see ``scaled_norm``):
#: their squares, and those of residuals down to _RESIDUAL_RATIO_LIMIT times them,
#: neither overflow nor underflow.
SAFE_NORM_RANGE = (2.0**-400, 2.0**400)
#: Tolerance for the orthonormality check max|U^T U - I| of projection factors,
#: and for the idempotence check max|Khat^2 - Khat| of a dense kernel taken as a projection.
PROJECTION_TOLERANCE = 1e-10


def _check_same_space(a: GroundSpace, b: GroundSpace) -> None:
    if b is not a and not (np.array_equal(a.points, b.points) and np.array_equal(a.weights, b.weights)):
        raise DimensionError("the arguments live on different ground spaces")


def _measure_entries(space: GroundSpace, counting: np.ndarray) -> np.ndarray:
    """The kernel relative to the measure, W^{-1/2} Khat W^{-1/2}, of a counting form Khat."""
    inv = 1.0 / space.sqrt_weights
    return counting * (inv[:, None] * inv)


@dataclass(frozen=True, eq=False)
class KernelOperator:
    """Real symmetric kernel on a ground space, stored relative to the measure."""

    space: GroundSpace
    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        n = self.space.n
        if entries.shape != (n, n):
            raise DimensionError(f"kernel entries must be {n}x{n}")
        peak = float(np.max(np.abs(entries)))
        if not np.isfinite(peak):
            raise ContractError("kernel entries must be finite")
        scale = max(peak, 1.0)
        if np.max(np.abs(entries - entries.T)) > 1e-8 * scale:
            raise ContractError("kernel entries are not symmetric")
        entries = (entries + entries.T) / 2.0  # exact symmetry by construction
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)

    @property
    def n(self) -> int:
        return self.space.n

    @cached_property
    def counting(self) -> np.ndarray:
        """The symmetrized counting form W^{1/2} K W^{1/2}."""
        sw = self.space.sqrt_weights
        counting = self.entries * (sw[:, None] * sw)
        counting.flags.writeable = False
        return counting

    @classmethod
    def from_counting(cls, space: GroundSpace, counting: np.ndarray) -> "KernelOperator":
        return cls(space, _measure_entries(space, np.asarray(counting, dtype=float)))


def _orthonormality_residual(U: np.ndarray) -> float:
    """max|U^T U - I| of an n x r factor, 0 when r = 0."""
    gram = U.T @ U
    gram.ravel()[:: U.shape[1] + 1] -= 1.0  # the diagonal, through a view of the fresh C-order Gram
    return float(np.abs(gram).max(initial=0.0))


@dataclass(frozen=True, eq=False)
class Projection:
    """Orthogonal projection held as an orthonormal counting-coordinate factor.

    ``factor`` is an n x r matrix U with orthonormal columns, and the
    counting form of the projection is ``U U^T``.  Construction checks
    max|U^T U - I| against ``PROJECTION_TOLERANCE`` and raises
    :class:`ContractError` beyond it.  ``counting`` and ``entries`` are
    the dense forms a :class:`KernelOperator` carries, built on first read.
    """

    space: GroundSpace
    factor: np.ndarray

    def __post_init__(self):
        factor = np.array(self.factor, dtype=float)  # a copy in the memory order of the input
        if factor.ndim != 2 or factor.shape[0] != self.space.n:
            raise DimensionError(f"projection factor must have {self.space.n} rows")
        residual = _orthonormality_residual(factor)
        if not residual < PROJECTION_TOLERANCE:
            raise ContractError(f"projection factor is not orthonormal: max|U^T U - I| = {residual:.3e}")
        factor.flags.writeable = False
        object.__setattr__(self, "factor", factor)

    @property
    def n(self) -> int:
        return self.space.n

    @property
    def rank(self) -> int:
        return self.factor.shape[1]

    @cached_property
    def counting(self) -> np.ndarray:
        """The dense counting form U U^T."""
        counting = self.factor @ self.factor.T
        counting.flags.writeable = False
        return counting

    @cached_property
    def entries(self) -> np.ndarray:
        """The dense kernel relative to the measure, as ``KernelOperator.from_counting`` forms it from ``counting``.

        U U^T is formed here rather than read from ``counting``: before Python 3.12 the first read
        of a ``cached_property`` takes a lock, which costs more than the product at n <= 10.  The
        bytes are the same either way; a caller reading both forms the product twice, so once
        the supported floor is Python 3.12 this should read ``counting`` again.
        """
        entries = _measure_entries(self.space, self.factor @ self.factor.T)
        entries.flags.writeable = False
        return entries

    @classmethod
    def from_kernel(cls, K) -> "Projection":
        """The projection a dense kernel holds, factored by the eigenvectors of its counting form.

        Raises :class:`ContractError` unless max|Khat^2 - Khat| < ``PROJECTION_TOLERANCE``.
        A :class:`Projection` is returned as it is.
        """
        if isinstance(K, Projection):
            return K
        khat = K.counting
        if not float(np.max(np.abs(khat @ khat - khat))) < PROJECTION_TOLERANCE:
            raise ContractError("operator is not a projection within tolerance")
        eigvals, eigvecs = np.linalg.eigh(khat)
        return cls(K.space, eigvecs[:, eigvals > 0.5])


@dataclass(frozen=True)
class OperatorNorms:
    operator_norm: float
    hs_norm: float
    trace_norm: float
    trace: float


def norms(K: KernelOperator) -> OperatorNorms:
    """Operator, Hilbert-Schmidt and trace norms of the counting form, plus the trace."""
    khat = K.counting
    singular = np.linalg.svd(khat, compute_uv=False)
    trace = float(np.sum(np.diag(K.entries) * K.space.weights))
    return OperatorNorms(
        operator_norm=float(singular[0]) if singular.size else 0.0,
        hs_norm=float(np.linalg.norm(khat)),
        trace_norm=float(np.sum(singular)),
        trace=trace,
    )


def counting_diagonal(K: KernelOperator | Projection) -> np.ndarray:
    """The diagonal of the counting form; a :class:`Projection`'s is the squared row norms of its factor."""
    if isinstance(K, Projection):
        return np.sum(K.factor**2, axis=1)
    return np.diag(K.counting)


def local_trace_norm(K: KernelOperator, A: Window) -> float:
    """Trace norm of the counting-form block chi_A Khat chi_A, the sum of its absolute eigenvalues."""
    A.validate(K.space)
    if len(A) == 0:
        warnings.warn("empty window in local_trace_norm, returning 0", stacklevel=2)
        return 0.0
    block = K.counting[np.ix_(A.index_set, A.index_set)]
    return float(np.sum(np.abs(np.linalg.eigvalsh(block))))


def projection_distance(P: Projection, Q: Projection, A: Window) -> float:
    """Trace norm of chi_A (Phat - Qhat) chi_A, from the factors restricted to the window.

    With M = [U_A, V_A] = Q_M R (reduced QR) and S = diag(I, -I), the block
    is M S M^T = Q_M (R S R^T) Q_M^T, so its nonzero eigenvalues are those
    of the small matrix R S R^T.
    """
    _check_same_space(P.space, Q.space)
    A.validate(P.space)
    if len(A) == 0:
        warnings.warn("empty window in projection_distance, returning 0", stacklevel=2)
        return 0.0
    R = np.linalg.qr(np.hstack([P.factor[A.index_set], Q.factor[A.index_set]]), mode="r")
    signs = np.ones(P.rank + Q.rank)
    signs[P.rank :] = -1.0
    return float(np.sum(np.abs(np.linalg.eigvalsh((R * signs) @ R.T))))


def _norm(x: np.ndarray) -> float:
    """The Euclidean norm of a 1-D float array: sqrt(x . x), as ``np.linalg.norm`` takes it of a contiguous x.

    BLAS sums a strided x in another order than ``np.linalg.norm``, which copies it first.
    """
    return math.sqrt(x.dot(x))


def scaled_norm(v: np.ndarray) -> tuple[np.ndarray, float]:
    """A vector and its Euclidean norm, rescaled first when that norm would over- or underflow.

    When the norm of ``v`` as given lies outside ``SAFE_NORM_RANGE``, ``v``
    is divided by the least power of two above its max-abs entry and the
    norm is taken again.  Dividing by a power of two is exact (only entries
    below 2^-1022 times the peak lose bits), so ratios of norms, and every
    result built from them, do not depend on the vector's scale.  The norm
    is finite exactly when ``v`` is.  The first norm comes from ``np.vdot``,
    the same BLAS dot product as ``_norm``'s, after which numpy checks no
    floating-point flag: an overflow shows as inf, with no warning, and takes
    the rescaling branch.  No ``np.errstate`` is entered; on short vectors that
    would cost more than the dot product itself.
    """
    norm = math.sqrt(np.vdot(v, v))
    if SAFE_NORM_RANGE[0] < norm < SAFE_NORM_RANGE[1]:
        return v, norm
    _, exponent = np.frexp(np.abs(v).max())
    v = np.ldexp(v, -exponent)
    return v, _norm(v)


def _gram_schmidt(rows: list, hat: np.ndarray, angles: bool = False):
    """Modified Gram-Schmidt with re-orthogonalization, appending unit residuals to orthonormal ``rows``.

    For each counting-coordinate vector v of ``hat`` it yields ``(k, ratio, angle)`` before
    appending; a caller rejects v by raising.  With r the residual of two passes and norms
    by :func:`scaled_norm`, ``ratio`` is ||r|| / ||v|| and ``angle``, computed only when
    ``angles`` is set, is arctan2(||r||, ||v - r||), exact near 0 and pi/2.  A zero v gives 0, 0.
    A v with a NaN or infinite entry raises ``ValueError`` naming its index k.
    """
    for k, v in enumerate(hat):
        v, original = scaled_norm(v)
        if not math.isfinite(original):
            raise ValueError(f"vector {k} has a non-finite entry")
        r = v.copy()
        for _ in range(2):  # second pass restores orthogonality at near-collinearity
            for q in rows:
                r -= q.dot(r) * q
        residual = _norm(r)
        ratio = residual / original if original else 0.0
        ang = float(np.arctan2(residual, _norm(v - r))) if angles else None
        yield k, ratio, ang
        rows.append(r / residual)


def orthonormalize(basis, space: GroundSpace) -> np.ndarray:
    """Orthonormal rows in counting coordinates spanning the basis, by :func:`_gram_schmidt`.

    The result does not depend on the vectors' scales.  Raises :class:`DegenerateBasisError`
    when a vector is zero or numerically dependent on its predecessors: its residual ratio
    falls below ``_RESIDUAL_RATIO_LIMIT`` = 1e-6, i.e. the Gram condition number would
    exceed 1e12.
    """
    basis = np.atleast_2d(np.asarray(basis, dtype=float))
    if basis.shape[1] != space.n:
        raise DimensionError("basis vectors must have one value per grid point")
    rows = []
    for k, ratio, _ in _gram_schmidt(rows, basis * space.sqrt_weights):
        if ratio < _RESIDUAL_RATIO_LIMIT:
            raise DegenerateBasisError(k, None if basis[k].any() else f"basis vector {k} is zero")
    return np.array(rows).reshape(len(rows), space.n)


def project_span(basis, space: GroundSpace) -> Projection:
    """Orthogonal projection (weighted inner product) onto the span of the basis; rank 0 for an empty basis."""
    return Projection(space, orthonormalize(basis, space).T)


def angle(v, P: Projection) -> float:
    """Angle between a vector and the range of a projection, arctan2(||(I-P)v||, ||Pv||)."""
    v = np.asarray(v, dtype=float)
    if v.shape != (P.n,):
        raise DimensionError(f"vector must have length {P.n}")
    if not v.any():
        raise ValueError("angle of the zero vector is undefined")
    return next(_gram_schmidt(list(P.factor.T), v[None] * P.space.sqrt_weights, angles=True))[2]


def subspace_angle(basis_a, basis_b, space: GroundSpace) -> float:
    """Smallest principal angle between the spans of two bases.

    Its cosine is the largest singular value of qa qb^T and its sine the
    smallest singular value of qa's residual off the span of qb, for
    orthonormal rows qa and qb; ``arctan2`` of the two resolves the angle
    to full precision near 0 and near pi/2 alike, where arccos or arcsin
    alone would lose digits.  An empty span gives pi/2, as ``angle`` does.
    """
    qa = orthonormalize(basis_a, space)
    qb = orthonormalize(basis_b, space)
    if not len(qa) or not len(qb):
        return float(np.pi / 2)
    overlap = qa @ qb.T
    cos = np.linalg.svd(overlap, compute_uv=False)[0]
    sin = np.linalg.svd(qa - overlap @ qb, compute_uv=False)[-1]
    return float(np.arctan2(sin, cos))


@dataclass(frozen=True, eq=False)
class ConvergenceReport:
    """Windowed trace distances of a sequence of operators to a target.

    ``distances[i, j]`` is the distance of the i-th member on the j-th
    window; ``steps`` carries the sequence labels (n values).
    """

    steps: tuple
    window_ids: tuple[str, ...]
    distances: np.ndarray

    def __post_init__(self):
        distances = np.asarray(self.distances, dtype=float)
        if distances.shape != (len(self.steps), len(self.window_ids)):
            raise DimensionError("distance table shape does not match steps x windows")
        distances.flags.writeable = False
        object.__setattr__(self, "distances", distances)

    def last_values(self) -> dict[str, float]:
        return {w: float(self.distances[-1, j]) for j, w in enumerate(self.window_ids)}

    def monotone_flags(self) -> dict[str, bool]:
        """Whether each window's distance column is strictly decreasing."""
        return {w: bool(np.all(np.diff(self.distances[:, j]) < 0)) for j, w in enumerate(self.window_ids)}

    @property
    def verdict(self) -> bool:
        """Whether every window's distance column is strictly decreasing."""
        return all(self.monotone_flags().values())

    def to_csv(self) -> str:
        rows = ((n, w, d) for n, ds in zip(self.steps, self.distances) for w, d in zip(self.window_ids, ds))
        return csv_text(("n", "window_id", "distance"), rows)


def convergence_report(
    sequence: list[KernelOperator | Projection],
    target: KernelOperator | Projection,
    windows: list[Window],
    steps=None,
) -> ConvergenceReport:
    """Tabulate local trace distances of each sequence member to the target: two :class:`Projection` on
    their factors, any other pair densely; a member on another space raises :class:`DimensionError`."""
    if not sequence:
        raise ValueError("empty operator sequence")
    steps = step_labels(steps, len(sequence))
    table = np.empty((len(sequence), len(windows)))
    for i, K in enumerate(sequence):
        _check_same_space(K.space, target.space)
        if isinstance(K, Projection) and isinstance(target, Projection):
            table[i] = [projection_distance(K, target, w) for w in windows]
        else:
            diff = KernelOperator(K.space, K.entries - target.entries)
            table[i] = [local_trace_norm(diff, w) for w in windows]
    return ConvergenceReport(steps, window_labels(windows, "w"), table)
