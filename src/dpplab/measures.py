"""Embedding configurations into finite measures, tightness and two-sample diagnostics.

A configuration X is mapped to the atomic measure sum_{x in X} f(x) delta_x.
Families of kernels are screened for tightness through the traces
tr(sqrt(f) K sqrt(f)) and their tail compressions; sampled ensembles are
compared through the joint laws of integrals against disjointly supported
test functions, using the energy distance with permutation calibration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conditioning import WeightFunction, check_inducibility
from .dpp import Configuration, DppDistribution, Samples
from .errors import ContractError, DimensionError
from .ground import GroundSpace, Window
from .operators import (
    _RESIDUAL_RATIO_LIMIT,
    KernelOperator,
    Projection,
    _check_same_space,
    _gram_schmidt,
    counting_diagonal,
    is_positive_contraction,
)
from .tables import csv_text

#: Sup-of-tail-traces level under which a family counts as tight.
TAIL_TOLERANCE = 1e-8

#: Final permutation p-value a weak-convergence verdict must exceed.
P_VALUE_THRESHOLD = 0.01

#: Permutation-test ties: a permuted split scores as a hit when its energy
#: statistic reaches the observed one less this multiple of the mean pooled
#: distance, so splits that tie mathematically count however their sums round.
TIE_TOLERANCE = 1e-9


@dataclass(frozen=True, eq=False)
class FiniteMeasure:
    """Nonnegative atomic measure on the grid."""

    space: GroundSpace
    atoms: np.ndarray

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=float).copy()
        if atoms.shape != (self.space.n,):
            raise DimensionError(f"measure needs {self.space.n} atom masses")
        if np.any(atoms < 0):
            raise ValueError("atom masses must be nonnegative")
        atoms.flags.writeable = False
        object.__setattr__(self, "atoms", atoms)

    @property
    def total_mass(self) -> float:
        return float(self.atoms.sum())

    def mass_on(self, window: Window) -> float:
        window.validate(self.space)
        return float(self.atoms[window.index_set].sum())


def sigma_f(X: Configuration, f: WeightFunction) -> FiniteMeasure:
    """The embedding X -> sum_{x in X} f(x) delta_x."""
    atoms = np.zeros(f.space.n)
    idx = sorted(X.occupied)
    atoms[idx] = f.values[idx]
    return FiniteMeasure(f.space, atoms)


def int_phi(eta: FiniteMeasure, phi) -> float:
    """The integral of a per-point function against an atomic measure."""
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (eta.space.n,):
        raise DimensionError(f"test function needs {eta.space.n} values")
    return float(np.sum(phi * eta.atoms))


def _weighted_diagonal(K: KernelOperator | Projection, f: WeightFunction) -> np.ndarray:
    """The diagonal of sqrt(f) Khat sqrt(f); its sum is tr(sqrt(f) K sqrt(f))."""
    _check_same_space(K.space, f.space)
    return counting_diagonal(K) * f.values


@dataclass(frozen=True, eq=False)
class TightnessRow:
    member: str
    trace: float
    tail_traces: tuple[float, ...]
    margin: float | None = None
    vector_masses: tuple[float, ...] = ()
    vector_tails: tuple[tuple[float, ...], ...] = ()
    min_vector_angle: float | None = None


@dataclass(frozen=True, eq=False)
class TightnessReport:
    rows: tuple[TightnessRow, ...]
    tail_window_ids: tuple[str, ...]
    sup_trace: float
    sup_tails: tuple[float, ...]
    uniform_margin: float | None
    angle_bound: float | None
    tight: bool

    def to_csv(self) -> str:
        header = ("member", "trace", *(f"tail_{w}" for w in self.tail_window_ids), "margin")
        return csv_text(header, ((r.member, r.trace, *r.tail_traces, r.margin) for r in self.rows))


def tightness_report(
    kernels: list[KernelOperator],
    f: WeightFunction,
    tail_windows: list[Window],
    g: WeightFunction | None = None,
    extra_vectors=None,
) -> TightnessReport:
    """Screen a family of positive contractions for tightness of the embedded laws.

    Each row reports tr(sqrt(f) K sqrt(f)) and its compressions to the tail
    windows; optionally the conditioning margin 1 - ||sqrt(1-g) K|| per member and
    the masses/tails of the deformation-vector measures f |v|^2 w and their least angle
    to the range and the vectors before them, where a residual ratio below
    ``orthonormalize``'s limit raises :class:`ContractError`.  Both options take each
    member as a projection (see ``Projection.from_kernel``).  The family
    is declared tight when the traces are finite (always, here) and the last
    (smallest) tail's supremum over the family falls below ``TAIL_TOLERANCE``.
    """
    if not kernels:
        raise ValueError("empty kernel family")
    for w in tail_windows:
        w.validate(kernels[0].space)
    rows = []
    for alpha, K in enumerate(kernels):
        diag = _weighted_diagonal(K, f)
        if not is_positive_contraction(K):
            raise ContractError(f"family member {alpha} is not a positive contraction")
        trace = float(diag.sum())
        tails = tuple(float(diag[w.index_set].sum()) for w in tail_windows)
        P = Projection.from_kernel(K) if g is not None or extra_vectors is not None else None
        margin = None
        if g is not None:
            margin = check_inducibility(g, P).margin
        vec_masses: tuple[float, ...] = ()
        vec_tails: tuple[tuple[float, ...], ...] = ()
        min_angle = None
        if extra_vectors is not None:
            vs = np.atleast_2d(np.asarray(extra_vectors[alpha], dtype=float))
            if vs.ndim != 2 or vs.shape[1] != K.space.n:
                raise DimensionError(f"deformation vectors of member {alpha} need {K.space.n} values each")
            masses = f.values * vs**2 * K.space.weights
            vec_masses = tuple(float(m.sum()) for m in masses)
            vec_tails = tuple(tuple(float(m[w.index_set].sum()) for w in tail_windows) for m in masses)
            angles = []
            for k, ratio, ang in _gram_schmidt(list(P.factor.T), vs * K.space.sqrt_weights, angles=True):
                if ratio < _RESIDUAL_RATIO_LIMIT:
                    raise ContractError(f"deformation vector {k} of member {alpha} is dependent on the range")
                angles.append(ang)
            min_angle = min(angles)
        rows.append(
            TightnessRow(
                member=f"K{alpha}",
                trace=trace,
                tail_traces=tails,
                margin=margin,
                vector_masses=vec_masses,
                vector_tails=vec_tails,
                min_vector_angle=min_angle,
            )
        )
    sup_trace = max(r.trace for r in rows)
    sup_tails = tuple(max(r.tail_traces[j] for r in rows) for j in range(len(tail_windows)))
    vanishing = min(sup_tails) < TAIL_TOLERANCE if sup_tails else True
    uniform_margin = min((r.margin for r in rows), default=None) if g is not None else None
    angle_bound = min((r.min_vector_angle for r in rows), default=None) if extra_vectors is not None else None
    return TightnessReport(
        rows=tuple(rows),
        tail_window_ids=tuple(w.description or f"tail{j}" for j, w in enumerate(tail_windows)),
        sup_trace=sup_trace,
        sup_tails=sup_tails,
        uniform_margin=uniform_margin,
        angle_bound=angle_bound,
        tight=bool(np.isfinite(sup_trace) and vanishing),
    )


@dataclass(frozen=True)
class MassBoundCheck:
    bound: float
    empirical: float
    slack: float
    passed: bool


def chebyshev_mass_bound_check(
    D: DppDistribution, f: WeightFunction, L: float, samples: Samples
) -> MassBoundCheck:
    """Markov/Chebyshev control of the embedded total mass against samples.

    ``bound`` = tr(sqrt(f) K sqrt(f)) / L dominates P(total sigma_f mass > L);
    the empirical exceedance fraction must stay below it up to 3 standard
    errors of the empirical proportion.
    """
    if L <= 0:
        raise ValueError("the mass level L must be positive")
    if len(samples) == 0:
        raise ValueError("no samples to check the mass bound against")
    trace = float(_weighted_diagonal(D.kernel, f).sum())
    bound = trace / L
    masses = linear_statistics(samples, f, np.ones(f.space.n))[:, 0]
    empirical = int(np.count_nonzero(masses > L)) / len(samples)
    p = max(empirical, 1.0 / len(samples))
    slack = 3.0 * float(np.sqrt(p * (1.0 - p) / len(samples)))
    return MassBoundCheck(bound, empirical, slack, empirical <= bound + slack)


def linear_statistics(samples: Samples, f: WeightFunction, phis) -> np.ndarray:
    """Matrix of Int_{phi_i}(sigma_f(X)) over samples; rows are samples.

    The product with the 0/1 occupancy array is an ``einsum``, which runs on
    the calling thread (see ``permutation_energy_test``).
    """
    _check_same_space(samples.space, f.space)
    phis = np.atleast_2d(np.asarray(phis, dtype=float))
    if phis.shape[1] != f.space.n:
        raise DimensionError(f"test functions need {f.space.n} values")
    return np.einsum("sn,kn->sk", samples.occupancy.astype(float), phis * f.values)


def energy_distance(X: np.ndarray, Y: np.ndarray) -> float:
    """Two-sample energy distance between point clouds in R^l."""
    dxy = _pairwise(X, Y)
    dxx = _pairwise(X, X)
    dyy = _pairwise(Y, Y)
    return float(2.0 * dxy.mean() - dxx.mean() - dyy.mean())


def _pairwise(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    diff = A[:, None, :] - B[None, :, :]
    return np.sqrt(np.sum(diff**2, axis=-1))


def _split_table(n: int, nx: int, permutations: int, rng) -> np.ndarray:
    """The (permutations + 1, n) table of X sides: row 0 holds the first ``nx`` rows, row k the k-th shuffle's.

    One ``rng.permuted`` call shuffles each row of a tiled ``arange(n)``
    with the Fisher-Yates draws of the k-th ``rng.permutation(n)``.  The
    table is int64 because numpy shuffles it on its fast path, where a
    bool one would take the slow generic path.
    """
    on_x = np.empty((permutations + 1, n), dtype=bool)
    on_x[0] = np.arange(n) < nx
    shuffled = np.tile(np.arange(n, dtype=np.int64), (permutations, 1))
    rng.permuted(shuffled, axis=1, out=shuffled)
    np.less(shuffled, nx, out=on_x[1:])
    return on_x


def permutation_energy_test(X: np.ndarray, Y: np.ndarray, permutations: int, rng) -> tuple[float, float]:
    """Observed energy distance and its permutation p-value (add-one convention).

    Each permutation is a shuffle of the pooled rows, X stacked over Y;
    the rows it sends below ``len(X)`` form the X side.  All of them come
    from one ``rng.permuted`` call along the rows of a (permutations, N)
    table, which on numpy 2.4 draws each row as ``rng.permutation(N)``
    would, one after another: the splits and the generator's end state are
    those of a loop of ``permutation`` calls.

    A split is scored from its count vector c over the m distinct pooled
    rows: with D the m x m distance matrix of those rows and t the
    pooled counts, the within-X, cross and within-Y distance sums are
    c'Dc, c'D(t - c) and (t - c)'D(t - c).  That costs O(N + m^2) per
    permutation for N pooled rows, and the N x N distance matrix is never
    formed.  The distinct rows come from one ``lexsort`` of the pooled
    rows, and the count vectors of all splits from one ``add.reduceat``
    over the columns of the split table taken in that order.  The products
    are ``einsum`` calls, which run on the calling thread: a BLAS product
    fans out to the BLAS threads and stalls whenever another process holds
    one of their cores.

    Tie rule: a permuted split counts as a hit when its statistic is at
    least the observed one less ``TIE_TOLERANCE`` times the mean pooled
    distance t'Dt / N^2.  Splits that tie mathematically, such as those
    with the observed count vector or, when len(X) == len(Y), the one that
    swaps the two sides, then count as hits however their sums round.
    """
    pooled = np.vstack([X, Y])
    n, nx = len(pooled), len(X)
    ny = n - nx
    # The distinct rows in lexicographic order, as np.unique(axis=0) finds
    # them: -0.0 equals 0.0 and every row holding a NaN is its own row.
    order = np.lexsort(pooled.T[::-1])
    ordered = pooled[order]
    new = np.ones(n, dtype=bool)
    new[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    starts = np.flatnonzero(new)
    D = _pairwise(ordered[starts], ordered[starts])
    on_x = _split_table(n, nx, permutations, rng)
    counts = np.add.reduceat(on_x[:, order], starts, axis=1, dtype=np.int32).astype(float)
    pooled_counts = np.diff(starts, append=n).astype(float)
    rest = pooled_counts - counts
    d_counts = np.einsum("ij,pj->pi", D, counts)
    d_pooled = np.einsum("ij,j->i", D, pooled_counts)
    sxx = np.einsum("pi,pi->p", counts, d_counts)
    sxy = np.einsum("pi,pi->p", rest, d_counts)
    syy = np.einsum("pi,pi->p", rest, d_pooled - d_counts)
    statistics = 2.0 * sxy / (nx * ny) - sxx / (nx * nx) - syy / (ny * ny)
    mean_distance = float(np.einsum("i,i->", pooled_counts, d_pooled)) / (n * n)
    observed = float(statistics[0])
    hits = int(np.count_nonzero(statistics[1:] >= observed - TIE_TOLERANCE * mean_distance))
    return observed, (hits + 1) / (permutations + 1)


def _check_disjoint_supports(phis: np.ndarray) -> None:
    support = phis != 0.0
    overlap = support.astype(int).sum(axis=0)
    if np.any(overlap > 1):
        raise ValueError("test functions must have pairwise disjoint supports")


@dataclass(frozen=True, eq=False)
class WeakConvergenceReport:
    steps: tuple
    statistics: tuple[float, ...]
    p_values: tuple[float, ...]
    decreasing: bool
    final_p_value: float
    verdict: bool

    def to_csv(self) -> str:
        return csv_text(("n", "energy_statistic", "p_value"), zip(self.steps, self.statistics, self.p_values))


def weak_convergence_test(
    samples_n: list[Samples],
    samples_limit: Samples,
    f: WeightFunction,
    phis,
    permutations: int = 199,
    seed: int = 0,
    steps=None,
) -> WeakConvergenceReport:
    """Compare sampled ensembles to a limit batch through embedded joint laws.

    For each batch, the joint empirical law of the integrals against the
    (disjointly supported) test functions is compared to the limit batch by
    the energy distance; the last batch additionally gets a permutation
    p-value.  Verdict: statistics decrease along the sequence and the final
    p-value exceeds ``P_VALUE_THRESHOLD``.
    """
    phis = np.atleast_2d(np.asarray(phis, dtype=float))
    _check_disjoint_supports(phis)
    if not samples_n:
        raise ValueError("empty batch sequence")
    sizes = {len(b) for b in samples_n} | {len(samples_limit)}
    if len(sizes) != 1:
        raise ValueError("all batches must have equal size")
    limit_stats = linear_statistics(samples_limit, f, phis)
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    statistics, p_values = [], []
    for batch in samples_n:
        batch_stats = linear_statistics(batch, f, phis)
        stat, p = permutation_energy_test(batch_stats, limit_stats, permutations, rng)
        statistics.append(stat)
        p_values.append(p)
    if steps is None:
        steps = tuple(range(1, len(samples_n) + 1))
    diffs = np.diff(statistics)
    decreasing = bool(np.all(diffs < 0)) if len(statistics) > 1 else True
    final_p = p_values[-1]
    return WeakConvergenceReport(
        steps=tuple(steps),
        statistics=tuple(statistics),
        p_values=tuple(p_values),
        decreasing=decreasing,
        final_p_value=final_p,
        verdict=decreasing and final_p > P_VALUE_THRESHOLD,
    )
