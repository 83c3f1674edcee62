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
from .dpp import Configuration, DppDistribution
from .errors import ContractError, DimensionError
from .ground import GroundSpace, Window
from .operators import KernelOperator, range_basis, subspace_angle

#: Default sup-of-tail-traces level under which a family counts as tight.
TAIL_TOLERANCE = 1e-8


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
        return float(self.atoms[list(window.index_set)].sum()) if window.index_set else 0.0


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


def _weighted_trace(khat: np.ndarray, f: np.ndarray, indices=None) -> float:
    diag = np.diag(khat) * f
    if indices is not None:
        diag = diag[list(indices)] if len(indices) else np.zeros(1)
    return float(diag.sum())


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
    bounded_trace: bool
    vanishing_tail: bool
    uniform_margin: float | None
    angle_bound: float | None
    tight: bool

    def to_csv(self) -> str:
        lines = ["member,trace," + ",".join(f"tail_{w}" for w in self.tail_window_ids) + ",margin"]
        for row in self.rows:
            tails = ",".join(f"{t:.17g}" for t in row.tail_traces)
            margin = "" if row.margin is None else f"{row.margin:.17g}"
            lines.append(f"{row.member},{row.trace:.17g},{tails},{margin}")
        return "\n".join(lines) + "\n"


def tightness_report(
    kernels: list[KernelOperator],
    f: WeightFunction,
    tail_windows: list[Window],
    g: WeightFunction | None = None,
    extra_vectors=None,
    tail_tol: float = TAIL_TOLERANCE,
) -> TightnessReport:
    """Screen a family of positive contractions for tightness of the embedded laws.

    Each row reports tr(sqrt(f) K sqrt(f)) and its compressions to the tail
    windows; optionally the conditioning margin 1 - ||sqrt(1-g) K|| per member and
    the masses/tails of the deformation-vector measures f |v|^2 w.  The family
    is declared tight when the traces are finite (always, here) and the last
    (smallest) tail's supremum over the family falls below ``tail_tol``.
    """
    if not kernels:
        raise ValueError("empty kernel family")
    for w in tail_windows:
        w.validate(kernels[0].space)
    rows = []
    for alpha, K in enumerate(kernels):
        eigvals = np.linalg.eigvalsh(K.counting)
        if eigvals[0] < -1e-8 or eigvals[-1] > 1.0 + 1e-8:
            raise ContractError(f"family member {alpha} is not a positive contraction")
        khat = K.counting
        trace = _weighted_trace(khat, f.values)
        tails = tuple(_weighted_trace(khat, f.values, w.index_set) for w in tail_windows)
        margin = None
        if g is not None:
            margin = check_inducibility(g, K).margin
        vec_masses: tuple[float, ...] = ()
        vec_tails: tuple[tuple[float, ...], ...] = ()
        min_angle = None
        if extra_vectors is not None:
            vs = np.atleast_2d(np.asarray(extra_vectors[alpha], dtype=float))
            masses = f.values * vs**2 * K.space.weights
            vec_masses = tuple(float(m.sum()) for m in masses)
            vec_tails = tuple(
                tuple(float(m[list(w.index_set)].sum()) if len(w) else 0.0 for w in tail_windows)
                for m in masses
            )
            basis = range_basis(K)
            angles = []
            for k in range(len(vs)):
                current = np.vstack([basis] + [vs[j] for j in range(k)]) if k else basis
                angles.append(subspace_angle(vs[k : k + 1], current, K.space))
            min_angle = float(min(angles))
            if min_angle <= 0.0:
                raise ContractError(f"deformation vectors of member {alpha} are dependent on the range")
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
    vanishing = (min(sup_tails) < tail_tol) if sup_tails else True
    uniform_margin = min((r.margin for r in rows), default=None) if g is not None else None
    angle_bound = min((r.min_vector_angle for r in rows), default=None) if extra_vectors is not None else None
    bounded = np.isfinite(sup_trace)
    return TightnessReport(
        rows=tuple(rows),
        tail_window_ids=tuple(w.description or f"tail{j}" for j, w in enumerate(tail_windows)),
        sup_trace=sup_trace,
        sup_tails=sup_tails,
        bounded_trace=bool(bounded),
        vanishing_tail=bool(vanishing),
        uniform_margin=uniform_margin,
        angle_bound=angle_bound,
        tight=bool(bounded and vanishing),
    )


@dataclass(frozen=True)
class MassBoundCheck:
    bound: float
    empirical: float
    slack: float
    passed: bool


def chebyshev_mass_bound_check(
    D: DppDistribution, f: WeightFunction, L: float, samples: list[Configuration]
) -> MassBoundCheck:
    """Markov/Chebyshev control of the embedded total mass against samples.

    ``bound`` = tr(sqrt(f) K sqrt(f)) / L dominates P(total sigma_f mass > L);
    the empirical exceedance fraction must stay below it up to 3 standard
    errors of the empirical proportion.
    """
    if L <= 0:
        raise ValueError("the mass level L must be positive")
    trace = _weighted_trace(D.kernel.counting, f.values)
    bound = trace / L
    exceed = sum(1 for X in samples if sigma_f(X, f).total_mass > L)
    empirical = exceed / len(samples)
    p = max(empirical, 1.0 / len(samples))
    slack = 3.0 * float(np.sqrt(p * (1.0 - p) / len(samples)))
    return MassBoundCheck(bound, empirical, slack, empirical <= bound + slack)


def linear_statistics(samples: list[Configuration], f: WeightFunction, phis) -> np.ndarray:
    """Matrix of Int_{phi_i}(sigma_f(X)) over samples; rows are samples."""
    phis = np.atleast_2d(np.asarray(phis, dtype=float))
    out = np.zeros((len(samples), phis.shape[0]))
    weighted = phis * f.values
    for i, X in enumerate(samples):
        idx = sorted(X.occupied)
        if idx:
            out[i] = weighted[:, idx].sum(axis=1)
    return out


def energy_distance(X: np.ndarray, Y: np.ndarray) -> float:
    """Two-sample energy distance between point clouds in R^l."""
    dxy = _pairwise(X, Y)
    dxx = _pairwise(X, X)
    dyy = _pairwise(Y, Y)
    return float(2.0 * dxy.mean() - dxx.mean() - dyy.mean())


def _pairwise(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    diff = A[:, None, :] - B[None, :, :]
    return np.sqrt(np.sum(diff**2, axis=-1))


def _energy_statistic_from_matrix(D: np.ndarray, total: float, mask: np.ndarray) -> float:
    """Energy distance read off a pooled distance matrix with entry sum ``total`` for a 0/1 split mask.

    The product with D is an ``einsum``, which runs on the calling thread:
    a BLAS product fans out to the BLAS threads once per permutation and
    stalls whenever another process holds one of their cores.
    """
    nx = int(mask.sum())
    ny = len(mask) - nx
    col = np.einsum("ij,j->i", D, mask)
    sxy = float(col @ (1.0 - mask))
    sxx = float(col @ mask)
    syy = float(total - 2.0 * sxy - sxx)
    return 2.0 * sxy / (nx * ny) - sxx / (nx * nx) - syy / (ny * ny)


def permutation_energy_test(X: np.ndarray, Y: np.ndarray, permutations: int, rng) -> tuple[float, float]:
    """Observed energy distance and its permutation p-value (add-one convention)."""
    pooled = np.vstack([X, Y])
    D = _pairwise(pooled, pooled)
    total = D.sum()
    mask = np.zeros(len(pooled))
    mask[: len(X)] = 1.0
    observed = _energy_statistic_from_matrix(D, total, mask)
    hits = 0
    for _ in range(permutations):
        perm = rng.permutation(len(pooled))
        if _energy_statistic_from_matrix(D, total, mask[perm]) >= observed:
            hits += 1
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
        lines = ["n,energy_statistic,p_value"]
        for s, e, p in zip(self.steps, self.statistics, self.p_values):
            lines.append(f"{s},{e:.17g},{p:.17g}")
        return "\n".join(lines) + "\n"


def weak_convergence_test(
    samples_n: list[list[Configuration]],
    samples_limit: list[Configuration],
    f: WeightFunction,
    phis,
    permutations: int = 199,
    seed: int = 0,
    p_threshold: float = 0.01,
    steps=None,
) -> WeakConvergenceReport:
    """Compare sampled ensembles to a limit batch through embedded joint laws.

    For each batch, the joint empirical law of the integrals against the
    (disjointly supported) test functions is compared to the limit batch by
    the energy distance; the last batch additionally gets a permutation
    p-value.  Verdict: statistics decrease along the sequence and the final
    p-value clears ``p_threshold``.
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
        verdict=decreasing and final_p > p_threshold,
    )
