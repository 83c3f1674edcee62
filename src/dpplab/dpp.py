"""Determinantal probability measures on a finite ground space.

Exact configuration probabilities, a brute-force enumeration oracle,
spectral exact sampling, correlation minors and intensities, all driven
by the counting form of the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import ContractError, DimensionError, EnumerationSizeError
from .ground import GroundSpace
from .operators import KernelOperator

#: Eigenvalues of the counting form may stray this far outside [0, 1]
#: (machine noise from spectral factorizations of projections).
SPECTRUM_TOLERANCE = 1e-10

#: Identifier of the counter-based random source used by the sampler.
#: Replica i of a run with seed s uses an independent Philox stream keyed
#: by (s, i); merging replicas is therefore order-independent.
RNG_ALGORITHM = "numpy.random.Philox(key=[seed, replica])"

#: Largest ground space accepted by the exhaustive oracle (2^n configurations).
MAX_ENUMERATION_POINTS = 20


@dataclass(frozen=True, eq=False)
class Configuration:
    """A simple finite point configuration: a set of occupied grid indices."""

    space: GroundSpace
    occupied: frozenset[int]

    def __post_init__(self):
        occupied = frozenset(int(i) for i in self.occupied)
        if occupied and (min(occupied) < 0 or max(occupied) >= self.space.n):
            raise DimensionError("occupied indices out of bounds")
        object.__setattr__(self, "occupied", occupied)

    @property
    def bitmask(self) -> int:
        return sum(1 << i for i in self.occupied)

    def __len__(self) -> int:
        return len(self.occupied)

    def sorted_indices(self) -> tuple[int, ...]:
        return tuple(sorted(self.occupied))

    @classmethod
    def from_bitmask(cls, space: GroundSpace, mask: int) -> "Configuration":
        return cls(space, frozenset(i for i in range(space.n) if mask >> i & 1))


class DppDistribution:
    """Determinantal measure given by a positive-contraction kernel."""

    def __init__(self, kernel: KernelOperator):
        self.kernel = kernel
        eigvals, eigvecs = np.linalg.eigh(kernel.counting)
        if eigvals[0] < -SPECTRUM_TOLERANCE or eigvals[-1] > 1.0 + SPECTRUM_TOLERANCE:
            raise ContractError(
                f"kernel spectrum [{eigvals[0]:.3e}, {eigvals[-1]:.3e}] is not a contraction"
            )
        self.eigenvalues = np.clip(eigvals, 0.0, 1.0)
        self.eigenvectors = eigvecs

    @property
    def space(self) -> GroundSpace:
        return self.kernel.space

    def rank(self, tol: float = 1e-8) -> int:
        return int(np.sum(self.eigenvalues > 1.0 - tol))

    def is_projection(self) -> bool:
        return bool(np.all((self.eigenvalues < 1e-8) | (self.eigenvalues > 1.0 - 1e-8)))


def correlation(D: DppDistribution, A) -> float:
    """Inclusion probability rho(A) = P(A subset of X) = det Khat_A."""
    idx = sorted(int(i) for i in A)
    if not idx:
        return 1.0
    block = D.kernel.counting[np.ix_(idx, idx)]
    return float(np.linalg.det(block))


def occupancy_table(n: int) -> np.ndarray:
    """The (2^n, n) 0/1 table whose row ``mask`` lists the points occupied in that bitmask."""
    masks = np.arange(2**n, dtype=np.uint32)
    return (masks[:, None] >> np.arange(n)) & 1


def brute_force_distribution(D: DppDistribution) -> dict[int, float]:
    """Exact probability of every configuration, keyed by occupancy bitmask.

    Uses the block identity P(X = S) = (-1)^{n - |S|} det(Khat - I_{S^c}),
    evaluated for all 2^n subsets in one stacked determinant call.
    """
    n = D.space.n
    if n > MAX_ENUMERATION_POINTS:
        raise EnumerationSizeError(f"{n} points exceed the enumeration limit {MAX_ENUMERATION_POINTS}")
    occupancy = occupancy_table(n)
    signs = np.where((n - occupancy.sum(axis=1)) % 2, -1.0, 1.0)
    probs = np.empty(2**n)
    idx = np.arange(n)
    chunk = 1 << 14  # cap the stacked-determinant workspace
    for start in range(0, 2**n, chunk):
        occ = occupancy[start : start + chunk]
        stacked = np.broadcast_to(D.kernel.counting, (len(occ), n, n)).copy()
        stacked[:, idx, idx] -= 1.0 - occ
        probs[start : start + len(occ)] = np.linalg.det(stacked)
    probs *= signs
    if probs.min() < -1e-12:
        raise ContractError(f"negative configuration probability {probs.min():.3e}")
    probs = np.clip(probs, 0.0, None)
    total = probs.sum()
    if abs(total - 1.0) > 1e-10:
        raise ContractError(f"configuration probabilities sum to {total!r}")
    return {int(mask): float(p) for mask, p in enumerate(probs)}


def total_variation(p: dict[int, float], q: dict[int, float]) -> float:
    """Half the l1 distance between two configuration tables; missing keys count as 0."""
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def _sample_projection(rng: np.random.Generator, V: np.ndarray) -> list[int]:
    """One draw from the projection DPP with orthonormal column span V (n x k)."""
    chosen: list[int] = []
    V = V.copy()
    while V.shape[1] > 0:
        k = V.shape[1]
        p = np.sum(V**2, axis=1) / k
        i = int(rng.choice(len(p), p=p / p.sum()))
        chosen.append(i)
        # Restrict the span to functions vanishing at i, then re-orthonormalize.
        j = int(np.argmax(np.abs(V[i])))
        pivot = V[:, j].copy()
        V = np.delete(V, j, axis=1)
        V -= np.outer(pivot, V[i] / pivot[i])
        if V.shape[1] > 0:
            V, _ = np.linalg.qr(V)
    return chosen


def sample(D: DppDistribution, seed: int, count: int) -> list[Configuration]:
    """Draw exact i.i.d. samples via the spectral algorithm.

    Eigenvectors are kept or dropped by independent Bernoulli(lambda_i)
    coin flips, then the resulting projection process is sampled point by
    point.  Each replica uses its own counter-based stream (see
    ``RNG_ALGORITHM``), so results are reproducible and merge-order free.
    """
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    eigvals = D.eigenvalues
    eigvecs = D.eigenvectors
    out = []
    for replica in range(count):
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, replica], dtype=np.uint64)))
        keep = rng.random(len(eigvals)) < eigvals
        V = eigvecs[:, keep]
        chosen = _sample_projection(rng, V) if V.shape[1] else []
        out.append(Configuration(D.space, frozenset(chosen)))
    return out


def intensity(D: DppDistribution):
    """First moment measure: atom K(x, x) w_x at each grid point."""
    from .measures import FiniteMeasure  # local import to avoid a cycle

    atoms = np.diag(D.kernel.entries) * D.space.weights
    return FiniteMeasure(D.space, np.clip(atoms, 0.0, None))


def empirical_distribution(samples: list[Configuration]) -> dict[int, float]:
    table: dict[int, float] = {}
    for X in samples:
        table[X.bitmask] = table.get(X.bitmask, 0.0) + 1.0
    return {k: v / len(samples) for k, v in table.items()}


def chi_square_gof(samples: list[Configuration], expected: dict[int, float], min_expected: float = 5.0):
    """Chi-square goodness of fit of sampled configurations against an exact table.

    Categories with expected count below ``min_expected`` are pooled into
    a single tail bin.  Returns (statistic, dof, p_value).
    """
    from scipy import stats

    n_samples = len(samples)
    observed: dict[int, int] = {}
    for X in samples:
        observed[X.bitmask] = observed.get(X.bitmask, 0) + 1
    exp_counts, obs_counts = [], []
    tail_exp = tail_obs = 0.0
    for mask, p in expected.items():
        e = p * n_samples
        o = observed.get(mask, 0)
        if e < min_expected:
            tail_exp += e
            tail_obs += o
        else:
            exp_counts.append(e)
            obs_counts.append(o)
    if tail_exp > 0:
        exp_counts.append(tail_exp)
        obs_counts.append(tail_obs)
    exp_arr = np.asarray(exp_counts)
    obs_arr = np.asarray(obs_counts)
    exp_arr *= obs_arr.sum() / exp_arr.sum()  # guard tiny truncation of the table
    stat = float(np.sum((obs_arr - exp_arr) ** 2 / exp_arr))
    dof = max(len(exp_arr) - 1, 1)
    return stat, dof, float(stats.chi2.sf(stat, dof))


def configurations_of_size(space: GroundSpace, k: int):
    for idx in combinations(range(space.n), k):
        yield Configuration(space, frozenset(idx))
