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
#: Replica i of a run with seed s reads the uniforms of an independent
#: Philox stream keyed by (s, i), as ``Generator.random`` produces them:
#: n coin uniforms, then one uniform per selected point (see ``sample``).
#: Merging replicas is therefore order-independent.
RNG_ALGORITHM = "numpy.random.Philox(key=[seed, replica])"

#: Byte budget of the workspace of one block of replicas in ``sample``:
#: per replica, k <= n Gram-Schmidt columns of n floats and 2n uniforms
#: held twice (raw words and floats).  The block size follows from n.
_BLOCK_BYTES = 1 << 22

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


def _stream_uniforms(seed: int, first: int, count: int, width: int) -> np.ndarray:
    """Row r holds the first ``width`` uniforms of replica ``first + r``'s stream.

    One ``Philox`` is rewound onto each replica's key in turn (counter 0,
    empty buffer) instead of being built anew, and its raw 64-bit words
    are mapped to [0, 1) as ``Generator.random`` maps them.
    """
    bitgen = np.random.Philox(key=np.array([seed, first], dtype=np.uint64))
    state = bitgen.state
    key = state["state"]["key"]
    raw = np.empty((count, width), dtype=np.uint64)
    for r in range(count):
        key[1] = first + r
        bitgen.state = state
        raw[r] = bitgen.random_raw(width)
    raw >>= np.uint64(11)
    return raw * 2.0**-53


def _chain_rule(V: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Points drawn from the projection DPP onto the span of V (n x k), one row per replica.

    Gram-Schmidt form of the chain rule, advanced in lockstep over the
    replicas: ``d`` is each replica's conditional intensity (the residual
    diagonal of V V^T) and ``C`` holds the Gram-Schmidt columns of the
    points chosen so far.  Step t picks point j with probability
    d_j / (k - t) by inverse CDF on ``u[:, t]``, as ``Generator.choice``
    does.
    """
    n, k = V.shape
    B = len(u)
    rows = np.arange(B)
    d = np.tile(np.sum(V**2, axis=1), (B, 1))
    C = np.zeros((B, k, n))
    chosen = np.empty((B, k), dtype=np.intp)
    for t in range(k):
        cdf = d / (k - t)
        cdf /= cdf.sum(axis=1, keepdims=True)
        np.cumsum(cdf, axis=1, out=cdf)
        cdf /= cdf[:, -1:]
        j = np.count_nonzero(cdf <= u[:, t : t + 1], axis=1)
        chosen[:, t] = j
        col = V[j] @ V.T
        col -= np.einsum("bs,bsn->bn", C[rows, :t, j], C[:, :t])
        col /= np.sqrt(d[rows, j])[:, None]
        C[:, t] = col
        d -= np.square(col, out=col)
        d[rows, j] = 0.0
        np.clip(d, 0.0, None, out=d)
    return chosen


def sample(D: DppDistribution, seed: int, count: int) -> list[Configuration]:
    """Draw exact i.i.d. samples via the spectral algorithm.

    Replica r reads the uniforms u_0, u_1, ... of its own stream (see
    ``RNG_ALGORITHM``).  Eigenvector i is kept when u_i < lambda_i, for
    i < n.  The kept eigenvectors span a projection process of k points,
    drawn one at a time: the m-th point takes u_{n+m} and is the least j
    with u_{n+m} < F_j, where F is the cumulative, normalized intensity
    of the process conditioned on the points already drawn.  This fixes
    every draw, so results are reproducible and merge-order free.

    Replicas are drawn together in blocks, grouped by their kept set.
    """
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    space = D.space
    n = space.n
    eigvals = D.eigenvalues
    eigvecs = D.eigenvectors
    block = max(1, _BLOCK_BYTES // (8 * n * (n + 4)))
    out = []
    for first in range(0, count, block):
        size = min(block, count - first)
        u = _stream_uniforms(seed, first, size, 2 * n)
        keep = u[:, :n] < eigvals
        drawn: list[Configuration | None] = [None] * size
        # Sort the replicas by kept set; each run of equal rows is one group.
        order = np.lexsort(keep.T)
        keep = keep[order]
        bounds = np.flatnonzero(np.any(keep[1:] != keep[:-1], axis=1)) + 1
        for start, stop in zip([0, *bounds.tolist()], [*bounds.tolist(), size]):
            kept = keep[start]
            members = order[start:stop]
            chosen = _chain_rule(eigvecs[:, kept], u[members, n : n + int(kept.sum())])
            for r, row in zip(members.tolist(), chosen.tolist()):
                drawn[r] = Configuration(space, frozenset(row))
        out.extend(drawn)
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
