"""Independent reference computations for the benchmark's correctness checks.

Everything here uses numpy, scipy and itertools only.  Nothing calls
``brute_force_distribution``, ``project_span``, ``permutation_energy_test``
or any other dpplab routine, so a fault in the package cannot also be a
fault in the answer it is checked against.

Configuration laws are arrays indexed by occupancy bitmask: bit i set
means grid point i is occupied, as in dpplab's tables.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
from scipy import stats
from scipy.spatial.distance import cdist

#: Probabilities below this are rounding noise of the minor expansion and read as exact zeros.
LAW_ZERO = 1e-13


def principal_minors(khat: np.ndarray) -> np.ndarray:
    """det(khat[T, T]) for every subset T, indexed by bitmask (det of the empty block is 1)."""
    n = khat.shape[0]
    minors = np.ones(2**n)
    for size in range(1, n + 1):
        subsets = list(combinations(range(n), size))
        idx = np.array(subsets)
        blocks = khat[idx[:, :, None], idx[:, None, :]]
        masks = (1 << idx).sum(axis=1)
        minors[masks] = np.linalg.det(blocks)
    return minors


def minor_law(khat: np.ndarray) -> np.ndarray:
    """Exact configuration law of the DPP with counting kernel khat.

    Inclusion-exclusion over the correlation minors,
    P(X = S) = sum_{T >= S} (-1)^{|T \\ S|} det(khat_T),
    done as a superset Moebius transform over bitmasks.
    """
    n = khat.shape[0]
    law = principal_minors(khat)
    masks = np.arange(2**n)
    for i in range(n):
        without = masks[(masks >> i) & 1 == 0]
        law[without] -= law[without | (1 << i)]
    law[np.abs(law) < LAW_ZERO] = 0.0
    return law


def occupancy(n: int) -> np.ndarray:
    """(2^n, n) 0/1 table: row m lists which points bitmask m occupies."""
    return (np.arange(2**n)[:, None] >> np.arange(n)) & 1


def reweighted_law(law: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, float]:
    """Law reweighted by prod_{x in X} g(x) and renormalized, and its normalization constant."""
    psi = np.prod(np.where(occupancy(len(g)) == 1, g, 1.0), axis=1)
    weighted = law * psi
    z = float(weighted.sum())
    return weighted / z, z


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * float(np.abs(p - q).sum())


def span_projection(vectors: np.ndarray, sqrt_weights: np.ndarray) -> np.ndarray:
    """Counting-form orthogonal projection onto the weighted span of the rows, via QR."""
    q, _ = np.linalg.qr((vectors * sqrt_weights).T)
    return q @ q.T


def trace_norm(block: np.ndarray) -> float:
    return float(np.linalg.svd(block, compute_uv=False).sum())


def principal_angle(a: np.ndarray, b: np.ndarray, sqrt_weights: np.ndarray) -> float:
    """Smallest principal angle between the weighted spans of two sets of rows."""
    qa, _ = np.linalg.qr((a * sqrt_weights).T)
    qb, _ = np.linalg.qr((b * sqrt_weights).T)
    top = np.linalg.svd(qa.T @ qb, compute_uv=False)[0]
    return float(np.arccos(np.clip(top, -1.0, 1.0)))


def exhaustion_row(k: int) -> dict:
    """Angle, probe-window distances and remainder probe norm of one exhaustion grid.

    Rebuilds the scripted study's geometric grid of 2^k cells on
    [10^-(k+4), 1], its base span {x^(1/4), x^(1/4)(1-x)}, the deformation
    x^(-3/4), the core window [0.5, 1] and the window [10^-(k+1), 0.5].
    The indicator weight g of their union makes sqrt(g) = g, so every
    weighted projection is a QR projection of indicator-masked vectors.
    """
    edges = np.geomspace(10.0 ** -(k + 4), 1.0, 2**k + 1)
    x = np.sqrt(edges[:-1] * edges[1:])
    sw = np.sqrt(np.diff(edges))
    base = np.vstack([x**0.25, x**0.25 * (1.0 - x)])
    extra = x[None, :] ** -0.75
    core = (x >= 0.5) & (x <= 1.0)
    chi = (core | ((x >= 10.0 ** -(k + 1)) & (x <= 0.5))).astype(float)

    q = span_projection(base, sw)
    pg = span_projection(np.vstack([base * chi, extra * chi]), sw)
    qg = span_projection(base * chi, sw)
    distances = []
    for lo in (0.25, 0.5):
        idx = np.nonzero((x >= lo) & (x <= 1.0))[0]
        distances.append(trace_norm((pg - q)[np.ix_(idx, idx)]))
    probe = core / np.sqrt(np.sum(core * sw**2))
    probe_norm = float(np.linalg.norm((pg - qg) @ (probe * sw)))
    return {
        "angle": principal_angle(base * chi, extra * chi, sw),
        "distances": tuple(distances),
        "probe_norm": probe_norm,
    }


def energy_statistic(x: np.ndarray, y: np.ndarray) -> float:
    """Two-sample energy distance 2 E|X-Y| - E|X-X'| - E|Y-Y'| from Euclidean cdist."""
    return float(2.0 * cdist(x, y).mean() - cdist(x, x).mean() - cdist(y, y).mean())


def chi_square_pvalue(counts: np.ndarray, law: np.ndarray, min_expected: float = 5.0) -> float:
    """Pearson chi-square p-value of observed counts against a law.

    Categories expected fewer than ``min_expected`` times are pooled into
    one tail bin.  A count in a category of probability zero gives p = 0.
    """
    if counts[law == 0.0].any():
        return 0.0
    total = counts.sum()
    expected = law * total
    keep = expected >= min_expected
    tail = (~keep) & (law > 0)
    obs = list(counts[keep])
    exp = list(expected[keep])
    if tail.any():
        obs.append(counts[tail].sum())
        exp.append(expected[tail].sum())
    obs_arr = np.asarray(obs, dtype=float)
    exp_arr = np.asarray(exp) * obs_arr.sum() / np.sum(exp)
    stat = float(np.sum((obs_arr - exp_arr) ** 2 / exp_arr))
    return float(stats.chi2.sf(stat, max(len(obs_arr) - 1, 1)))


def uniformity_pvalue(p_values) -> float:
    """Kolmogorov-Smirnov p-value of a set of p-values against Uniform(0, 1)."""
    return float(stats.kstest(np.asarray(p_values, dtype=float), "uniform").pvalue)
