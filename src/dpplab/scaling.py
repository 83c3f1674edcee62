"""Hard-edge scaling: Jacobi Christoffel-Darboux kernels and the Bessel kernel.

The polynomial family is orthonormal for the weight (1 - u)^s on [-1, 1]
(Jacobi parameters (s, 0)); the hard edge sits at u = 1 and is blown up
by x = n^2 (1 - u) / 2.  Under that rescaling the n-term
Christoffel-Darboux kernels converge to the Bessel kernel of parameter s
on (0, infinity); the suite below measures that convergence in windowed
trace norms.

Bessel functions of the first kind are evaluated by their power series
for arguments up to the crossover and by the Hankel asymptotic expansion
beyond it; the two routes are validated against each other at the
crossover.  The asymptotic branch is accurate to ~1e-10 for orders up to
3, which covers every scripted parameter (s in {0, 0.5, 2} needs orders
s-1 .. s+1 for the derivative recurrences).  Past the crossover, higher
orders up to the argument come from the upward three-term recurrence,
which is stable there; higher orders still take the series when its
rounding error is provably small, and raise otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import DimensionError, SpecialFunctionRangeError
from .ground import GroundSpace, Window
from .operators import ConvergenceReport, KernelOperator, convergence_report
from .tables import csv_text

#: Argument at which Bessel evaluation switches from series to asymptotics.
BESSEL_CROSSOVER = 12.0

#: Highest order the Hankel expansion is used for directly past the crossover.
HANKEL_MAX_ORDER = 3.0

#: Largest rounding error bound, relative to max(1, |J|), the power series may
#: carry; beyond it ``bessel_j`` raises.
BESSEL_TOLERANCE = 1e-10


def _series_sum(order: float, x: float) -> tuple[float, float]:
    """Power series sum_{m} (-1)^m (x/2)^{2m+order} / (m! Gamma(m+order+1)) and sum of |terms|.

    Valid for order > -2 (the derivative recurrence needs order s-1); terms
    whose Gamma argument is a nonpositive integer vanish and are skipped.
    The sum of |terms| times a few ulps bounds the rounding error, which
    cancellation makes large when x is large against the order.
    """
    if x == 0.0:
        return (1.0 if order == 0.0 else 0.0), 0.0
    half = x / 2.0
    m0 = 0
    while True:
        a = m0 + order + 1.0
        if a > 0 or abs(a - round(a)) > 1e-12:
            break
        m0 += 1
    term = (-1.0) ** m0 * half ** (2 * m0 + order) / (math.factorial(m0) * math.gamma(m0 + order + 1.0))
    total = magnitude = 0.0
    for m in range(m0, 250):
        total += term
        magnitude += abs(term)
        term *= -(half * half) / ((m + 1.0) * (m + order + 1.0))
        if abs(term) < 1e-18 * max(abs(total), 1e-300) and m >= m0 + 4:
            break
    return total, magnitude


def _series_bessel_j(order: float, x: float) -> float:
    """The power series of J_order(x) alone."""
    return _series_sum(order, x)[0]


def _asymptotic_bessel_j(order: float, x: float) -> float:
    """Hankel's large-argument expansion, truncated at the smallest term."""
    mu = 4.0 * order * order
    c = 1.0
    p_sum, q_sum = 1.0, 0.0
    prev = abs(c)
    for k in range(1, 60):
        c *= (mu - (2 * k - 1) ** 2) / (8.0 * k * x)
        if abs(c) > prev:
            break  # divergence onset: stop at the smallest term
        prev = abs(c)
        phase = k % 4
        if phase == 0:
            p_sum += c
        elif phase == 1:
            q_sum += c
        elif phase == 2:
            p_sum -= c
        else:
            q_sum -= c
    chi = x - (order / 2.0 + 0.25) * math.pi
    return math.sqrt(2.0 / (math.pi * x)) * (p_sum * math.cos(chi) - q_sum * math.sin(chi))


def _recurrence_bessel_j(order: float, x: float) -> float:
    """J_order(x) by J_{v+1} = (2v/x) J_v - J_{v-1} up from Hankel values at orders <= 3.

    Stable for order <= x, where J is not the recurrence's minimal solution.
    """
    steps = math.ceil(order - HANKEL_MAX_ORDER)
    v = order - steps
    below, value = _asymptotic_bessel_j(v - 1.0, x), _asymptotic_bessel_j(v, x)
    for i in range(steps):
        below, value = value, (2.0 * (v + i) / x) * value - below
    return value


def _checked_bessel_j(order: float, x: float) -> float:
    if x > BESSEL_CROSSOVER and order <= HANKEL_MAX_ORDER:
        return _asymptotic_bessel_j(order, x)
    if x > BESSEL_CROSSOVER and order <= x:
        return _recurrence_bessel_j(order, x)
    total, magnitude = _series_sum(order, x)
    bound = 4.0 * np.finfo(float).eps * magnitude
    if bound > BESSEL_TOLERANCE * max(1.0, abs(total)):
        raise SpecialFunctionRangeError("bessel_j", order, x, bound)
    return total


def bessel_j(order: float, x):
    """Bessel function of the first kind for real order > -2 and x >= 0.

    Accurate to about 1e-10 max(1, |J|) where it returns; raises
    ``SpecialFunctionRangeError`` where no route is (x past the crossover
    and below a high order, e.g. J_100(90)).
    """
    if order <= -2:
        raise ValueError("order must exceed -2")
    xs = np.asarray(x, dtype=float)
    out = np.array([_checked_bessel_j(order, t) for t in np.ravel(xs)]).reshape(xs.shape)
    return float(out) if np.isscalar(x) or xs.ndim == 0 else out


def bessel_j_prime(order: float, x):
    """Derivative via J'_s = J_{s-1} - (s/x) J_s."""
    xs = np.asarray(x, dtype=float)
    value = bessel_j(order - 1.0, xs) - (order / xs) * bessel_j(order, xs)
    return float(value) if np.isscalar(x) or xs.ndim == 0 else value


def jacobi_recurrence(s: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Three-term recurrence coefficients (alpha, beta) for the weight (1-u)^s.

    Orthonormal convention: sqrt(beta_{k+1}) p_{k+1} = (u - alpha_k) p_k
    - sqrt(beta_k) p_{k-1}, with beta_0 the total mass of the weight.
    """
    if s <= -1:
        raise ValueError("the weight exponent must exceed -1")
    if n < 1:
        raise ValueError("need at least one coefficient")
    k = np.arange(n, dtype=float)
    alpha = np.empty(n)
    alpha[0] = -s / (s + 2.0)
    kk = k[1:]
    alpha[1:] = -(s * s) / ((2 * kk + s) * (2 * kk + s + 2.0))
    beta = np.empty(n)
    beta[0] = 2.0 ** (s + 1.0) / (s + 1.0)
    beta[1:] = 4.0 * kk**2 * (kk + s) ** 2 / ((2 * kk + s) ** 2 * ((2 * kk + s) ** 2 - 1.0))
    return alpha, beta


def jacobi_polynomials(s: float, n: int, u):
    """Values of the first n orthonormal polynomials for the weight (1-u)^s.

    Returns shape (n,) for scalar u and (n, len(u)) for array input.
    """
    scalar = np.isscalar(u) or np.ndim(u) == 0
    uu = np.atleast_1d(np.asarray(u, dtype=float))
    if np.any(np.abs(uu) > 1.0 + 1e-12):
        raise ValueError("arguments must lie in [-1, 1]")
    alpha, beta = jacobi_recurrence(s, n)
    values = np.zeros((n, uu.size))
    values[0] = 1.0 / math.sqrt(beta[0])
    if n > 1:
        values[1] = (uu - alpha[0]) * values[0] / math.sqrt(beta[1])
    for k in range(1, n - 1):
        values[k + 1] = ((uu - alpha[k]) * values[k] - math.sqrt(beta[k]) * values[k - 1]) / math.sqrt(
            beta[k + 1]
        )
    return values[:, 0] if scalar else values


def gauss_jacobi(s: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss nodes and weights for the weight (1-u)^s on [-1, 1] (Golub-Welsch)."""
    alpha, beta = jacobi_recurrence(s, m)
    nodes, vectors = eigh_tridiagonal(alpha, np.sqrt(beta[1:]))
    weights = beta[0] * vectors[0] ** 2
    return nodes, weights


def cd_kernel_sum(s: float, n: int, u, v=None) -> np.ndarray:
    """Degree-sum Christoffel-Darboux kernel sum_{k<n} p_k(u) p_k(v)."""
    pu = jacobi_polynomials(s, n, np.atleast_1d(u))
    pv = pu if v is None else jacobi_polynomials(s, n, np.atleast_1d(v))
    return pu.T @ pv


def cd_kernel_closed(s: float, n: int, u, v) -> np.ndarray:
    """Two-point closed form of the Christoffel-Darboux kernel (off-diagonal)."""
    _, beta = jacobi_recurrence(s, n + 1)
    a_n = math.sqrt(beta[n])
    p_u = jacobi_polynomials(s, n + 1, np.atleast_1d(u))
    p_v = jacobi_polynomials(s, n + 1, np.atleast_1d(v))
    numer = np.outer(p_u[n], p_v[n - 1]) - np.outer(p_u[n - 1], p_v[n])
    denom = np.subtract.outer(np.atleast_1d(u), np.atleast_1d(v))
    return a_n * numer / denom


@dataclass(frozen=True, eq=False)
class ClassicalKernelSpec:
    """Parameters of a scripted classical kernel."""

    family: str
    s: float
    grid: GroundSpace
    n: int | None = None

    def __post_init__(self):
        if self.family not in ("jacobi_cd", "bessel"):
            raise ValueError("family must be 'jacobi_cd' or 'bessel'")
        if self.s <= -1:
            raise ValueError("the parameter s must exceed -1")
        if self.family == "jacobi_cd" and (self.n is None or self.n < 1):
            raise ValueError("jacobi_cd kernels need a positive polynomial count n")
        if np.any(self.grid.points <= 0):
            raise ValueError("grid points must be strictly positive")

    def build(self) -> KernelOperator:
        if self.family == "jacobi_cd":
            return jacobi_cd_kernel(self.s, self.n, self.grid)
        return bessel_kernel(self.s, self.grid)


def jacobi_cd_kernel(s: float, n: int, grid: GroundSpace) -> KernelOperator:
    """The rescaled n-term kernel on the hard-edge coordinates x = 2 n^2 (1-u).

    The weight (1-u)^s is folded in symmetrically, so the result is the
    kernel of a rank-n projection with respect to Lebesgue measure on
    (0, 4 n^2].  The rescaling constant was pinned numerically: with
    x = 2 n^2 (1-u) the kernels converge to the Bessel kernel of
    :func:`bessel_kernel`, and other Jacobian conventions leave an O(1)
    gap.  The rate is O(1/n^2) only at s = 0: over n = 8..64 the windowed
    distances fall with log-log slopes near -2 there, but with slopes
    between -1.14 and -1.03 at s = 0.5 and s = 2, that is about O(1/n).
    """
    x = grid.points
    if np.any(x <= 0) or np.any(x > 4.0 * n * n):
        raise ValueError(f"grid must lie inside (0, {4 * n * n}] for n = {n}")
    c = 2.0 * n * n
    u = 1.0 - x / c
    folded = (x / c) ** (s / 2.0)
    entries = (1.0 / c) * np.outer(folded, folded) * cd_kernel_sum(s, n, u)
    return KernelOperator(grid, entries)


def bessel_kernel(s: float, grid: GroundSpace) -> KernelOperator:
    """The Bessel kernel of parameter s > -1 on a positive grid.

    Off the diagonal the two-point form is used; the diagonal is the
    analytic limit (J'_s(t)^2 + (1 - s^2/x) J_s(t)^2) / 4 with t = sqrt(x).
    """
    if s <= -1:
        raise ValueError("the parameter s must exceed -1")
    x = grid.points
    if np.any(x <= 0):
        raise ValueError("grid points must be strictly positive")
    t = np.sqrt(x)
    j = bessel_j(s, t)
    jp = bessel_j_prime(s, t)
    a = j
    b = t * jp
    numer = np.outer(a, b) - np.outer(b, a)
    denom = 2.0 * np.subtract.outer(x, x)
    with np.errstate(divide="ignore", invalid="ignore"):
        entries = numer / denom
    diag = (jp**2 + (1.0 - s * s / x) * j**2) / 4.0
    np.fill_diagonal(entries, diag)
    return KernelOperator(grid, entries)


@dataclass(frozen=True, eq=False)
class ScalingReport:
    """Heine-Mehler convergence table with distance ratios per refinement."""

    s: float
    report: ConvergenceReport

    def strictly_decreasing(self) -> bool:
        return all(self.report.monotone_flags().values())

    def ratios(self) -> np.ndarray:
        d = self.report.distances
        out = np.full_like(d, np.nan)
        out[1:] = d[1:] / d[:-1]
        return out

    def to_csv(self) -> str:
        rows = (
            (str(self.s), n, w, d, None if np.isnan(r) else r)
            for n, ds, rs in zip(self.report.steps, self.report.distances, self.ratios())
            for w, d, r in zip(self.report.window_ids, ds, rs)
        )
        return csv_text(("s", "n", "window_id", "i1_distance", "ratio_to_previous"), rows)


def heine_mehler_suite(s: float, n_list, windows: list[Window], grid: GroundSpace) -> ScalingReport:
    """Windowed trace distances of the rescaled Jacobi kernels to the Bessel kernel."""
    n_list = tuple(int(n) for n in n_list)
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be increasing")
    target = bessel_kernel(s, grid)
    sequence = [jacobi_cd_kernel(s, n, grid) for n in n_list]
    return ScalingReport(s, convergence_report(sequence, target, windows, steps=n_list))
