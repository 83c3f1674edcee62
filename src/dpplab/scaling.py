"""Hard-edge scaling: Jacobi Christoffel-Darboux kernels and the Bessel kernel.

The polynomial family is orthonormal for the weight (1 - u)^s on [-1, 1]
(Jacobi parameters (s, 0)); the hard edge sits at u = 1 and is blown up
by x = 2 n^2 (1 - u).  Under that rescaling the n-term
Christoffel-Darboux kernels converge to the Bessel kernel of parameter s
on (0, infinity); the suite below measures that convergence in windowed
trace norms.

The special functions come from ``scipy.special``: the Bessel function
J_s and its derivative from ``jv`` and ``jvp``, the polynomials from
``eval_jacobi`` divided by their closed-form norms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .ground import GroundSpace, Window
from .operators import ConvergenceReport, KernelOperator, convergence_report
from .tables import csv_text


def jacobi_polynomials(s: float, n: int, u) -> np.ndarray:
    """Values of the first n orthonormal polynomials for the weight (1-u)^s, shape (n, len(u)).

    p_k is ``scipy.special.eval_jacobi(k, s, 0, u)``, the Jacobi polynomial
    P_k^(s, 0), divided by its norm sqrt(2^(s+1) / (2k + s + 1)).  An integer
    k selects scipy's integer-degree recurrence in (u - 1), accurate near the
    hard edge u = 1.
    """
    if s <= -1:
        raise ValueError("the weight exponent must exceed -1")
    if n < 1:
        raise ValueError("need at least one polynomial")
    u = np.asarray(u, dtype=float)
    if np.any(np.abs(u) > 1.0 + 1e-12):
        raise ValueError("arguments must lie in [-1, 1]")
    k = np.arange(n)[:, None]
    return special.eval_jacobi(k, s, 0.0, u) * np.sqrt((2 * k + s + 1) / 2.0 ** (s + 1))


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
    p = jacobi_polynomials(s, n, u)
    entries = (1.0 / c) * np.outer(folded, folded) * (p.T @ p)
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
    j = special.jv(s, t)
    jp = special.jvp(s, t)
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

    @property
    def verdict(self) -> bool:
        """The convergence table's verdict: every distance column strictly decreasing."""
        return self.report.verdict

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
