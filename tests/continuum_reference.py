"""Closed forms of continuum quantities, in mpmath, for checking discretized kernels against.

``hard_edge_gap_probability(s, x)`` is the probability that the Bessel process
of integer parameter s (the determinantal process of ``scaling.bessel_kernel``,
J_s taken at sqrt(x)) has no point in (0, x):

    E_s(x) = e^{-x/4} det[I_{j-k}(sqrt(x))]_{j,k=1..s},

with I the modified Bessel function of the first kind, and E_0(x) = e^{-x/4}
(Forrester and Hughes, J. Math. Phys. 35, 1994; Tracy and Widom, Comm. Math.
Phys. 161, 1994).  It is the Fredholm determinant det(I - K) of the kernel on
(0, x), which a Gauss-Legendre rule on (0, x) approximates to rounding
(Bornemann, Math. Comp. 79, 2010).
"""

from __future__ import annotations

import mpmath


def hard_edge_gap_probability(s: int, x: float) -> float:
    """E_s(x) = e^{-x/4} det[I_{j-k}(sqrt(x))]_{j,k=1..s}, in 30-digit arithmetic."""
    if s != int(s) or s < 0:
        raise ValueError("the closed form holds for integer s >= 0")
    s = int(s)
    with mpmath.workdps(30):
        x = mpmath.mpf(x)
        t = mpmath.sqrt(x)
        toeplitz = mpmath.matrix(s, s)
        for j in range(s):
            for k in range(s):
                toeplitz[j, k] = mpmath.besseli(j - k, t)
        det = mpmath.det(toeplitz) if s else mpmath.mpf(1)
        return float(mpmath.exp(-x / 4) * det)
