"""Dense n x n references for the factored projection operations.

The package holds a projection as an orthonormal factor U (Phat = U U^T)
and works on U alone.  These functions compute the same quantities from
the full counting forms, as the package did before, so the tests can
compare the two.  Arguments are counting forms (n x n arrays), weight
values g and counting-coordinate vectors.  ``chain_rule`` is the
sampler's chain rule as it ran before it shared work between replicas,
``grouped_chain_rule`` the dense sampler route as it ran before one chain
rule served every kept set of a block, ``gram_schmidt`` is
``orthonormalize``'s loop as it ran before the package's other
Gram-Schmidt callers came to share it, and ``permutation_splits`` the
permutation test's splits as they were drawn before one ``permuted`` call
drew them all.  ``linalg_scaled_norm``, ``gram_schmidt_steps``,
``eye_residual``, ``outer_measure_entries``, ``outer_counting``,
``stacked_inducibility_norms`` and ``clipped_law`` are the package's
projection primitives as they were written before their numpy calls were
cut, so the tests can check that the cut changed no bit;
``errstate_scaled_norm`` is ``scaled_norm`` as it ran before ``np.vdot``
took its first norm, and ``gram_schmidt_steps`` takes each vector's first
norm by it, so that it holds on strided vectors too.  Four oracles the
package itself never calls live here too:
``energy_distance``, which the permutation test scores split by split
from count vectors, ``cd_kernel_closed``, the two-point closed form
of the Christoffel-Darboux sum, ``jacobi_polynomials_mp``, the orthonormal
Jacobi polynomials from their recurrence in mpmath, and
``bessel_kernel_entries_mp``, entries of the Bessel kernel from mpmath's
Bessel functions.
"""

import math

import mpmath
import numpy as np

from dpplab.errors import AngleDegeneracyError, DegenerateBasisError
from dpplab.measures import _pairwise
from dpplab.operators import _RESIDUAL_RATIO_LIMIT, PROJECTION_TOLERANCE, SAFE_NORM_RANGE
from dpplab.scaling import jacobi_polynomials


def is_projection(khat: np.ndarray, tol: float = PROJECTION_TOLERANCE) -> bool:
    """The idempotence check max|Khat^2 - Khat| < tol."""
    return float(np.max(np.abs(khat @ khat - khat))) < tol


def inducibility_norm(g: np.ndarray, phat: np.ndarray) -> float:
    """||sqrt(1-g) P||, as the spectral norm of an n x n matrix."""
    return float(np.linalg.norm(np.sqrt(1.0 - g)[:, None] * phat, 2))


def induced_counting(g: np.ndarray, phat: np.ndarray) -> np.ndarray:
    """sqrt(g) P (1 + (g-1) P)^{-1} sqrt(g), by a dense solve of the n x n resolvent."""
    sg = np.sqrt(g)
    system = np.eye(len(g)) + (g - 1.0)[:, None] * phat
    bhat = (sg[:, None] * phat @ np.linalg.solve(system, phat)) * sg
    return (bhat + bhat.T) / 2.0


def normalization_determinant(g: np.ndarray, phat: np.ndarray) -> float:
    """det(1 + (g-1) P) as an n x n determinant."""
    return float(np.linalg.det(np.eye(len(g)) + (g - 1.0)[:, None] * phat))


def extend_counting(phat: np.ndarray, vs_hat: np.ndarray, min_angle: float) -> np.ndarray:
    """Absorb counting-coordinate vectors into a projection matrix by rank-one updates."""
    phat = phat.copy()
    for k, vhat in enumerate(vs_hat):
        vnorm = np.linalg.norm(vhat)
        if vnorm == 0.0:
            raise AngleDegeneracyError(k, 0.0, min_angle)
        residual = vhat - phat @ vhat
        ang = float(np.arcsin(np.clip(np.linalg.norm(residual) / vnorm, 0.0, 1.0)))
        if ang < min_angle:
            raise AngleDegeneracyError(k, ang, min_angle)
        unit = residual / np.linalg.norm(residual)
        unit = unit - phat @ unit
        unit /= np.linalg.norm(unit)
        phat = phat + np.outer(unit, unit)
    return phat


def linalg_scaled_norm(v: np.ndarray) -> tuple[np.ndarray, float]:
    """``operators.scaled_norm`` with its norms taken by ``np.linalg.norm``."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(v))
    if SAFE_NORM_RANGE[0] < norm < SAFE_NORM_RANGE[1]:
        return v, norm
    _, exponent = np.frexp(np.abs(v).max())
    v = np.ldexp(v, -exponent)
    return v, float(np.linalg.norm(v))


def errstate_scaled_norm(v: np.ndarray) -> tuple[np.ndarray, float]:
    """``operators.scaled_norm`` with its first norm by ``ndarray.dot`` inside ``np.errstate(over="ignore")``.

    Unlike ``np.linalg.norm``, which copies a strided vector before its dot product,
    ``ndarray.dot`` and ``np.vdot`` run BLAS on the strides as they are, and BLAS sums a
    strided vector in another order than a contiguous one.
    """
    with np.errstate(over="ignore"):
        norm = math.sqrt(v.dot(v))
    if SAFE_NORM_RANGE[0] < norm < SAFE_NORM_RANGE[1]:
        return v, norm
    _, exponent = np.frexp(np.abs(v).max())
    v = np.ldexp(v, -exponent)
    return v, math.sqrt(v.dot(v))


def gram_schmidt_steps(rows: list, hat: np.ndarray, angles: bool = False):
    """``operators._gram_schmidt`` with its later norms taken by ``np.linalg.norm``: the same yields and rows.

    The first norm of each vector is ``errstate_scaled_norm``'s, ``ndarray.dot`` on the strides as
    given, so the reference holds on strided vectors too, such as the rows of a transposed factor.
    The later norms are of fresh contiguous arrays, where ``np.linalg.norm`` sums as ``ndarray.dot`` does.
    """
    for k, v in enumerate(hat):
        v, original = errstate_scaled_norm(v)
        r = v.copy()
        for _ in range(2):
            for q in rows:
                r -= np.dot(q, r) * q
        residual = np.linalg.norm(r)
        ratio = residual / original if original else 0.0
        ang = float(np.arctan2(residual, np.linalg.norm(v - r))) if angles else None
        yield k, ratio, ang
        rows.append(r / residual)


def eye_residual(U: np.ndarray) -> float:
    """max|U^T U - I| with the identity built by ``np.eye``."""
    return float(np.max(np.abs(U.T @ U - np.eye(U.shape[1])), initial=0.0))


def outer_measure_entries(sqrt_weights: np.ndarray, counting: np.ndarray) -> np.ndarray:
    """W^{-1/2} Khat W^{-1/2}, scaled by ``np.outer``."""
    inv = 1.0 / sqrt_weights
    return counting * np.outer(inv, inv)


def outer_counting(sqrt_weights: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """W^{1/2} K W^{1/2}, scaled by ``np.outer``."""
    return entries * np.outer(sqrt_weights, sqrt_weights)


def stacked_inducibility_norms(g: np.ndarray, U: np.ndarray) -> tuple[float, float]:
    """||(1-g) U|| and ||sqrt(1-g) U|| from one SVD call on the ``np.stack`` of the two products."""
    one_minus_g = 1.0 - g
    scaled = np.stack([one_minus_g[:, None] * U, np.sqrt(one_minus_g)[:, None] * U])
    norm_full, sqrt_norm = np.linalg.svd(scaled, compute_uv=False)[:, 0].tolist()
    return norm_full, sqrt_norm


def clipped_law(probs: np.ndarray) -> np.ndarray:
    """A configuration law with its negative rounding noise clipped by ``np.clip(probs, 0.0, None)``."""
    return np.clip(probs, 0.0, None)


def gram_schmidt(hat: np.ndarray) -> np.ndarray:
    """Two-pass modified Gram-Schmidt of counting-coordinate rows, returning the orthonormal rows."""
    rows = []
    for k, v in enumerate(hat):
        v, original = linalg_scaled_norm(v)
        if original == 0.0:
            raise DegenerateBasisError(k, f"basis vector {k} is zero")
        r = v.copy()
        for _ in range(2):
            for q in rows:
                r -= np.dot(q, r) * q
        residual = np.linalg.norm(r)
        if residual < _RESIDUAL_RATIO_LIMIT * original:
            raise DegenerateBasisError(k)
        rows.append(r / residual)
    return np.array(rows)


def windowed_trace_distance(phat: np.ndarray, qhat: np.ndarray, idx) -> float:
    """Trace norm of the block (Phat - Qhat)[A, A], from the singular values of the dense block."""
    block = (phat - qhat)[np.ix_(idx, idx)]
    return float(np.sum(np.linalg.svd(block, compute_uv=False)))


def chain_rule(V: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The Gram-Schmidt chain rule on the span of V (n x k), with one row of work per replica."""
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


def permutation_splits(n: int, nx: int, permutations: int, rng: np.random.Generator) -> np.ndarray:
    """The X side of each permuted split, from one ``rng.permutation(n)`` per split."""
    on_x = np.empty((permutations, n), dtype=bool)
    for k in range(permutations):
        on_x[k] = rng.permutation(n) < nx
    return on_x


def grouped_chain_rule(V: np.ndarray, u: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Occupancy of replicas that span the columns ``keep[r]`` of V (n x m): one ``chain_rule`` per kept set.

    The replicas are sorted by kept set with ``lexsort``; each run of equal
    rows is one group, drawn from the columns it keeps.  Returns the
    (B, n) bool occupancy array.
    """
    n = V.shape[0]
    occupancy = np.zeros((len(keep), n), dtype=bool)
    if not len(keep):
        return occupancy
    order = np.lexsort(keep.T)
    keep = keep[order]
    bounds = np.flatnonzero(np.any(keep[1:] != keep[:-1], axis=1)) + 1
    for start, stop in zip([0, *bounds.tolist()], [*bounds.tolist(), len(order)]):
        kept = keep[start]
        members = order[start:stop]
        chosen = chain_rule(V[:, kept], u[members, : int(kept.sum())])
        occupancy[members[:, None], chosen] = True
    return occupancy


def energy_distance(X: np.ndarray, Y: np.ndarray) -> float:
    """Two-sample energy distance between point clouds in R^l."""
    dxy = _pairwise(X, Y)
    dxx = _pairwise(X, X)
    dyy = _pairwise(Y, Y)
    return float(2.0 * dxy.mean() - dxx.mean() - dyy.mean())


def cd_kernel_closed(s: float, n: int, u, v) -> np.ndarray:
    """Two-point closed form of the Christoffel-Darboux kernel (off-diagonal).

    sqrt(beta_n) = 2n(n + s) / ((2n + s) sqrt((2n + s)^2 - 1)) is the n-th off-diagonal
    coefficient of the orthonormal three-term recurrence.
    """
    a_n = 2 * n * (n + s) / ((2 * n + s) * math.sqrt((2 * n + s) ** 2 - 1))
    p_u = jacobi_polynomials(s, n + 1, np.atleast_1d(u))
    p_v = jacobi_polynomials(s, n + 1, np.atleast_1d(v))
    numer = np.outer(p_u[n], p_v[n - 1]) - np.outer(p_u[n - 1], p_v[n])
    denom = np.subtract.outer(np.atleast_1d(u), np.atleast_1d(v))
    return a_n * numer / denom


def jacobi_polynomials_mp(s: float, n: int, u) -> np.ndarray:
    """The first n orthonormal polynomials for the weight (1-u)^s at the points u, in 40-digit arithmetic.

    P_k^(s, 0) from the standard three-term recurrence, starting at P_0 = 1 and
    P_1 = (s + 1) + (s + 2)(u - 1)/2,
        2(k+1)(k+s+1)(2k+s) P_{k+1} = (2k+s+1)((2k+s+2)(2k+s) u + s^2) P_k - 2(k+s) k (2k+s+2) P_{k-1},
    each divided by its norm sqrt(2^(s+1) / (2k + s + 1)).  ``mpmath.jacobi`` is not used: its
    hypergeometric sum fails to converge at this precision near u = 1.
    """
    with mpmath.workdps(40):
        a = mpmath.mpf(s)
        out = np.empty((n, len(u)))
        for j, x in enumerate(u):
            x = mpmath.mpf(float(x))
            prev, cur = mpmath.mpf(0), mpmath.mpf(1)
            for k in range(n):
                out[k, j] = float(cur * mpmath.sqrt((2 * k + a + 1) / 2 ** (a + 1)))
                if k == 0:
                    prev, cur = cur, (a + 1) + (a + 2) * (x - 1) / 2
                else:
                    c = 2 * k + a
                    nxt = ((c + 1) * ((c + 2) * c * x + a**2) * cur - 2 * (k + a) * k * (c + 2) * prev) / (
                        2 * (k + 1) * (k + a + 1) * c
                    )
                    prev, cur = cur, nxt
        return out


def bessel_kernel_entries_mp(s: float, points, pairs) -> np.ndarray:
    """Entries K(x_i, x_j) of the Bessel kernel of parameter s at index pairs (i, j), in 30-digit arithmetic.

    Off the diagonal (J(a) b J'(b) - a J'(a) J(b)) / (2 (x - y)) with a = sqrt(x), b = sqrt(y); on it
    the same limit as ``bessel_kernel``, (J'(a)^2 + (1 - s^2/x) J(a)^2) / 4.
    """
    with mpmath.workdps(30):
        order = mpmath.mpf(s)
        values = {}
        for i in {k for pair in pairs for k in pair}:
            x = mpmath.mpf(float(points[i]))
            t = mpmath.sqrt(x)
            values[i] = (x, t, mpmath.besselj(order, t), mpmath.besselj(order, t, derivative=1))
        out = []
        for i, j in pairs:
            (x, a, ja, dja), (y, b, jb, djb) = values[i], values[j]
            if i == j:
                out.append((dja**2 + (1 - order**2 / x) * ja**2) / 4)
            else:
                out.append((ja * b * djb - a * dja * jb) / (2 * (x - y)))
        return np.array([float(v) for v in out])
