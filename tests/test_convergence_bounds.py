"""Two inequalities of the paper's route from kernel convergence to measure convergence.

(a) For positive contractions K and L, the total variation of their
determinantal laws is at most the trace norm of K - L.  The restriction of
a determinantal law to a window A is the law of chi_A K chi_A, so every
windowed trace distance dpplab prints bounds the total variation of the
restricted processes.  Equality holds on one point, where both laws are
coins of bias K and L.

(b) Inducing by g is Lipschitz in the trace norm: with m the smaller of the
two inducibility margins,
||Pi^g_P - Pi^g_Q||_1 <= ||P - Q||_1 / sqrt(m (2 - m)).
The denominator is sigma_min(sqrt(g) U), since U^T g U = I - U^T (1-g) U
and ||sqrt(1-g) U|| = 1 - m.  This is a measured envelope, not a proof:
4000 random pairs on 3-39 points had an excess of at most 1.7e-17, and the
ratio times the denominator peaked at 1.0, at g = 1.  The second test runs
through the Gram-Schmidt factor of ``induced_kernel``.

Both tests allow 1e-14 of rounding, absolute.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dpplab.conditioning import MARGIN_TOLERANCE, WeightFunction, check_inducibility, induced_kernel
from dpplab.dpp import DppDistribution, brute_force_distribution, total_variation
from dpplab.ground import GroundSpace, Window
from dpplab.operators import KernelOperator, local_trace_norm, project_span, projection_distance

#: Absolute rounding slack of both inequalities.
SLACK = 1e-14

_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)


def _rng(seed):
    return np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))


def _space(rng, n):
    return GroundSpace(np.cumsum(rng.uniform(0.1, 1.0, n)), rng.uniform(0.5, 1.5, n))


def _contraction(space, eigenvectors, eigenvalues):
    return KernelOperator.from_counting(space, (eigenvectors * eigenvalues) @ eigenvectors.T)


@st.composite
def contraction_pairs(draw):
    """Two positive contractions on 1-8 points, spectra with exact 0s and 1s.

    L is independent of K, or K with eigenvectors and eigenvalues moved by
    a step of 1e-6..1e-1.
    """
    n = draw(st.integers(1, 8))
    rng = _rng(draw(st.integers(0, 2**32 - 1)))
    space = _space(rng, n)
    values = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))
    lam = np.array(draw(st.lists(values, min_size=n, max_size=n)))
    V = np.linalg.qr(rng.normal(size=(n, n)))[0]
    if draw(st.booleans()):
        mu = np.array(draw(st.lists(values, min_size=n, max_size=n)))
        W = np.linalg.qr(rng.normal(size=(n, n)))[0]
    else:
        step = 10.0 ** draw(st.floats(-6.0, -1.0))
        mu = np.clip(lam + step * rng.normal(size=n), 0.0, 1.0)
        W = np.linalg.qr(V + step * rng.normal(size=(n, n)))[0]
    return _contraction(space, V, lam), _contraction(space, W, mu)


@_SETTINGS
@given(contraction_pairs())
def test_total_variation_is_at_most_the_trace_distance(pair):
    K, L = pair
    tv = total_variation(brute_force_distribution(DppDistribution(K)), brute_force_distribution(DppDistribution(L)))
    trace_distance = local_trace_norm(KernelOperator(K.space, K.entries - L.entries), Window.full(K.space))
    assert tv <= trace_distance + SLACK


@st.composite
def induction_pairs(draw):
    """Two projections of one rank 1-5 on 2-40 points and a weight g with exact 0s and 1s, both inducible.

    Q is independent of P, or P's spanning set moved by a step of 1e-6..1e-1.
    """
    n = draw(st.integers(2, 40))
    rank = draw(st.integers(1, min(5, n)))
    rng = _rng(draw(st.integers(0, 2**32 - 1)))
    space = _space(rng, n)
    basis = rng.normal(size=(rank, n))
    if draw(st.booleans()):
        other = rng.normal(size=(rank, n))
    else:
        other = basis + 10.0 ** draw(st.floats(-6.0, -1.0)) * rng.normal(size=(rank, n))
    values = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))
    g = WeightFunction(space, np.array(draw(st.lists(values, min_size=n, max_size=n))))
    P, Q = project_span(basis, space), project_span(other, space)
    margin = min(check_inducibility(g, P).margin, check_inducibility(g, Q).margin)
    assume(margin > MARGIN_TOLERANCE)
    return P, Q, g, margin


@_SETTINGS
@given(induction_pairs())
def test_induction_is_lipschitz_in_the_trace_distance(case):
    P, Q, g, m = case
    full = Window.full(P.space)
    induced_distance = projection_distance(induced_kernel(g, P), induced_kernel(g, Q), full)
    assert induced_distance <= projection_distance(P, Q, full) / np.sqrt(m * (2.0 - m)) + SLACK
