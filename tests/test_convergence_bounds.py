"""Three inequalities of the paper's route from kernel convergence to measure convergence.

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

(c) Finite-rank perturbations are Lipschitz in the trace norm.  Let
Q = extend_projection(P, [v]) and theta the angle of v to ran P, with v
and all norms in counting coordinates (sqrt(w) v).  Then Q = P + r r^T
with r = a / ||a||, a = (I - P) v and ||a|| = ||v|| sin(theta), so
||r r^T - r' r'^T||_1 <= 2 ||r - r'|| <= 4 ||a - a'|| / ||a||, and
a - a' = (I - P)(v - v') - (P - P') v' gives
||Q - Q'||_1 <= ||P - P'||_1 + 4 (||v - v'|| + ||P - P'||_op ||v'||) / (||v|| sin(theta)).
Several vectors compose the bound one at a time, each with its angle to the
span extended by the vectors before it.  On random cases the left side
stayed below 0.6 of the right, so a mutant that doubles the distance fails.

All three tests allow 1e-14 of rounding, absolute.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dpplab.conditioning import MARGIN_TOLERANCE, WeightFunction, check_inducibility, induced_kernel
from dpplab.deformations import extend_projection
from dpplab.dpp import DppDistribution, brute_force_distribution, total_variation
from dpplab.errors import AngleDegeneracyError
from dpplab.ground import GroundSpace, Window
from dpplab.operators import KernelOperator, angle, local_trace_norm, project_span, projection_distance

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


@st.composite
def perturbation_pairs(draw):
    """A projection of rank 0-4 on 3-29 points, one to three vectors, and both moved by a step of 1e-8..1e-1.

    A rank-0 projection stays rank 0 when moved.
    """
    n = draw(st.integers(3, 29))
    rank = draw(st.integers(0, min(4, n - 1)))
    count = draw(st.integers(1, min(3, n - rank)))
    rng = _rng(draw(st.integers(0, 2**32 - 1)))
    space = _space(rng, n)
    step = 10.0 ** draw(st.floats(-8.0, -1.0))
    basis, vs = rng.normal(size=(rank, n)), rng.normal(size=(count, n))
    P, P_moved = project_span(basis, space), project_span(basis + step * rng.normal(size=(rank, n)), space)
    return P, P_moved, vs, vs + step * rng.normal(size=(count, n))


@_SETTINGS
@given(perturbation_pairs())
def test_extension_is_lipschitz_in_the_trace_distance(case):
    P, P_moved, vs, vs_moved = case
    full = Window.full(P.space)
    sw = P.space.sqrt_weights
    bound = projection_distance(P, P_moved, full)
    for k in range(len(vs)):
        try:  # the projections the k-th vector extends, and the projections it gives
            before, before_moved = extend_projection(P, vs[:k]), extend_projection(P_moved, vs_moved[:k])
            after, after_moved = extend_projection(P, vs[: k + 1]), extend_projection(P_moved, vs_moved[: k + 1])
        except AngleDegeneracyError:
            assume(False)
        op_distance = np.linalg.norm(before.counting - before_moved.counting, 2)
        v, v_moved = vs[k] * sw, vs_moved[k] * sw
        sin = np.sin(angle(vs[k], before))
        bound += 4.0 * (np.linalg.norm(v - v_moved) + op_distance * np.linalg.norm(v_moved)) / (np.linalg.norm(v) * sin)
        assert projection_distance(after, after_moved, full) <= bound + SLACK
