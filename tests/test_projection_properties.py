"""Property tests of the factored projection operations against their dense references.

Each operation on a projection P = U U^T works on the n x r factor U; the
references in ``dense_reference`` compute the same quantity from the full
n x n counting forms.  Cases are random weighted spaces of 2-12 points,
projections of rank 1-3 and conditioning weights g with or without exact
zeros, kept where the inducibility margin is at least ``MIN_MARGIN``.
The last tests check that ``orthonormalize`` runs the reference
Gram-Schmidt loop bit for bit, and that the span operations do not
depend on the scales of the vectors they are given.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dense_reference as dense
from dpplab.conditioning import WeightFunction, check_inducibility, induced_kernel, normalization_constant
from dpplab.deformations import extend_projection
from dpplab.errors import AngleDegeneracyError, ContractError, DegenerateBasisError
from dpplab.ground import GroundSpace, Window
from dpplab.operators import (
    KernelOperator,
    Projection,
    angle,
    convergence_report,
    orthonormalize,
    project_span,
    projection_distance,
    subspace_angle,
)

#: Smallest inducibility margin a drawn case must keep.
MIN_MARGIN = 1e-2

_SETTINGS = settings(max_examples=80, deadline=None, derandomize=True)


def _rng(seed):
    return np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))


@st.composite
def projections(draw, max_rank=3):
    """A random space of 2-12 points, a projection of rank 1-3 on it, and the rng that drew them."""
    n = draw(st.integers(2, 12))
    rank = draw(st.integers(1, min(max_rank, n)))
    rng = _rng(draw(st.integers(0, 2**32 - 1)))
    space = GroundSpace(np.cumsum(rng.uniform(0.1, 1.0, n)), rng.uniform(0.5, 1.5, n))
    return project_span(rng.normal(size=(rank, n)), space), rng


@st.composite
def conditioning_cases(draw):
    """A projection and a weight g, with exact zeros in g or without, of margin at least MIN_MARGIN."""
    P, _ = draw(projections())
    value = st.floats(0.05, 1.0)
    if draw(st.booleans()):
        value = st.one_of(st.just(0.0), value)
    g = np.array(draw(st.lists(value, min_size=P.n, max_size=P.n)))
    assume(1.0 - dense.inducibility_norm(g, P.counting) >= MIN_MARGIN)
    return P, WeightFunction(P.space, g)


@_SETTINGS
@given(conditioning_cases())
def test_inducibility_norms_match_dense_norms(case):
    P, g = case
    sqrt_norm = dense.inducibility_norm(g.values, P.counting)
    assert check_inducibility(g, P).margin == pytest.approx(1.0 - sqrt_norm, abs=1e-13)


@_SETTINGS
@given(conditioning_cases())
def test_induced_kernel_matches_dense_resolvent(case):
    P, g = case
    B = induced_kernel(g, P)
    assert B.rank == P.rank
    assert np.allclose(B.counting, dense.induced_counting(g.values, P.counting), rtol=0.0, atol=1e-12)


@_SETTINGS
@given(conditioning_cases())
def test_normalization_constant_matches_dense_determinant(case):
    P, g = case
    expected = dense.normalization_determinant(g.values, P.counting)
    assert normalization_constant(g, P) == pytest.approx(expected, abs=1e-13)


@_SETTINGS
@given(projections(), st.integers(1, 2))
def test_extend_projection_matches_dense_rank_one_updates(case, count):
    P, rng = case
    assume(P.rank + count <= P.n)
    vs = rng.normal(size=(count, P.n))
    min_angle = 1e-3
    try:
        expected = dense.extend_counting(P.counting, vs * P.space.sqrt_weights, min_angle)
    except AngleDegeneracyError as err:
        with pytest.raises(AngleDegeneracyError) as raised:
            extend_projection(P, vs, min_angle)
        assert raised.value.index == err.index
        return
    Q = extend_projection(P, vs, min_angle)
    assert Q.rank == P.rank + count
    assert np.array_equal(Q.factor[:, : P.rank], P.factor)
    assert np.allclose(Q.counting, expected, rtol=0.0, atol=1e-10)
    assert np.allclose(extend_projection(P, vs[::-1], min_angle).counting, Q.counting, rtol=0.0, atol=1e-9)


@_SETTINGS
@given(projections(), st.integers(1, 3), st.data())
def test_projection_distance_matches_dense_block_svd(case, other_rank, data):
    P, rng = case
    Q = project_span(rng.normal(size=(min(other_rank, P.n), P.n)), P.space)
    idx = data.draw(st.lists(st.integers(0, P.n - 1), min_size=1, unique=True))
    expected = dense.windowed_trace_distance(P.counting, Q.counting, sorted(idx))
    assert projection_distance(P, Q, Window(tuple(idx))) == pytest.approx(expected, abs=1e-12)
    assert projection_distance(P, P, Window(tuple(idx))) == pytest.approx(0.0, abs=1e-12)


@_SETTINGS
@given(projections(), st.integers(1, 3), st.integers(1, 3), st.data())
def test_convergence_report_of_projections_matches_the_dense_route(case, members, windows, data):
    target, rng = case
    sequence = [project_span(rng.normal(size=(target.rank, target.n)), target.space) for _ in range(members)]
    windows = [
        Window(tuple(data.draw(st.lists(st.integers(0, target.n - 1), min_size=1, unique=True))))
        for _ in range(windows)
    ]
    factored = convergence_report(sequence, target, windows)
    assert all("counting" not in P.__dict__ for P in [*sequence, target])
    dense_copies = [KernelOperator.from_counting(P.space, P.counting) for P in sequence]
    dense = convergence_report(dense_copies, KernelOperator.from_counting(target.space, target.counting), windows)
    assert (factored.steps, factored.window_ids) == (dense.steps, dense.window_ids)
    assert np.allclose(factored.distances, dense.distances, rtol=0.0, atol=1e-12)


@_SETTINGS
@given(projections(), st.floats(1e-9, 10.0), st.booleans())
def test_projection_rejects_a_factor_that_is_not_orthonormal(case, stretch, poison):
    P, _ = case
    Projection(P.space, P.factor)  # the factor itself passes
    bad = P.factor * (1.0 + stretch)
    if poison:
        bad[0, 0] = np.nan
    with pytest.raises(ContractError):
        Projection(P.space, bad)


@st.composite
def gram_schmidt_inputs(draw):
    """1-5 vectors on 2-12 points: random, each scaled by its own 2^j, or with the last near-dependent.

    A near-dependent vector is a random combination of the others plus 10^-e noise, e in 0..12,
    so the residual ratio falls on both sides of the degeneracy limit.
    """
    n = draw(st.integers(2, 12))
    count = draw(st.integers(1, min(5, n)))
    rng = _rng(draw(st.integers(0, 2**32 - 1)))
    space = GroundSpace(np.cumsum(rng.uniform(0.1, 1.0, n)), rng.uniform(0.5, 1.5, n))
    vectors = rng.normal(size=(count, n))
    kind = draw(st.sampled_from(["random", "scaled", "near_dependent"]))
    if kind == "scaled":
        exponents = draw(st.lists(st.integers(-1000, 1000), min_size=count, max_size=count))
        vectors = np.ldexp(vectors, np.array(exponents)[:, None])
    elif kind == "near_dependent" and count > 1:
        noise = 10.0 ** -draw(st.integers(0, 12))
        vectors[-1] = rng.normal(size=count - 1) @ vectors[:-1] + noise * vectors[-1]
    return space, vectors


@_SETTINGS
@given(gram_schmidt_inputs())
def test_orthonormalize_runs_the_reference_loop_bit_for_bit(case):
    space, vectors = case
    try:
        expected = dense.gram_schmidt(vectors * space.sqrt_weights)
    except DegenerateBasisError as err:
        with pytest.raises(DegenerateBasisError) as raised:
            orthonormalize(vectors, space)
        assert (raised.value.index, str(raised.value)) == (err.index, str(err))
        return
    assert np.array_equal(orthonormalize(vectors, space), expected)
    assert np.array_equal(project_span(vectors, space).factor, expected.T)


@st.composite
def scaled_vectors(draw):
    """A base basis of rank 1-3 and 1-3 further vectors on 2-12 points, and the same vectors scaled.

    Each vector is multiplied by its own 2^j, j in [-1000, 1000], which is exact in binary.
    """
    n = draw(st.integers(2, 12))
    rank = draw(st.integers(1, min(3, n)))
    count = draw(st.integers(1, 3))
    rng = _rng(draw(st.integers(0, 2**32 - 1)))
    space = GroundSpace(np.cumsum(rng.uniform(0.1, 1.0, n)), rng.uniform(0.5, 1.5, n))
    vectors = rng.normal(size=(rank + count, n))
    exponents = draw(st.lists(st.integers(-1000, 1000), min_size=rank + count, max_size=rank + count))
    scaled = np.ldexp(vectors, np.array(exponents)[:, None])
    return space, rank, vectors, scaled


def _outcome(fn, *args):
    """The value of the call, or the type of the typed error it raised and the vector that error names."""
    try:
        return fn(*args), None
    except (DegenerateBasisError, AngleDegeneracyError) as err:
        return None, (type(err), err.index)


@_SETTINGS
@given(scaled_vectors())
def test_span_operations_do_not_depend_on_vector_scales(case):
    space, rank, vectors, scaled = case
    P, error = _outcome(project_span, vectors, space)
    P_scaled, error_scaled = _outcome(project_span, scaled, space)
    assert error == error_scaled
    if P is not None:
        assert np.allclose(P_scaled.counting, P.counting, rtol=0.0, atol=1e-12)

    base = project_span(vectors[:rank], space)
    assert np.allclose(project_span(scaled[:rank], space).counting, base.counting, rtol=0.0, atol=1e-12)
    for v, v_scaled in zip(vectors[rank:], scaled[rank:]):
        assert angle(v_scaled, base) == pytest.approx(angle(v, base), abs=1e-12)
    got, error_scaled = _outcome(subspace_angle, scaled[rank:], scaled[:rank], space)
    expected, error = _outcome(subspace_angle, vectors[rank:], vectors[:rank], space)
    assert error == error_scaled
    if expected is not None:
        assert got == pytest.approx(expected, abs=1e-12)

    Q, error = _outcome(extend_projection, base, vectors[rank:], 1e-3)
    Q_scaled, error_scaled = _outcome(extend_projection, base, scaled[rank:], 1e-3)
    assert error == error_scaled
    if Q is not None:
        assert np.allclose(Q_scaled.counting, Q.counting, rtol=0.0, atol=1e-12)
