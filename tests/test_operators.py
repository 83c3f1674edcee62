import warnings

import numpy as np
import pytest

from dense_reference import is_projection
from dpplab.errors import ContractError, DegenerateBasisError, DimensionError
from dpplab.ground import GroundSpace, Window
from dpplab.operators import (
    ConvergenceReport,
    KernelOperator,
    Projection,
    angle,
    convergence_report,
    local_trace_norm,
    norms,
    orthonormalize,
    project_span,
    subspace_angle,
)


def _rng(seed):
    return np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))


def _random_space(rng, n):
    return GroundSpace(np.cumsum(rng.uniform(0.1, 1.0, n)), rng.uniform(0.5, 1.5, n))


def test_counting_form_round_trip():
    rng = _rng(1)
    space = _random_space(rng, 5)
    A = rng.normal(size=(5, 5))
    K = KernelOperator(space, A + A.T)
    back = KernelOperator.from_counting(space, K.counting)
    assert np.allclose(back.entries, K.entries, atol=1e-14)


def test_asymmetric_entries_rejected():
    space = GroundSpace.uniform_cells(0.0, 1.0, 3)
    bad = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(ContractError):
        KernelOperator(space, bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entries_rejected(bad):
    space = GroundSpace.uniform_cells(0.0, 1.0, 3)
    entries = np.eye(3)
    entries[1, 1] = bad
    with pytest.raises(ContractError, match="finite"):
        KernelOperator(space, entries)


def test_identity_kernel_counting_is_identity():
    space = GroundSpace(np.array([1.0, 2.0, 4.0]), np.array([0.5, 2.0, 1.5]))
    I = KernelOperator.identity(space)
    assert np.allclose(I.counting, np.eye(3), atol=1e-14)


def test_arithmetic_and_apply():
    space = GroundSpace.uniform_cells(0.0, 1.0, 4)
    K = KernelOperator(space, project_span(np.ones((1, 4)), space).entries)
    v = np.arange(4.0)
    # projection onto constants reproduces the weighted mean
    mean = np.sum(v * space.weights) / space.weights.sum()
    assert np.allclose(K.apply(v), mean)


def test_project_span_is_projection_with_correct_rank():
    rng = _rng(2)
    for trial in range(20):
        space = _random_space(rng, 8)
        r = int(rng.integers(1, 4))
        P = project_span(rng.normal(size=(r, 8)), space)
        assert is_projection(P.counting)
        assert P.rank == np.linalg.matrix_rank(P.counting, tol=1e-8) == r


def test_orthonormalize_produces_orthonormal_rows():
    rng = _rng(3)
    space = _random_space(rng, 7)
    q = orthonormalize(rng.normal(size=(3, 7)), space)
    assert np.allclose(q @ q.T, np.eye(3), atol=1e-12)


def test_orthonormalize_flags_dependent_vector():
    space = GroundSpace.uniform_cells(0.0, 1.0, 4)
    basis = np.array([[1.0, 0.0, 0.0, 0.0], [2.0, 0.0, 0.0, 0.0]])
    with pytest.raises(DegenerateBasisError) as err:
        orthonormalize(basis, space)
    assert err.value.index == 1


def test_norm_ordering_over_seeded_operators():
    # operator norm <= Hilbert-Schmidt norm <= trace norm, across 1000 random kernels
    rng = _rng(4)
    for trial in range(1000):
        n = int(rng.integers(2, 7))
        space = _random_space(rng, n)
        A = rng.normal(size=(n, n))
        N = norms(KernelOperator(space, A + A.T))
        assert N.operator_norm <= N.hs_norm + 1e-12
        assert N.hs_norm <= N.trace_norm + 1e-12
        assert abs(N.trace) <= N.trace_norm + 1e-12


def test_local_trace_norm_window_monotone():
    rng = _rng(5)
    space = _random_space(rng, 8)
    A = rng.normal(size=(8, 8))
    K = KernelOperator(space, A + A.T)
    small = Window(tuple(range(3)))
    big = Window(tuple(range(6)))
    assert local_trace_norm(K, small, small) <= local_trace_norm(K, big, big) + 1e-12


def test_local_trace_norm_empty_window_warns():
    space = GroundSpace.uniform_cells(0.0, 1.0, 3)
    K = KernelOperator.identity(space)
    with pytest.warns(UserWarning):
        assert local_trace_norm(K, Window(()), Window((0,))) == 0.0


def test_angle_scale_invariant_and_extremes():
    rng = _rng(6)
    space = _random_space(rng, 6)
    basis = rng.normal(size=(2, 6))
    P = project_span(basis, space)
    inside = 0.3 * basis[0] - 1.7 * basis[1]
    assert angle(inside, P) == pytest.approx(0.0, abs=1e-7)
    v = rng.normal(size=6)
    assert angle(v, P) == pytest.approx(angle(123.0 * v, P), abs=1e-12)


@pytest.mark.parametrize("eps", [1e-8, 1e-10])
def test_angle_near_a_right_angle_keeps_full_precision(eps):
    # v = e1 + eps e0 against span(e0); arcsin of ||(I-P)v|| / ||v|| would read pi/2, off by eps
    space = GroundSpace.uniform_cells(0.0, 1.0, 2)
    P = project_span([[1.0, 0.0]], space)
    assert abs(angle(np.array([eps, 1.0]), P) - np.arctan2(1.0, eps)) <= 1e-15


def test_angle_requires_projection():
    space = GroundSpace.uniform_cells(0.0, 1.0, 3)
    K = KernelOperator(space, np.full((3, 3), 0.7))
    with pytest.raises(ContractError):
        angle(np.ones(3), Projection.from_kernel(K))


def test_vectors_of_extreme_scale():
    # norms of the raw vectors would overflow (1e200) or underflow (1e-170),
    # or lose bits in squares below the normal range (2^-530)
    space = GroundSpace.uniform_cells(0.0, 1.0, 3)
    unit = project_span([[1.0, 3.0, 0.0]], space)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert subspace_angle([[1e200, 1e200, 0.0]], [[1.0, 1.0, 0.0]], space) < 1e-7
        for scale in (1e200, 1e-170, 2.0**-530):
            P = project_span([[scale, 3.0 * scale, 0.0]], space)
            assert np.allclose(P.counting, unit.counting, rtol=0.0, atol=1e-15)
            assert angle(np.array([0.0, 0.0, scale]), unit) == pytest.approx(np.pi / 2, abs=1e-15)
    with pytest.raises(DegenerateBasisError, match="basis vector 1 is zero"):
        project_span([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], space)


def test_subspace_angle_orthogonal_vectors():
    space = GroundSpace(np.array([1.0, 2.0]), np.array([1.0, 1.0]))
    a = np.array([[1.0, 0.0]])
    b = np.array([[0.0, 1.0]])
    assert subspace_angle(a, b, space) == pytest.approx(np.pi / 2)
    # small angles too: arccos of the top singular value alone bottoms out near 2e-8
    space = GroundSpace.uniform_cells(0.0, 1.0, 3)
    assert subspace_angle([[1.0, 1.0, 0.0]], [[1.0, 1.0, 0.0]], space) < 1e-15
    assert subspace_angle([[1.0, 1.0, 0.0]], [[1.0, 1.0, 1e-9]], space) == pytest.approx(1e-9 / np.sqrt(2), rel=1e-6)


def test_convergence_report_columns_and_csv():
    rng = _rng(7)
    space = _random_space(rng, 6)
    target = project_span(rng.normal(size=(2, 6)), space)
    seq = [
        KernelOperator(space, target.entries + (0.1 / (k + 1)) * np.eye(6))
        for k in range(4)
    ]
    windows = [Window.full(space, "all"), Window(tuple(range(3)), "half")]
    rep = convergence_report(seq, target, windows, steps=(2, 4, 8, 16))
    assert rep.distances.shape == (4, 2)
    assert rep.monotone_flags() == {"all": True, "half": True}
    csv = rep.to_csv()
    assert csv.splitlines()[0] == "n,window_id,distance"
    assert len(csv.splitlines()) == 9
    assert np.all(rep.column("half") <= rep.column("all"))


def test_convergence_report_shape_check():
    with pytest.raises(DimensionError):
        ConvergenceReport((1, 2), ("a",), np.zeros((3, 1)))
