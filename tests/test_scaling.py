import mpmath
import numpy as np
import pytest
from scipy import special

from dpplab.errors import SpecialFunctionRangeError
from dpplab.ground import GroundSpace, Window
from dpplab.scaling import (
    BESSEL_CROSSOVER,
    ClassicalKernelSpec,
    _asymptotic_bessel_j,
    _series_bessel_j,
    bessel_j,
    bessel_j_prime,
    bessel_kernel,
    cd_kernel_closed,
    cd_kernel_sum,
    gauss_jacobi,
    heine_mehler_suite,
    is_positive_contraction,
    jacobi_cd_kernel,
    jacobi_polynomials,
    jacobi_recurrence,
)


def test_bessel_against_multiprecision_oracle():
    xs = np.concatenate([np.linspace(0.05, 11.0, 40), np.linspace(13.0, 80.0, 30)])
    for order in (-0.5, 0.0, 0.5, 1.0, 2.0):
        ours = bessel_j(order, xs)
        reference = np.array([float(mpmath.besselj(order, x)) for x in xs])
        assert np.max(np.abs(ours - reference)) < 1e-11


def test_bessel_matches_scipy_over_order_argument_grid():
    xs = np.geomspace(1e-3, 400.0, 150)
    for order in np.arange(-1.5, 12.25, 0.25):
        gap = np.max(np.abs(bessel_j(order, xs) - special.jv(order, xs)))
        assert gap < 1e-8, f"order {order}: gap {gap:.2e}"


@pytest.mark.parametrize("order, x", [(8.0, 20.0), (12.0, 40.0), (6.5, 144.5), (12.0, 12.5), (40.0, 30.0)])
def test_bessel_high_order_against_multiprecision_oracle(order, x):
    # past the crossover, orders above 3 leave the Hankel expansion's validated range
    assert bessel_j(order, x) == pytest.approx(float(mpmath.besselj(order, x)), abs=1e-10)


def test_bessel_raises_where_no_route_is_accurate():
    # the series at J_100(90) cancels to a handful of digits; the recurrence is unstable above x
    with pytest.raises(SpecialFunctionRangeError):
        bessel_j(100.0, 90.0)
    with pytest.raises(SpecialFunctionRangeError):
        bessel_j(100.0, np.array([1.0, 90.0]))


def test_bessel_crossover_agreement():
    for order in (-0.5, 0.0, 0.5, 1.0, 2.0, 3.0):
        lo = _series_bessel_j(order, BESSEL_CROSSOVER)
        hi = _asymptotic_bessel_j(order, BESSEL_CROSSOVER)
        assert abs(lo - hi) < 1e-9


def test_bessel_derivative_against_oracle():
    xs = np.linspace(0.5, 20.0, 25)
    for order in (0.0, 0.5, 2.0):
        ours = bessel_j_prime(order, xs)
        reference = np.array([float(mpmath.besselj(order, x, derivative=1)) for x in xs])
        assert np.max(np.abs(ours - reference)) < 1e-10


def test_legendre_special_case():
    # s = 0 reduces to orthonormal Legendre: p_1(u) = sqrt(3/2) u
    u = np.linspace(-1.0, 1.0, 11)
    vals = jacobi_polynomials(0.0, 3, u)
    assert np.allclose(vals[0], np.sqrt(0.5))
    assert np.allclose(vals[1], np.sqrt(1.5) * u, atol=1e-13)


def test_polynomials_match_scipy_jacobi():
    # orthonormal version of P_k^{(s,0)}: norm^2 = 2^{s+1} / (2k + s + 1)
    u = np.linspace(-0.99, 0.99, 17)
    for s in (0.0, 0.5, 2.0):
        vals = jacobi_polynomials(s, 8, u)
        for k in range(8):
            scale = np.sqrt((2 * k + s + 1) / 2 ** (s + 1))
            reference = special.eval_jacobi(k, s, 0.0, u) * scale
            assert np.max(np.abs(vals[k] - reference)) < 1e-10


def test_recurrence_first_coefficients():
    alpha, beta = jacobi_recurrence(2.0, 4)
    assert alpha[0] == pytest.approx(-0.5)  # -s/(s+2)
    assert beta[0] == pytest.approx(8.0 / 3.0)  # 2^{s+1}/(s+1)


def test_gauss_rule_integrates_polynomials_exactly():
    s = 1.5
    nodes, weights = gauss_jacobi(s, 6)
    for degree in range(11):  # exact through degree 2m - 1
        quad = float(np.sum(weights * nodes**degree))
        exact = float(mpmath.quad(lambda u: (1 - u) ** s * u**degree, [-1, 1]))
        assert quad == pytest.approx(exact, abs=1e-12)


def test_orthonormality_residual_small():
    for s in (0.0, 0.5, 2.0):
        nodes, weights = gauss_jacobi(s, 21)
        vals = jacobi_polynomials(s, 21, nodes)
        gram = (vals * weights) @ vals.T
        assert np.max(np.abs(gram - np.eye(21))) < 1e-8


def test_cd_closed_form_matches_sum():
    u = np.linspace(-0.9, 0.9, 9)
    v = u + 0.013
    for s in (0.0, 0.5, 2.0):
        closed = np.diag(cd_kernel_closed(s, 10, u, v))
        summed = np.array([cd_kernel_sum(s, 10, ui, vi) for ui, vi in zip(u, v)]).ravel()
        assert np.max(np.abs(closed - summed)) < 1e-9


def test_scaled_kernels_are_positive_contractions():
    grid = GroundSpace.uniform_cells(0.0, 10.0, 80)
    for s in (0.0, 2.0):
        for n in (8, 16):
            assert is_positive_contraction(jacobi_cd_kernel(s, n, grid))
        assert is_positive_contraction(bessel_kernel(s, grid))


def test_bessel_kernel_diagonal_is_continuous_limit():
    grid = GroundSpace.uniform_cells(0.0, 5.0, 40)
    K = bessel_kernel(0.5, grid)
    x = grid.points
    eps = 1e-6
    s = 0.5
    for i in (3, 17, 31):
        xi, yi = x[i], x[i] + eps
        a = lambda t: bessel_j(s, np.sqrt(t))
        b = lambda t: np.sqrt(t) * bessel_j_prime(s, np.sqrt(t))
        near = (a(xi) * b(yi) - b(xi) * a(yi)) / (2.0 * (xi - yi))
        assert near == pytest.approx(K.entries[i, i], abs=1e-5)


def test_kernel_spec_validation():
    grid = GroundSpace.uniform_cells(0.0, 4.0, 10)
    with pytest.raises(ValueError):
        ClassicalKernelSpec("unknown", 0.0, grid)
    with pytest.raises(ValueError):
        ClassicalKernelSpec("jacobi_cd", 0.0, grid)  # missing n
    bad_grid = GroundSpace(np.array([-1.0, 1.0]), np.ones(2))
    with pytest.raises(ValueError):
        ClassicalKernelSpec("bessel", 0.0, bad_grid)
    spec = ClassicalKernelSpec("jacobi_cd", 0.0, grid, n=6)
    assert spec.build().is_projection() or is_positive_contraction(spec.build())


def test_heine_mehler_distances_decrease():
    grid = GroundSpace.uniform_cells(0.0, 8.0, 60)
    windows = [Window.full(grid, "all")]
    report = heine_mehler_suite(1.0, (4, 8, 16), windows, grid)
    assert report.strictly_decreasing()
    csv = report.to_csv()
    assert csv.splitlines()[0] == "s,n,window_id,i1_distance,ratio_to_previous"
