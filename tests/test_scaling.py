import numpy as np
import pytest
from scipy import special

from continuum_reference import hard_edge_gap_probability
from dense_reference import bessel_kernel_entries_mp, cd_kernel_closed, jacobi_polynomials_mp
from dpplab.dpp import DppDistribution, sample
from dpplab.ground import GroundSpace, Window
from dpplab.scaling import (
    bessel_kernel,
    heine_mehler_suite,
    jacobi_cd_kernel,
    jacobi_polynomials,
)


def _kernel_error(s, x):
    """Largest gap between ``bessel_kernel`` and mpmath over all entries on the points x, relative to the largest."""
    pairs = [(i, j) for i in range(x.size) for j in range(x.size)]
    rows, cols = np.array(pairs).T
    ours = bessel_kernel(s, GroundSpace(x, np.ones(x.size))).entries[rows, cols]
    reference = bessel_kernel_entries_mp(s, x, pairs)
    return np.max(np.abs(ours - reference)) / np.max(np.abs(reference))


def test_bessel_against_multiprecision_oracle():
    x = np.geomspace(0.01, 2500.0, 30)
    for s in (-0.5, 0.0, 0.5, 2.0, 7.0, 40.0):
        assert _kernel_error(s, x) < 1e-12, f"s = {s}"


@pytest.mark.parametrize(
    "order, t", [(8.0, 20.0), (12.0, 40.0), (6.5, 144.5), (12.0, 12.5), (40.0, 30.0), (100.0, 90.0)]
)
def test_bessel_high_order_against_multiprecision_oracle(order, t):
    # the kernel at s = order on points x = (t/2)^2, (0.9 t)^2, t^2; below its turning point a high order's
    # power series cancels to a handful of digits (J_100(90)), and jv's relative error grows with the order
    assert _kernel_error(order, (t * np.array([0.5, 0.9, 1.0])) ** 2) < 1e-11


def test_bessel_derivative_against_oracle():
    # J_s' enters every entry: the diagonal through J_s'(t)^2, the off-diagonal through t J_s'(t)
    t = np.linspace(0.5, 20.0, 25)
    for s in (0.0, 0.5, 2.0):
        assert _kernel_error(s, t**2) < 1e-10, f"s = {s}"


def _gauss_legendre_grid(x, nodes):
    """The Gauss-Legendre rule of (0, x) as a ground space."""
    t, w = special.roots_legendre(nodes)
    return GroundSpace(x / 2 * (t + 1), x / 2 * w)


def _gap(K):
    """det(I - Khat): on a Gauss-Legendre grid of (0, x), the probability of no point in (0, x)."""
    return np.linalg.det(np.eye(K.space.n) - K.counting)


@pytest.mark.parametrize("s", [0, 1, 2, 3])
@pytest.mark.parametrize("x", [1.0, 4.0, 10.0])
@pytest.mark.parametrize("nodes", [10, 20, 40])
def test_bessel_gap_probability_matches_the_continuum_closed_form(s, x, nodes):
    # det(I - Khat) of the kernel on the Gauss-Legendre rule of (0, x) against e^{-x/4} det[I_{j-k}(sqrt x)];
    # the other convention 4K(4x, 4y), i.e. J_s(2 sqrt x), would give e^{-x} at s = 0
    gap = _gap(bessel_kernel(s, _gauss_legendre_grid(x, nodes)))
    reference = hard_edge_gap_probability(s, x)
    assert abs(gap - reference) < 1e-12 * reference


@pytest.mark.parametrize("x", [4.0, 10.0])
def test_jacobi_gap_probability_converges_to_the_bessel_gap_at_rate_n_minus_2(x):
    # s = 0 on the 40-node rule of (0, x): the last log-log slope of |det(I - K_n) - det(I - K_Bessel)| over
    # n = 8..128 read -2.000 on both windows (errors 2.89e-3 down to 1.12e-5 on (0, 4)).  With c = n^2 in
    # place of 2 n^2 the kernels miss the limit and the errors stay flat, slope 0.  Only s = 0 has this rate
    # (see jacobi_cd_kernel).
    grid = _gauss_legendre_grid(x, 40)
    limit = _gap(bessel_kernel(0.0, grid))
    n_list = [8, 16, 32, 64, 128]
    errors = [abs(_gap(jacobi_cd_kernel(0.0, n, grid)) - limit) for n in n_list]
    slope = np.log(errors[-1] / errors[-2]) / np.log(n_list[-1] / n_list[-2])
    assert abs(slope + 2.0) < 0.1, f"errors {errors}, last slope {slope:.3f}"


#: Seed and draw count of the end-to-end gap check, fixed before it first ran.
GAP_SAMPLE_SEED = 2024
GAP_SAMPLE_DRAWS = 20000


def test_sampled_bessel_draws_leave_the_hard_edge_empty_with_probability_e_minus_one():
    # The s = 0 Bessel process has no point in (0, 4) with probability e^{-4/4}.  The sampler draws the
    # kernel on 200 cells of (0, 10], and the 80 cells of (0, 4] stay empty with grid probability
    # det(I - Khat) = 0.3678831 on that block, 4e-6 from e^{-1} and far inside the standard error
    # sqrt(p(1 - p)/20000) = 0.0034.  z read -0.23.
    grid = GroundSpace.uniform_cells(0.0, 10.0, 200)
    window = Window.from_interval(grid, 0.0, 4.0)
    assert len(window) == 80
    draws = sample(DppDistribution(bessel_kernel(0.0, grid)), GAP_SAMPLE_SEED, GAP_SAMPLE_DRAWS)
    empty = np.mean(~draws.occupancy[:, window.index_set].any(axis=1))
    p = np.exp(-1.0)
    z = (empty - p) / np.sqrt(p * (1.0 - p) / GAP_SAMPLE_DRAWS)
    assert abs(z) < 4.0, f"empty fraction {empty}, z = {z:.2f}"


def test_legendre_special_case():
    # s = 0 reduces to orthonormal Legendre: p_1(u) = sqrt(3/2) u
    u = np.linspace(-1.0, 1.0, 11)
    vals = jacobi_polynomials(0.0, 3, u)
    assert np.allclose(vals[0], np.sqrt(0.5))
    assert np.allclose(vals[1], np.sqrt(1.5) * u, atol=1e-13)


def test_polynomials_match_the_multiprecision_recurrence():
    # degrees 0..64 on points crowding the hard edge u = 1, where the scaling limit lives; the error is
    # relative to the largest value max_k |p_k(1)|
    u = 1.0 - np.concatenate([np.geomspace(1e-6, 1.0, 9), [1.5, 1.99]])
    for s in (0.0, 0.5, 2.0):
        reference = jacobi_polynomials_mp(s, 65, u)
        scale = np.max(np.abs(jacobi_polynomials_mp(s, 65, [1.0])))
        assert np.max(np.abs(jacobi_polynomials(s, 65, u) - reference)) < 5e-15 * scale, f"s = {s}"


def test_polynomials_reject_invalid_arguments():
    u = np.linspace(-1.0, 1.0, 5)
    with pytest.raises(ValueError, match="exceed -1"):
        jacobi_polynomials(-1.0, 4, u)
    with pytest.raises(ValueError, match="at least one"):
        jacobi_polynomials(0.0, 0, u)  # eval_jacobi would return an empty table
    with pytest.raises(ValueError, match=r"\[-1, 1\]"):
        jacobi_polynomials(0.0, 4, np.array([0.0, 1.0 + 1e-9]))
    assert jacobi_polynomials(0.0, 4, np.array([-1.0 - 1e-13, 1.0 + 1e-13])).shape == (4, 2)


def test_orthonormality_residual_small():
    for s in (0.0, 0.5, 2.0):
        nodes, weights = special.roots_jacobi(21, s, 0.0)
        vals = jacobi_polynomials(s, 21, nodes)
        gram = (vals * weights) @ vals.T
        assert np.max(np.abs(gram - np.eye(21))) < 1e-8


def test_cd_closed_form_matches_sum():
    u = np.linspace(-0.9, 0.9, 9)
    v = u + 0.013
    for s in (0.0, 0.5, 2.0):
        closed = np.diag(cd_kernel_closed(s, 10, u, v))
        summed = np.sum(jacobi_polynomials(s, 10, u) * jacobi_polynomials(s, 10, v), axis=0)
        assert np.max(np.abs(closed - summed)) < 1e-9


def test_scaled_kernels_are_positive_contractions():
    grid = GroundSpace.uniform_cells(0.0, 10.0, 80)
    for s in (0.0, 2.0):
        for n in (8, 16):
            DppDistribution(jacobi_cd_kernel(s, n, grid))  # raises ContractError unless a positive contraction
        DppDistribution(bessel_kernel(s, grid))


def test_bessel_kernel_diagonal_is_continuous_limit():
    grid = GroundSpace.uniform_cells(0.0, 5.0, 40)
    K = bessel_kernel(0.5, grid)
    x = grid.points
    eps = 1e-6
    s = 0.5
    for i in (3, 17, 31):
        xi, yi = x[i], x[i] + eps
        a = lambda t: special.jv(s, np.sqrt(t))
        b = lambda t: np.sqrt(t) * special.jvp(s, np.sqrt(t))
        near = (a(xi) * b(yi) - b(xi) * a(yi)) / (2.0 * (xi - yi))
        assert near == pytest.approx(K.entries[i, i], abs=1e-5)


def test_kernel_builders_reject_invalid_parameters():
    grid = GroundSpace.uniform_cells(0.0, 4.0, 10)
    bad_grid = GroundSpace(np.array([-1.0, 1.0]), np.ones(2))
    with pytest.raises(ValueError):
        jacobi_cd_kernel(0.0, 0, grid)  # no polynomials
    with pytest.raises(ValueError):
        jacobi_cd_kernel(-1.0, 6, grid)
    with pytest.raises(ValueError):
        jacobi_cd_kernel(0.0, 6, bad_grid)
    with pytest.raises(ValueError):
        bessel_kernel(-1.5, grid)
    with pytest.raises(ValueError):
        bessel_kernel(0.0, bad_grid)
    K = jacobi_cd_kernel(0.0, 6, grid)
    DppDistribution(K)


def test_heine_mehler_distances_decrease():
    grid = GroundSpace.uniform_cells(0.0, 8.0, 60)
    windows = [Window.full(grid, "all")]
    report = heine_mehler_suite(1.0, (4, 8, 16), windows, grid)
    assert report.verdict
    csv = report.to_csv()
    assert csv.splitlines()[0] == "s,n,window_id,i1_distance,ratio_to_previous"
