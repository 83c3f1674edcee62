import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import is_projection
from dpplab.conditioning import (
    WeightFunction,
    check_inducibility,
    induced_kernel,
    normalization_constant,
    psi_g,
    reweighted_distribution,
)
from dpplab import suites
from dpplab.deformations import DEFAULT_MIN_ANGLE
from dpplab.dpp import (
    DppDistribution,
    Samples,
    brute_force_distribution,
    occupancy_table,
    sample,
    total_variation,
)
from dpplab.errors import (
    ConditioningImpossibleError,
    ContractError,
    DimensionError,
    EnumerationSizeError,
    InducibilityError,
)
from dpplab.ground import GroundSpace, Window
from dpplab.measures import tightness_report
from dpplab.operators import KernelOperator, project_span


def _rng(seed):
    return np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))


def _two_point_example():
    space = GroundSpace(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
    P = project_span(np.ones((1, 2)), space)
    g = WeightFunction(space, np.array([1.0, 0.5]))
    return space, P, g


def test_two_point_closed_form():
    # rank-one projection onto the constants, reweighted by g = (1, 1/2):
    # kernel [[2/3, sqrt2/3], [sqrt2/3, 1/3]], normalization 3/4,
    # single-point masses 2/3 and 1/3
    space, P, g = _two_point_example()
    B = induced_kernel(g, P)
    expected = np.array([[2.0 / 3.0, np.sqrt(2.0) / 3.0], [np.sqrt(2.0) / 3.0, 1.0 / 3.0]])
    assert np.allclose(B.counting, expected, atol=1e-12)
    assert normalization_constant(g, P) == pytest.approx(0.75, abs=1e-14)
    table = brute_force_distribution(DppDistribution(induced_kernel(g, P)))
    assert table[0b01] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert table[0b10] == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_psi_g_values():
    space, P, g = _two_point_example()
    # the configurations by bitmask: empty, {0}, {1}, {0, 1}
    assert np.array_equal(psi_g(g, Samples(space, occupancy_table(2))), [1.0, 1.0, 0.5, 0.5])
    assert psi_g(g, Samples(space, np.zeros((0, 2), dtype=bool))).shape == (0,)
    with pytest.raises(ValueError, match="role 'g'"):
        psi_g(WeightFunction(space, g.values, role="f"), Samples(space, occupancy_table(2)))
    with pytest.raises(DimensionError):
        psi_g(g, Samples(GroundSpace.uniform_cells(0.0, 1.0, 2), occupancy_table(2)))


def test_psi_g_on_a_fine_grid_batch_matches_row_products():
    # 2^16 points, as rejection by psi_g draws them: each draw's weights multiplied in increasing point order
    n = 2**16
    rng = _rng(26)
    space = GroundSpace.uniform_cells(0.0, 1.0, n)
    g = WeightFunction(space, rng.uniform(0.0, 1.0, n))
    occupancy = np.zeros((200, n), dtype=bool)
    for row, size in zip(occupancy, rng.integers(0, 6, size=200)):
        row[rng.choice(n, size=size, replace=False)] = True
    expected = []
    for row in occupancy:
        product = 1.0
        for i in np.flatnonzero(row):
            product *= g.values[i]
        expected.append(product)
    assert np.array_equal(psi_g(g, Samples(space, occupancy)), expected)


def test_weight_function_validation():
    space = GroundSpace.uniform_cells(0.0, 1.0, 3)
    with pytest.raises(ValueError):
        WeightFunction(space, np.array([0.5, -0.1, 0.3]))
    with pytest.raises(ValueError):
        WeightFunction(space, np.array([0.5, 1.2, 0.3]), role="g")
    WeightFunction(space, np.array([0.5, 1.2, 0.3]), role="f")  # f may exceed 1


@pytest.mark.parametrize("role", ["g", "f"])
def test_weight_function_keeps_a_read_only_copy_and_its_square_roots(role):
    space = GroundSpace.uniform_cells(0.0, 1.0, 30)
    rng = np.random.default_rng(8)
    values = np.where(rng.integers(0, 3, 30) == 0, 0.0, rng.uniform(0.0, 1.0, 30))
    values[-1] = 1.0
    want = values.copy()
    g = WeightFunction(space, values, role)
    values[:] = 0.5  # mutating the caller's array after construction changes nothing
    assert g.values.tobytes() == want.tobytes()
    assert g.sqrt.tobytes() == np.sqrt(want).tobytes() and g.sqrt is g.sqrt  # taken once
    for arr in (g.values, g.sqrt):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.25


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("role", ["g", "f"])
def test_weight_function_rejects_non_finite_values(bad, role):
    space = GroundSpace.uniform_cells(0.0, 1.0, 3)
    with pytest.raises(ValueError, match="finite"):
        WeightFunction(space, np.array([0.5, bad, 0.3]), role=role)


def test_induced_matches_reweighted_brute_force():
    rng = _rng(20)
    for trial in range(25):
        n = int(rng.integers(2, 8))
        space = GroundSpace(np.cumsum(rng.uniform(0.1, 1.0, n)), rng.uniform(0.5, 1.5, n))
        rank = int(rng.integers(1, min(3, n - 1) + 1))
        P = project_span(rng.normal(size=(rank, n)), space)
        g = WeightFunction(space, rng.uniform(0.1, 1.0, n))
        base_table = brute_force_distribution(DppDistribution(P))
        oracle, _ = reweighted_distribution(g, base_table)
        induced = brute_force_distribution(DppDistribution(induced_kernel(g, P)))
        assert total_variation(oracle, induced) < 1e-10


def _traced_peak(call):
    """Run ``call`` under tracemalloc; return the peak bytes it allocated."""
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_reweighted_distribution_holds_one_law_sized_array():
    n = 20
    g = WeightFunction(GroundSpace.uniform_cells(0.0, 1.0, n), _rng(25).uniform(0.0, 1.0, n))
    probs = np.full(2**n, 2.0**-n)
    assert _traced_peak(lambda: reweighted_distribution(g, probs)) < 4 * 2**n * 8


def _raises_before_allocating(g, probs, error):
    def call():
        with pytest.raises(error):
            reweighted_distribution(g, probs)

    assert _traced_peak(call) < 1 << 20


def test_reweighted_distribution_checks_the_law_size_first():
    g = WeightFunction.constant(GroundSpace.uniform_cells(0.0, 1.0, 25), 0.5)
    _raises_before_allocating(g, np.full(4, 0.25), DimensionError)
    # a zero-stride law of the right length, beyond the enumeration limit
    g = WeightFunction.constant(GroundSpace.uniform_cells(0.0, 1.0, 21), 0.5)
    _raises_before_allocating(g, np.broadcast_to(2.0**-21, (2**21,)), EnumerationSizeError)


@pytest.mark.parametrize(
    "law",
    [
        [-0.5, 1.0, 0.25, 0.25],  # a negative "probability"; reweighted, it read -1.33
        [np.nan, 1.0, 0.0, 0.0],
        [0.0, 0.0, np.inf, 0.0],  # at a configuration whose weight is 0
        [np.inf, 0.0, 0.0, 0.0],
    ],
)
def test_reweighted_distribution_rejects_a_table_that_is_not_a_law(law):
    g = WeightFunction(GroundSpace.uniform_cells(0.0, 1.0, 2), np.array([0.5, 0.0]))
    with pytest.raises(ContractError, match="not a configuration law"):
        reweighted_distribution(g, np.array(law))


def test_reweighted_distribution_rejects_a_law_that_g_annihilates():
    # the projection onto point 0 of two points always occupies it, where g vanishes
    space = GroundSpace(np.array([0.0, 1.0]), np.ones(2))
    law = brute_force_distribution(DppDistribution(project_span(np.array([[1.0, 0.0]]), space)))
    with pytest.raises(ConditioningImpossibleError, match="vanishing total mass"):
        reweighted_distribution(WeightFunction(space, np.array([0.0, 1.0])), law)


def test_normalization_equals_mean_multiplicative_functional():
    rng = _rng(21)
    space = GroundSpace(np.cumsum(rng.uniform(0.1, 1.0, 5)), rng.uniform(0.5, 1.5, 5))
    P = project_span(rng.normal(size=(2, 5)), space)
    g = WeightFunction(space, rng.uniform(0.2, 1.0, 5))
    table = brute_force_distribution(DppDistribution(P))
    mean_psi = float(psi_g(g, Samples(space, occupancy_table(5))) @ table)
    assert normalization_constant(g, P) == pytest.approx(mean_psi, abs=1e-12)


def test_identity_weight_leaves_kernel_unchanged():
    rng = _rng(22)
    space = GroundSpace(np.cumsum(rng.uniform(0.1, 1.0, 6)), rng.uniform(0.5, 1.5, 6))
    P = project_span(rng.normal(size=(2, 6)), space)
    g = WeightFunction.constant(space, 1.0)
    assert np.allclose(induced_kernel(g, P).entries, P.entries, atol=1e-12)


def test_indicator_weight_gives_projection():
    rng = _rng(23)
    space = GroundSpace.uniform_cells(0.0, 1.0, 8)
    basis = np.vstack([np.ones(8), space.points])
    P = project_span(basis, space)
    g = WeightFunction.indicator(space, Window(tuple(range(1, 8))))
    B = induced_kernel(g, P)
    assert is_projection(B.counting)
    # excluded point carries no mass
    assert abs(B.counting[0]).max() < 1e-12


def test_obstruction_raises():
    # range supported entirely inside {g = 0}: the margin vanishes
    space = GroundSpace.uniform_cells(0.0, 1.0, 3)
    e0 = np.zeros((1, 3))
    e0[0, 0] = 1.0
    P = project_span(e0, space)
    g = WeightFunction(space, np.array([0.0, 1.0, 1.0]))
    check = check_inducibility(g, P)
    assert not check.invertible
    with pytest.raises(InducibilityError):
        induced_kernel(g, P)


def test_vanishing_on_g_equal_one_is_harmless():
    # g = 1 on part of the space poses no obstruction
    space = GroundSpace.uniform_cells(0.0, 1.0, 4)
    P = project_span(np.ones((1, 4)), space)
    g = WeightFunction(space, np.array([1.0, 1.0, 0.5, 0.6]))
    assert check_inducibility(g, P).invertible


def test_continuity_in_g():
    # g_n = g + (1-g)/n: induced kernels approach the g-induced kernel monotonically
    rng = _rng(24)
    space = GroundSpace(np.cumsum(rng.uniform(0.1, 1.0, 6)), rng.uniform(0.5, 1.5, 6))
    P = project_span(rng.normal(size=(2, 6)), space)
    g = WeightFunction(space, rng.uniform(0.3, 0.9, 6))
    target = induced_kernel(g, P)
    dists = []
    for n in (2, 4, 8, 16):
        gn = WeightFunction(space, g.values + (1.0 - g.values) / n)
        dists.append(np.abs(induced_kernel(gn, P).entries - target.entries).max())
    assert all(b < a for a, b in zip(dists, dists[1:]))
    assert dists[-1] < 0.1


#: Bounds of the conditioning semigroup test: the largest counting-form entry gap and the relative
#: normalization gap.  2000 random cases of its kind read at most 7.8e-16 and 2.3e-15.
SEMIGROUP_ENTRY_BOUND = 1e-14
SEMIGROUP_NORMALIZATION_BOUND = 1e-13


@st.composite
def _semigroup_cases(draw):
    """A projection of rank 1-5 on 3-39 geometric cells and two weights with values in [0.2, 1]."""
    n = draw(st.integers(3, 39))
    rank = draw(st.integers(1, min(5, n)))
    space = GroundSpace.geometric_cells(1e-4, 1.0, n)
    P = project_span(_rng(draw(st.integers(0, 2**32 - 1))).normal(size=(rank, n)), space)
    values = st.lists(st.floats(0.2, 1.0), min_size=n, max_size=n)
    return P, np.array(draw(values)), np.array(draw(values))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_semigroup_cases())
def test_conditioning_is_a_semigroup(case):
    # with g where sqrt(g) belongs, induced_kernel still passes the kernel identity (both sides span
    # g1 g2 range(P)) but fails the normalization chain rule, so a weight that is not an indicator and
    # both identities are needed
    P, g1, g2 = case
    G1, G2, G12 = (WeightFunction(P.space, g) for g in (g1, g2, g1 * g2))
    P1 = induced_kernel(G1, P)
    gap = np.abs(induced_kernel(G12, P).counting - induced_kernel(G2, P1).counting).max()
    assert gap <= SEMIGROUP_ENTRY_BOUND
    z = normalization_constant(G12, P)
    chain = normalization_constant(G1, P) * normalization_constant(G2, P1)
    assert abs(z - chain) <= SEMIGROUP_NORMALIZATION_BOUND * z


@pytest.mark.parametrize("g_points", [6, 7], ids=["same_n", "different_n"])
def test_conditioning_rejects_weights_on_another_space(g_points):
    rng = _rng(44)
    P = project_span(rng.normal(size=(2, 6)), GroundSpace.uniform_cells(0.0, 1.0, 6))
    g = WeightFunction(GroundSpace.uniform_cells(0.0, 3.0, g_points), rng.uniform(0.3, 0.9, g_points))
    with pytest.raises(DimensionError):
        check_inducibility(g, P)
    with pytest.raises(DimensionError):
        induced_kernel(g, P)
    with pytest.raises(DimensionError):
        normalization_constant(g, P)


def test_induced_kernel_orthonormal_on_an_ill_conditioned_input():
    # U^T g U has condition number about 1e7 here; one Cholesky pass left
    # max|U^T U - I| = 2.9e-10 and raised ContractError
    space = GroundSpace(np.array([2.0, 4.83]), np.array([1.738, 2.0]))
    P = project_span(np.array([[-3.135, 1.013], [1.738, 2.0]]), space)
    g = WeightFunction(space, np.array([0.795, 5.96e-8]))
    assert check_inducibility(g, P).margin == pytest.approx(2.98e-8, rel=1e-6)
    B = induced_kernel(g, P)
    assert np.max(np.abs(B.factor.T @ B.factor - np.eye(2))) < 1e-15
    assert np.max(np.abs(B.counting - np.eye(2))) < 1e-15


def test_rank_zero_projection_is_an_ordinary_input():
    # the empty span has margin 1, induces the empty span and has mass 1;
    # the tightness margin of the zero kernel reads the same margin
    space = GroundSpace.uniform_cells(0.0, 1.0, 4)
    P = project_span(np.zeros((0, 4)), space)
    g = WeightFunction(space, np.array([0.0, 0.5, 1.0, 0.25]))
    check = check_inducibility(g, P)
    assert check.margin == 1.0 and check.invertible
    B = induced_kernel(g, P)
    assert B.rank == 0 and B.factor.shape == (4, 0)
    assert normalization_constant(g, P) == 1.0
    f = WeightFunction.constant(space, 1.0, role="f")
    row = tightness_report([KernelOperator(space, np.zeros((4, 4)))], f, [Window.full(space)], g=g).rows[0]
    assert row.margin == 1.0


def test_induced_process_on_a_fine_grid_matches_its_moments(capsys):
    # Criterion 4's 2^12 geometric grid and its indicator weight on core + B_12:
    # far beyond enumeration, the induced projection's sampled linear
    # statistic <phi, X> must match E = sum_i phi_i |U_i|^2 and
    # Var = sum_i phi_i^2 |U_i|^2 - |U^T diag(phi) U|_F^2 to 4 standard errors.
    k = 12
    space = GroundSpace.geometric_cells(10.0 ** -(k + 4), 1.0, 2**k)
    core = Window.from_interval(space, 0.5, 1.0, "core")
    window = Window.from_interval(space, 10.0 ** -(k + 1), 0.5)
    P = suites.exhaustion_model(space, core, DEFAULT_MIN_ANGLE).base_projection
    g = WeightFunction.indicator(space, Window(np.concatenate([core.index_set, window.index_set])))
    B = induced_kernel(g, P)
    U = B.factor
    phi = space.points
    row_mass = np.sum(U**2, axis=1)
    mean = float(phi @ row_mass)
    var = float(phi**2 @ row_mass - np.sum((U.T @ (phi[:, None] * U)) ** 2))
    samples = sample(DppDistribution(B), 2024, 2000)
    assert np.all(samples.occupancy.sum(axis=1) == B.rank)
    stats = samples.occupancy @ phi
    count = len(stats)
    central = stats - stats.mean()
    sample_var = float(np.mean(central**2))
    z_mean = (stats.mean() - mean) / np.sqrt(var / count)
    z_var = (sample_var - var) / np.sqrt((np.mean(central**4) - sample_var**2) / count)
    with capsys.disabled():
        print(f"\n[induced 2^{k}] E {mean:.6f}, Var {var:.6f}: z(mean) = {z_mean:+.2f}, z(var) = {z_var:+.2f}")
    assert abs(z_mean) < 4.0 and abs(z_var) < 4.0


def test_a_weight_needs_role_g_or_f():
    with pytest.raises(ValueError, match="role must be 'g' or 'f'"):
        WeightFunction(GroundSpace.uniform_cells(0.0, 1.0, 2), [0.5, 1.0], role="h")


def _embedding_weight_case():
    space = GroundSpace.uniform_cells(0.0, 1.0, 4)
    P = project_span(np.vstack([np.ones(4), space.points]), space)
    return P, WeightFunction(space, [0.5, 2.0, 1.0, 0.3], role="f")


@pytest.mark.parametrize(
    "call",
    [
        lambda f, P: check_inducibility(f, P),
        lambda f, P: induced_kernel(f, P),
        lambda f, P: normalization_constant(f, P),
        lambda f, P: reweighted_distribution(f, brute_force_distribution(DppDistribution(P))),
    ],
    ids=["check_inducibility", "induced_kernel", "normalization_constant", "reweighted_distribution"],
)
def test_conditioning_rejects_an_embedding_weight(call):
    P, f = _embedding_weight_case()
    with pytest.raises(ValueError, match="conditioning weight \\(role 'g'\\)"):
        call(f, P)
