import numpy as np
import pytest

from dpplab.conditioning import WeightFunction, check_inducibility
from dpplab.dpp import Configuration, DppDistribution, sample
from dpplab.ground import GroundSpace, Window
from dpplab.measures import (
    FiniteMeasure,
    chebyshev_mass_bound_check,
    energy_distance,
    int_phi,
    linear_statistics,
    permutation_energy_test,
    sigma_f,
    tightness_report,
    weak_convergence_test,
)
from dpplab.operators import KernelOperator, project_span, subspace_angle


def _rng(seed):
    return np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))


def test_embedding_places_f_mass_on_occupied_points():
    space = GroundSpace.uniform_cells(0.0, 1.0, 5)
    f = WeightFunction(space, np.array([1.0, 2.0, 3.0, 4.0, 5.0]), role="f")
    X = Configuration(space, frozenset({1, 3}))
    eta = sigma_f(X, f)
    assert eta.atoms.tolist() == [0.0, 2.0, 0.0, 4.0, 0.0]
    assert eta.total_mass == 6.0
    assert eta.mass_on(Window((3, 4))) == 4.0


def test_int_phi_is_linear():
    space = GroundSpace.uniform_cells(0.0, 1.0, 4)
    eta = FiniteMeasure(space, np.array([1.0, 0.0, 2.0, 0.5]))
    phi = np.array([1.0, -1.0, 0.5, 2.0])
    assert int_phi(eta, phi) == pytest.approx(1.0 + 1.0 + 1.0)
    assert int_phi(eta, 3.0 * phi) == pytest.approx(3.0 * int_phi(eta, phi))


def test_measure_rejects_negative_atoms():
    space = GroundSpace.uniform_cells(0.0, 1.0, 2)
    with pytest.raises(ValueError):
        FiniteMeasure(space, np.array([1.0, -0.5]))


def test_tightness_verdicts():
    space = GroundSpace.uniform_cells(0.0, 1.0, 12)
    f = WeightFunction.constant(space, 1.0, role="f")
    tails = [Window.from_interval(space, 0.5, 1.0, "right")]
    drifting = []
    for i in range(6, 12):
        e = np.zeros(12)
        e[i] = 1.0
        drifting.append(project_span(e[None, :], space))
    left = np.where(space.points < 0.4, 1.0, 0.0)
    fixed = [project_span(left[None, :], space)] * 3
    rep_bad = tightness_report(drifting, f, tails)
    rep_good = tightness_report(fixed, f, tails)
    assert not rep_bad.tight and rep_bad.sup_tails[0] == pytest.approx(1.0)
    assert rep_good.tight and rep_good.sup_tails[0] == pytest.approx(0.0)
    assert rep_good.to_csv().splitlines()[0].startswith("member,trace,tail_right")


def test_tightness_margin_and_vector_angles():
    rng = _rng(41)
    space = GroundSpace.uniform_cells(0.0, 1.0, 8)
    f = WeightFunction.constant(space, 1.0, role="f")
    tails = [Window.from_interval(space, 0.5, 1.0, "right")]
    g = WeightFunction(space, rng.uniform(0.3, 1.0, 8))
    bases = [rng.normal(size=(2, 8)) for _ in range(3)]
    kernels = [project_span(b, space) for b in bases]
    vectors = [rng.normal(size=(2, 8)) for _ in range(3)]
    rep = tightness_report(kernels, f, tails, g=g, extra_vectors=vectors)
    for K, basis, vs, row in zip(kernels, bases, vectors, rep.rows):
        assert row.margin == check_inducibility(g, K).margin
        direct = min(
            subspace_angle(vs[:1], basis, space),
            subspace_angle(vs[1:], np.vstack([basis, vs[:1]]), space),
        )
        assert row.min_vector_angle == pytest.approx(direct, abs=1e-10)
        assert row.vector_masses == pytest.approx(tuple((vs**2 * space.weights).sum(axis=1)))
    assert rep.uniform_margin == min(r.margin for r in rep.rows)
    assert rep.angle_bound == min(r.min_vector_angle for r in rep.rows)


def test_tail_traces_shrink_with_window():
    rng = _rng(40)
    space = GroundSpace.uniform_cells(0.0, 1.0, 10)
    f = WeightFunction.constant(space, 1.0, role="f")
    P = project_span(rng.normal(size=(3, 10)), space)
    tails = [Window.from_interval(space, t, 1.0, f"x>{t}") for t in (0.3, 0.6, 0.9)]
    row = tightness_report([P], f, tails).rows[0]
    assert row.tail_traces[0] >= row.tail_traces[1] >= row.tail_traces[2]
    assert row.trace == pytest.approx(3.0, abs=1e-9)  # rank of the projection


def test_chebyshev_bound_holds():
    rng = _rng(41)
    space = GroundSpace.uniform_cells(0.0, 1.0, 6)
    A = rng.normal(size=(6, 6))
    sym = A @ A.T
    K = KernelOperator.from_counting(space, sym / (np.linalg.eigvalsh(sym)[-1] * 1.4))
    D = DppDistribution(K)
    f = WeightFunction(space, 1.0 / (1.0 + space.points), role="f")
    samples = sample(D, 17, 1500)
    trace = float(np.sum(np.diag(K.counting) * f.values))
    check = chebyshev_mass_bound_check(D, f, 1.5 * trace, samples)
    assert check.passed
    assert check.bound == pytest.approx(1.0 / 1.5)


def test_linear_statistics_shape_and_values():
    space = GroundSpace.uniform_cells(0.0, 1.0, 4)
    f = WeightFunction.constant(space, 2.0, role="f")
    phis = np.eye(4)[:2]
    samples = [Configuration(space, frozenset({0})), Configuration(space, frozenset({0, 1}))]
    stats = linear_statistics(samples, f, phis)
    assert stats.shape == (2, 2)
    assert stats.tolist() == [[2.0, 0.0], [2.0, 2.0]]


def test_energy_distance_properties():
    rng = _rng(42)
    X = rng.normal(size=(60, 2))
    assert energy_distance(X, X.copy()) == pytest.approx(0.0, abs=1e-12)
    Y = rng.normal(size=(60, 2)) + 3.0
    assert energy_distance(X, Y) > 1.0


def test_permutation_test_detects_shift_and_accepts_null():
    rng = _rng(43)
    X = rng.normal(size=(80, 1))
    Y = rng.normal(size=(80, 1)) + 2.0
    _, p_shift = permutation_energy_test(X, Y, 199, rng)
    assert p_shift == pytest.approx(1.0 / 200.0)
    Z = rng.normal(size=(80, 1))
    _, p_null = permutation_energy_test(X, Z, 199, rng)
    assert p_null > 0.05


@pytest.mark.parametrize("case", range(10))
def test_permutation_test_matches_split_by_split_energy_distance(case):
    """On tie-free data every permuted split scores as energy_distance scores it."""
    src = np.random.default_rng(case)
    nx, ny = (int(v) for v in src.integers(2, 40, size=2))
    dim = int(src.integers(1, 4))
    X = src.normal(size=(nx, dim))
    Y = src.normal(size=(ny, dim)) + 0.3
    rng, ref_rng = _rng(case), _rng(case)
    observed, p = permutation_energy_test(X, Y, 49, rng)
    pooled = np.vstack([X, Y])
    ref_observed = energy_distance(X, Y)
    hits = 0
    for _ in range(49):
        on_x = ref_rng.permutation(len(pooled)) < nx
        hits += energy_distance(pooled[on_x], pooled[~on_x]) >= ref_observed
    assert observed == pytest.approx(ref_observed, rel=1e-12, abs=1e-12)
    assert p == (hits + 1) / 50


def test_weak_convergence_requires_disjoint_supports():
    space = GroundSpace.uniform_cells(0.0, 1.0, 4)
    f = WeightFunction.constant(space, 1.0, role="f")
    phis = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 1.0, 1.0, 0.0]])
    batch = [Configuration(space, frozenset({0}))] * 4
    with pytest.raises(ValueError):
        weak_convergence_test([batch], batch, f, phis)


def test_weak_convergence_same_law_verdict():
    rng = _rng(44)
    space = GroundSpace.uniform_cells(0.0, 1.0, 6)
    P = project_span(np.vstack([np.ones(6), space.points]), space)
    D = DppDistribution(P)
    f = WeightFunction.constant(space, 1.0, role="f")
    phis = np.zeros((2, 6))
    phis[0, :3] = 1.0
    phis[1, 3:] = 1.0
    batch_a = sample(D, 100, 200)
    batch_b = sample(D, 200, 200)
    report = weak_convergence_test([batch_a], batch_b, f, phis, seed=3)
    assert report.final_p_value > 0.01
    assert report.to_csv().splitlines()[0] == "n,energy_statistic,p_value"
