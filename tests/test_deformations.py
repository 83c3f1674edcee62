import numpy as np
import pytest

from dense_reference import is_projection
from dpplab import deformations
from dpplab.conditioning import WeightFunction, induced_kernel
from dpplab.deformations import (
    DeformationModel,
    exhaustion_suite,
    extend_projection,
    perturbation_convergence_suite,
    sqrtg_subspace_projection,
)
from dpplab.errors import (
    AngleDegeneracyError,
    ContractError,
    DegenerateBasisError,
    DimensionError,
    EmptyWindowError,
    InducibilityError,
)
from dpplab.ground import GroundSpace, Window
from dpplab.operators import angle, project_span, subspace_angle
from dpplab.suites import scripted_exhaustion_study


def _rng(seed):
    return np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))


def _space(rng, n):
    return GroundSpace(np.cumsum(rng.uniform(0.1, 1.0, n)), rng.uniform(0.5, 1.5, n))


def test_extend_projection_rank_and_membership():
    rng = _rng(30)
    space = _space(rng, 8)
    P = project_span(rng.normal(size=(2, 8)), space)
    vs = rng.normal(size=(2, 8))
    Q = extend_projection(P, vs)
    assert is_projection(Q.counting)
    assert np.linalg.matrix_rank(Q.counting, tol=1e-8) == 4
    for v in vs:
        assert angle(v, Q) < 1e-7
    # the extension dominates the base projection
    assert np.allclose(Q.counting @ P.counting, P.counting, atol=1e-10)


def test_extend_projection_order_invariant():
    rng = _rng(31)
    space = _space(rng, 7)
    P = project_span(rng.normal(size=(2, 7)), space)
    vs = rng.normal(size=(2, 7))
    Q1 = extend_projection(P, vs)
    Q2 = extend_projection(P, vs[::-1])
    assert np.allclose(Q1.entries, Q2.entries, atol=1e-9)


def test_extend_projection_angle_guard():
    rng = _rng(32)
    space = _space(rng, 6)
    basis = rng.normal(size=(2, 6))
    P = project_span(basis, space)
    inside = 0.4 * basis[0] + 0.6 * basis[1]
    with pytest.raises(AngleDegeneracyError) as err:
        extend_projection(P, inside[None, :])
    assert err.value.index == 0
    # a tilted vector passes a loose bound but fails a strict one
    tilted = inside + 0.02 * rng.normal(size=6)
    extend_projection(P, tilted[None, :], min_angle=1e-4)
    with pytest.raises(AngleDegeneracyError):
        extend_projection(P, tilted[None, :], min_angle=1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_extend_projection_names_a_non_finite_vector(bad):
    space = GroundSpace.uniform_cells(0.0, 1.0, 4)
    P = project_span([[1.0, 1.0, 0.0, 0.0]], space)
    with pytest.raises(ValueError, match="vector 1 has a non-finite entry"):
        extend_projection(P, [[0.0, 0.0, 1.0, 0.0], [0.0, 1.0, bad, 1.0]])


def test_model_validates_independence_at_construction():
    rng = _rng(33)
    space = _space(rng, 6)
    basis = rng.normal(size=(2, 6))
    window = Window((0, 1), "core")
    with pytest.raises(AngleDegeneracyError):
        DeformationModel(space, basis, basis[:1].copy(), window)
    with pytest.raises(DimensionError):
        DeformationModel(space, basis[:, :5], np.zeros((0, 6)), window)
    model = DeformationModel(space, basis, np.zeros((0, 6)), window)
    basis[0, 0] += 1.0  # the model holds a read-only copy
    assert not model.basis.flags.writeable and model.basis[0, 0] != basis[0, 0]


def test_weighted_projection_decomposition():
    # the sqrt(g)-weighted extension splits as reweighted base plus an
    # orthogonal finite-rank remainder
    rng = _rng(34)
    space = _space(rng, 8)
    basis = rng.normal(size=(2, 8))
    extra = rng.normal(size=(1, 8))
    model = DeformationModel(space, basis, extra, Window((0, 1), "core"))
    g = WeightFunction(space, rng.uniform(0.3, 1.0, 8))
    Qg, Pg = sqrtg_subspace_projection(model, g)
    assert np.array_equal(Qg.entries, induced_kernel(g, model.base_projection).entries)
    rhat = Pg.counting - Qg.counting
    assert np.allclose(rhat @ rhat, rhat, atol=1e-9)  # remainder is a projection
    assert np.abs(rhat @ Qg.counting).max() < 1e-9  # orthogonal to the reweighted base
    assert np.linalg.matrix_rank(rhat, tol=1e-8) == 1


def test_perturbation_suite_reports_decreasing_distances():
    rng = _rng(35)
    space = _space(rng, 10)
    base = rng.normal(size=(2, 10))
    v = rng.normal(size=(1, 10))
    d1, d2 = rng.normal(size=(2, 10)), rng.normal(size=(1, 10))
    P = project_span(base, space)
    eps = [0.1 / 4**k for k in range(4)]
    Pn = [project_span(base + e * d1, space) for e in eps]
    vn = [v + e * d2 for e in eps]
    windows = [Window.full(space, "all")]
    rep = perturbation_convergence_suite(Pn, vn, P, v, windows)
    assert rep.monotone_flags()["all"]


def test_exhaustion_suite_smoke():
    space = GroundSpace.geometric_cells(1e-8, 1.0, 256)
    x = space.points
    model = DeformationModel(
        space,
        np.vstack([x**0.25]),
        np.vstack([x**-0.75]),
        Window.from_interval(space, 0.5, 1.0, "core"),
    )
    windows = [Window.from_interval(space, b, 0.5, f"[{b:g},0.5)") for b in (1e-2, 1e-4, 1e-6)]
    probes = [Window.from_interval(space, 0.25, 1.0, "probe")]
    phi = (x >= 0.5).astype(float)
    report = exhaustion_suite(model, windows, probes, phi, steps=(1, 2, 3))
    assert len(report.rows) == 3
    assert all(r.angle_ok for r in report.rows)
    assert report.decreasing and report.verdict
    assert report.rows[-1].remainder_probe_norm < report.rows[0].remainder_probe_norm
    csv = report.to_csv()
    assert csv.splitlines()[0].startswith("n,angle,distance_probe")


@pytest.mark.parametrize("k", [2, 3])
def test_exhaustion_study_rejects_grid_without_core_point(k):
    with pytest.raises(EmptyWindowError):
        scripted_exhaustion_study(ks=(k,))


def _exhaustion_model(extra):
    space = GroundSpace.geometric_cells(1e-8, 1.0, 64)
    x = space.points
    model = DeformationModel(space, np.vstack([x**0.25]), extra(x), Window.from_interval(space, 0.5, 1.0))
    return model, [Window.from_interval(space, b, 0.5) for b in (1e-2, 1e-4)], [Window.full(space)], x >= 0.5


def test_exhaustion_rows_of_a_model_without_deformation_vectors():
    model, windows, probes, phi = _exhaustion_model(lambda x: np.zeros((0, x.size)))
    report = exhaustion_suite(model, windows, probes, phi)
    assert [r.step for r in report.rows] == [1, 2]
    for row in report.rows:
        assert (row.angle, row.angle_ok, row.remainder_probe_norm, row.failed) == (np.pi / 2, True, 0.0, False)


def _eight_point_rows(basis, extra, windows):
    """Exhaustion rows on the 8-point grid of (0, 1] with core {6, 7} and the core indicator as probe."""
    space = GroundSpace.uniform_cells(0.0, 1.0, 8)
    model = DeformationModel(space, basis, extra, Window([6, 7], "core"))
    probe = np.where(np.arange(8) >= 6, 1.0, 0.0)
    return model, exhaustion_suite(model, [Window(w) for w in windows], [Window([6, 7])], probe)


def test_an_angle_collapse_gives_a_failed_row_and_the_suite_continues():
    # v is 1 + 1e-3 on {4, 5} and 1 on the core, so weighted on core + {4, 5} it nearly lies in span{1}
    v = np.array([4.0, 4.0, 4.0, 4.0, 1.001, 1.001, 1.0, 1.0])
    model, report = _eight_point_rows(np.ones((1, 8)), v[None, :], [[2, 3, 4, 5], [4, 5], [0, 1, 2, 3, 4, 5]])
    first, collapsed, last = report.rows
    assert 0.0 < collapsed.angle < model.min_angle
    assert collapsed.failed and not collapsed.angle_ok
    assert np.isnan(collapsed.distances).all() and np.isnan(collapsed.remainder_probe_norm)
    assert not first.failed and not last.failed and first.angle_ok and last.angle_ok
    assert last.distances[0] < first.distances[0]
    assert report.decreasing  # the NaN row is skipped, not compared
    assert not report.verdict


def _weighted_base_model(eps):
    """Base {1, c}, c = 4 on points 0-3, 1 on {4, 5} and 1 + eps on the core, deformed by sin 7x."""
    c = np.array([4.0, 4.0, 4.0, 4.0, 1.0, 1.0, 1.0 + eps, 1.0 + eps])
    x = GroundSpace.uniform_cells(0.0, 1.0, 8).points
    return _eight_point_rows(np.vstack([np.ones(8), c]), np.sin(7.0 * x)[None, :], [[4, 5], [0, 1, 2, 3, 4, 5]])


def test_a_weighted_base_that_gram_schmidt_refuses_gives_a_failed_row():
    model, report = _weighted_base_model(1e-6)
    chi = WeightFunction.indicator(model.space, Window([4, 5, 6, 7])).values
    with pytest.raises(DegenerateBasisError):
        subspace_angle(model.basis * chi, model.extra * chi, model.space)
    refused, after = report.rows
    assert refused.failed and not refused.angle_ok and np.isnan(refused.angle)
    assert np.isnan(refused.distances).all()
    assert not after.failed and np.isfinite(after.distances).all()


def test_a_weighted_base_that_the_margin_test_refuses_gives_a_failed_row():
    model, report = _weighted_base_model(1e-5)
    with pytest.raises(InducibilityError):
        sqrtg_subspace_projection(model, WeightFunction.indicator(model.space, Window([4, 5, 6, 7])))
    refused, after = report.rows
    assert refused.failed and refused.angle_ok and refused.angle == pytest.approx(0.471, abs=1e-3)
    assert np.isnan(refused.distances).all() and np.isnan(refused.remainder_probe_norm)
    assert not after.failed and np.isfinite(after.distances).all()


def test_exhaustion_suite_rejects_steps_that_do_not_label_every_window():
    model, windows, probes, phi = _exhaustion_model(lambda x: np.vstack([x**-0.75]))
    with pytest.raises(DimensionError):
        exhaustion_suite(model, windows, probes, phi, steps=(7,))


def test_empty_perturbation_suite_is_an_empty_operator_sequence():
    space = GroundSpace.uniform_cells(0.0, 1.0, 4)
    P = project_span(np.ones((1, 4)), space)
    with pytest.raises(ValueError, match="empty operator sequence"):
        perturbation_convergence_suite([], [], P, np.eye(4)[:1], [Window.full(space)])


def _two_plus_one_model():
    rng = _rng(36)
    space = _space(rng, 6)
    return DeformationModel(space, rng.normal(size=(2, 6)), rng.normal(size=(1, 6)), Window((0, 1), "core"))


@pytest.mark.parametrize(
    "build, error, message",
    [
        (
            lambda m: DeformationModel(m.space, m.basis, m.extra[:, :5], m.core_window),
            DimensionError,
            "deformation vectors must have one value",
        ),
        (lambda m: DeformationModel(m.space, m.basis, m.extra, m.core_window, min_angle=0), ValueError, "positive"),
        (lambda m: extend_projection(m.base_projection, m.extra[:, :5]), DimensionError, "operator's space"),
        (
            lambda m: perturbation_convergence_suite(
                [m.base_projection] * 2, [m.extra], m.base_projection, m.extra, [Window.full(m.space)]
            ),
            DimensionError,
            "one vector list per projection",
        ),
    ],
    ids=["vector length", "zero min_angle", "extension length", "one vector list short"],
)
def test_malformed_deformation_inputs_raise(build, error, message):
    with pytest.raises(error, match=message):
        build(_two_plus_one_model())


def test_weighted_projection_cross_check_rejects_a_disagreeing_direct_span(monkeypatch):
    model = _two_plus_one_model()
    g = WeightFunction(model.space, np.full(model.space.n, 0.5))
    exact = deformations.project_span
    # the direct span loses the deformation row, so its rank falls short of the extension's
    monkeypatch.setattr(deformations, "project_span", lambda basis, space: exact(basis[: len(model.basis)], space))
    with pytest.raises(ContractError, match="direct span computation"):
        sqrtg_subspace_projection(model, g)
