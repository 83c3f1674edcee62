import importlib
import pkgutil
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpplab
from dense_reference import energy_distance, permutation_splits
from dpplab import measures
from dpplab.conditioning import WeightFunction, check_inducibility
from dpplab.dpp import DppDistribution, Samples, _philox_generator, sample
from dpplab.errors import ContractError, DimensionError
from dpplab.ground import GroundSpace, Window
from dpplab.measures import (
    TIE_TOLERANCE,
    _queued_split_tables,
    _split_table,
    chebyshev_mass_bound_check,
    linear_statistics,
    permutation_energy_test,
    sigma_f,
    tightness_report,
    weak_convergence_test,
)
from dpplab.operators import (
    KernelOperator,
    Projection,
    local_trace_norm,
    project_span,
    projection_distance,
    subspace_angle,
)


def _rng(seed):
    return np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))


def test_embedding_places_f_mass_on_occupied_points():
    space = GroundSpace.uniform_cells(0.0, 1.0, 5)
    f = WeightFunction(space, np.array([1.0, 2.0, 3.0, 4.0, 5.0]), role="f")
    samples = Samples(space, [[False, True, False, True, False], [False] * 5])
    atoms = sigma_f(samples, f)
    assert atoms.tolist() == [[0.0, 2.0, 0.0, 4.0, 0.0], [0.0] * 5]
    assert atoms.sum(axis=1).tolist() == [6.0, 0.0]
    assert atoms[0, Window((3, 4)).index_set].sum() == 4.0
    with pytest.raises(DimensionError):
        sigma_f(samples, WeightFunction.constant(GroundSpace.uniform_cells(0.0, 2.0, 5), 1.0, role="f"))


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


def test_tightness_margin_of_a_dense_projection_member():
    # a member held as a dense kernel is factored by Projection.from_kernel
    rng = _rng(42)
    space = GroundSpace(np.cumsum(rng.uniform(0.1, 1.0, 8)), rng.uniform(0.5, 1.5, 8))
    P = project_span(rng.normal(size=(3, 8)), space)
    K = KernelOperator.from_counting(space, P.counting)
    factored = Projection.from_kernel(K)
    assert factored.rank == 3
    assert np.max(np.abs(factored.counting - K.counting)) < 1e-12
    f = WeightFunction.constant(space, 1.0, role="f")
    g = WeightFunction(space, rng.uniform(0.3, 1.0, 8))
    rep = tightness_report([K, P], f, [Window(tuple(range(4, 8)))], g=g)
    assert rep.rows[0].margin == pytest.approx(rep.rows[1].margin, abs=1e-12)


@pytest.mark.parametrize("position", [0, 1], ids=["range_vector_first", "range_vector_last"])
def test_tightness_rejects_a_deformation_vector_in_the_range(position):
    rng = _rng(44)
    space = GroundSpace.uniform_cells(0.0, 1.0, 6)
    f = WeightFunction.constant(space, 1.0, role="f")
    basis = rng.normal(size=(2, 6))
    P = project_span(basis, space)
    vs = [rng.normal(size=6)]
    vs.insert(position, 0.3 * basis[0] - 1.7 * basis[1])
    with pytest.raises(ContractError, match=f"deformation vector {position} of member 0"):
        tightness_report([P], f, [Window.full(space)], extra_vectors=[np.array(vs)])


@pytest.mark.parametrize("top", [1.5, 1.0 + 1e-9], ids=["far", "past_the_spectrum_tolerance"])
def test_tightness_rejects_a_dense_member_that_is_not_a_positive_contraction(top):
    space = GroundSpace.uniform_cells(0.0, 1.0, 6)
    f = WeightFunction.constant(space, 1.0, role="f")
    good = KernelOperator.from_counting(space, np.diag([0.2, 0.4, 0.6, 0.8, 1.0, 0.0]))
    bad = KernelOperator.from_counting(space, np.diag([0.2, 0.4, 0.6, 0.8, top, 0.0]))
    with pytest.raises(ContractError, match="family member 1: .* is not a contraction"):
        tightness_report([good, bad, good], f, [Window.full(space)])


@pytest.mark.parametrize("shape", [(1, 5), (7,), (2, 1, 6)])
def test_tightness_rejects_deformation_vectors_of_another_length(shape):
    space = GroundSpace.uniform_cells(0.0, 1.0, 6)
    f = WeightFunction.constant(space, 1.0, role="f")
    P = project_span(_rng(45).normal(size=(2, 6)), space)
    with pytest.raises(DimensionError, match="member 0"):
        tightness_report([P], f, [Window.full(space)], extra_vectors=[np.ones(shape)])


def test_tail_traces_shrink_with_window():
    rng = _rng(40)
    space = GroundSpace.uniform_cells(0.0, 1.0, 10)
    f = WeightFunction.constant(space, 1.0, role="f")
    P = project_span(rng.normal(size=(3, 10)), space)
    tails = [Window.from_interval(space, t, 1.0, f"x>{t}") for t in (0.3, 0.6, 0.9)]
    row = tightness_report([P], f, tails).rows[0]
    assert row.tail_traces[0] >= row.tail_traces[1] >= row.tail_traces[2]
    assert row.trace == pytest.approx(3.0, abs=1e-9)  # rank of the projection


def test_one_point_window_at_index_zero():
    # a one-point window at index 0 holds a falsy array; every windowed sum must still see the point
    rng = _rng(42)
    space = GroundSpace.uniform_cells(0.0, 1.0, 6)
    w0 = Window((0,))
    P, Q = (project_span(rng.normal(size=(2, 6)), space) for _ in range(2))
    f = WeightFunction(space, rng.uniform(0.5, 2.0, 6), role="f")
    vs = rng.normal(size=(1, 6))
    assert local_trace_norm(P, w0) == pytest.approx(P.counting[0, 0], rel=1e-12)
    assert projection_distance(P, Q, w0) == pytest.approx(abs(P.counting[0, 0] - Q.counting[0, 0]), rel=1e-10)
    assert sigma_f(Samples(space, np.ones((1, 6), dtype=bool)), f)[:, w0.index_set].sum() == f.values[0]
    assert WeightFunction.indicator(space, w0).values.tolist() == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    row = tightness_report([P], f, [w0], extra_vectors=[vs]).rows[0]
    assert row.tail_traces == (np.sum(P.factor[0] ** 2) * f.values[0],)  # a projection's diagonal is its row norms
    assert row.vector_tails == ((f.values[0] * vs[0, 0] ** 2 * space.weights[0],),)


@pytest.mark.parametrize("f_points", [6, 7], ids=["same_n", "different_n"])
def test_measures_reject_weights_on_another_space(f_points):
    rng = _rng(43)
    space = GroundSpace.uniform_cells(0.0, 1.0, 6)
    P = project_span(rng.normal(size=(2, 6)), space)
    f = WeightFunction.constant(GroundSpace.uniform_cells(0.0, 3.0, f_points), 1.0, role="f")
    samples = sample(DppDistribution(P), 3, 20)
    with pytest.raises(DimensionError):
        tightness_report([P], f, [Window.full(space)])
    with pytest.raises(DimensionError):
        chebyshev_mass_bound_check(DppDistribution(P), f, 1.0, samples)
    with pytest.raises(DimensionError):
        linear_statistics(samples, f, np.ones(f_points))


def test_linear_statistics_rejects_test_functions_of_another_length():
    space = GroundSpace.uniform_cells(0.0, 1.0, 5)
    f = WeightFunction.constant(space, 1.0, role="f")
    samples = Samples(space, np.zeros((3, 5), dtype=bool))
    with pytest.raises(DimensionError):
        linear_statistics(samples, f, np.ones((2, 4)))


def test_chebyshev_check_rejects_no_samples():
    space = GroundSpace.uniform_cells(0.0, 1.0, 5)
    P = project_span(np.ones((1, 5)), space)
    f = WeightFunction.constant(space, 1.0, role="f")
    with pytest.raises(ValueError, match="no samples"):
        chebyshev_mass_bound_check(DppDistribution(P), f, 1.0, Samples(space, np.zeros((0, 5), dtype=bool)))


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
    samples = Samples(space, [[True, False, False, False], [True, True, False, False]])
    stats = linear_statistics(samples, f, phis)
    assert stats.shape == (2, 2)
    assert stats.tolist() == [[2.0, 0.0], [2.0, 2.0]]


def test_linear_statistics_match_embedding_loop():
    rng = _rng(45)
    space = GroundSpace.uniform_cells(0.0, 1.0, 7)
    f = WeightFunction(space, rng.uniform(0.1, 2.0, 7), role="f")
    phis = rng.normal(size=(3, 7))
    samples = Samples(space, [rng.random(7) < q for q in (0.0, 0.3, 0.6, 1.0) * 5])
    stats = linear_statistics(samples, f, phis)
    loop = np.array(
        [[sum(f.values[i] * phi[i] for i in np.flatnonzero(row)) for phi in phis] for row in samples.occupancy]
    )
    np.testing.assert_allclose(stats, loop, rtol=1e-13, atol=1e-13)
    assert linear_statistics(Samples(space, np.zeros((0, 7), dtype=bool)), f, phis).shape == (0, 3)


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


def _split_by_split(X, Y, permutations, rng):
    """Score every permuted split with energy_distance under the tie rule of permutation_energy_test."""
    pooled = np.vstack([X, Y])
    observed = energy_distance(X, Y)
    mean_distance = np.linalg.norm(pooled[:, None, :] - pooled[None, :, :], axis=-1).mean()
    hits = 0
    for _ in range(permutations):
        on_x = rng.permutation(len(pooled)) < len(X)
        hits += energy_distance(pooled[on_x], pooled[~on_x]) >= observed - TIE_TOLERANCE * mean_distance
    return observed, (hits + 1) / (permutations + 1)


@st.composite
def tied_samples(draw):
    """Two samples of integer rows, mostly over a small alphabet as bin counts give."""
    rows = draw(st.sampled_from(["alphabet", "one row", "all distinct"]))
    nx = draw(st.integers(2, 25))
    ny = nx if draw(st.booleans()) else draw(st.integers(2, 25))
    dim = draw(st.integers(1, 3))
    src = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if rows == "alphabet":
        pooled = src.integers(0, draw(st.integers(2, 5)), size=(nx + ny, dim))
    elif rows == "one row":
        pooled = np.broadcast_to(src.integers(0, 5, size=dim), (nx + ny, dim))
    else:
        pooled = np.column_stack([src.permutation(nx + ny), src.integers(0, 5, size=(nx + ny, dim - 1))])
    pooled = pooled.astype(float)
    return pooled[:nx], pooled[nx:], draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 1000),
    data=st.data(),
    permutations=st.integers(0, 50),
    seed=st.integers(0, 2**64 - 1),
)
def test_split_table_matches_a_loop_of_permutation_calls(n, data, permutations, seed):
    nx = data.draw(st.integers(0, n))
    rng, ref_rng = _rng(seed), _rng(seed)
    table = _split_table(n, nx, permutations, rng)
    assert table.shape == (permutations + 1, n)
    assert np.array_equal(table[0], np.arange(n) < nx)
    assert np.array_equal(table[1:], permutation_splits(n, nx, permutations, ref_rng))
    assert np.array_equal(rng.random(3), ref_rng.random(3))  # the generator ends where the loop leaves it


@settings(max_examples=80, deadline=None, derandomize=True)
@given(tied_samples())
def test_permutation_test_on_tied_rows_matches_split_by_split_loop(case):
    X, Y, seed = case
    observed, p = permutation_energy_test(X, Y, 39, _rng(seed))
    ref_observed, ref_p = _split_by_split(X, Y, 39, _rng(seed))
    assert abs(observed - ref_observed) <= 1e-12
    assert p == ref_p


class _ScriptedPermutations:
    """Stands in for a Generator whose permutations are given in advance, as the rows ``permuted`` writes."""

    def __init__(self, permutations):
        self._permutations = np.array(permutations)

    def permuted(self, x, axis, out):
        out[...] = self._permutations
        return out


def test_permutation_test_counts_identity_and_swapped_splits_as_hits():
    src = np.random.default_rng(0)
    X = src.integers(0, 3, size=(20, 3)).astype(float)
    Y = src.integers(0, 3, size=(20, 3)).astype(float)
    identity = np.arange(40)
    swapped = np.roll(identity, 20)
    _, p = permutation_energy_test(X, Y, 2, _ScriptedPermutations([identity, swapped]))
    assert p == 1.0


@pytest.mark.parametrize("seed", [1, 2])
def test_permutation_p_value_is_translation_invariant(seed):
    """Translated rows round their distances differently; the p-value must not move."""
    src = np.random.default_rng(seed)
    X = src.integers(0, 3, size=(4, 1)).astype(float)
    Y = src.integers(0, 3, size=(4, 1)).astype(float)
    pooled = np.vstack([X, Y])
    assert not np.array_equal(np.abs(pooled - pooled.T), np.abs((pooled + 0.3) - (pooled + 0.3).T))
    _, p = permutation_energy_test(X, Y, 199, _rng(seed))
    _, p_shifted = permutation_energy_test(X + 0.3, Y + 0.3, 199, _rng(seed))
    assert p == p_shifted


def test_weak_convergence_requires_disjoint_supports():
    space = GroundSpace.uniform_cells(0.0, 1.0, 4)
    f = WeightFunction.constant(space, 1.0, role="f")
    phis = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 1.0, 1.0, 0.0]])
    batch = Samples(space, [[True, False, False, False]] * 4)
    with pytest.raises(ValueError):
        weak_convergence_test([batch], batch, f, phis)


def test_weak_convergence_requires_batches_of_equal_size():
    space = GroundSpace.uniform_cells(0.0, 1.0, 4)
    f = WeightFunction.constant(space, 1.0, role="f")
    phis = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]])
    batch = Samples(space, [[True, False, True, False]] * 4)
    short = Samples(space, [[True, False, True, False]] * 3)
    with pytest.raises(ValueError, match="equal size"):
        weak_convergence_test([batch, short], batch, f, phis)


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


def test_weak_convergence_rejects_steps_that_do_not_label_every_batch():
    space = GroundSpace.uniform_cells(0.0, 1.0, 4)
    f = WeightFunction.constant(space, 1.0, role="f")
    phis = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]])
    batch = Samples(space, [[True, False, True, False]] * 4)
    with pytest.raises(DimensionError):
        weak_convergence_test([batch] * 3, batch, f, phis, steps=(5,))


def _rank2_on_four_points():
    space = GroundSpace.uniform_cells(0.0, 1.0, 4)
    D = DppDistribution(project_span(np.vstack([np.ones(4), space.points]), space))
    return D, WeightFunction.constant(space, 1.0, role="f")


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda D, f: tightness_report([], f, [Window.full(D.space)]), "empty kernel family"),
        (lambda D, f: chebyshev_mass_bound_check(D, f, 0.0, sample(D, 1, 10)), "must be positive"),
        (lambda D, f: weak_convergence_test([], sample(D, 1, 10), f, np.eye(4)[:2]), "empty batch sequence"),
    ],
    ids=["no kernels", "mass level 0", "no batches"],
)
def test_empty_or_degenerate_measure_inputs_raise(build, message):
    with pytest.raises(ValueError, match=message):
        build(*_rank2_on_four_points())


def _four_point_batches(count):
    """A limit batch and ``count`` batches of 200 draws of a rank-2 projection on 4 points, and f and the bins."""
    D, f = _rank2_on_four_points()
    batches = [sample(D, seed, 200) for seed in range(count + 1)]
    return batches[1:], batches[0], f, np.eye(4)[:2]


@pytest.mark.parametrize("permutations", [0, -1, -5])
def test_a_permutation_count_below_one_raises_before_any_draw(permutations, monkeypatch):
    drawn = []
    monkeypatch.setattr(measures, "_split_table", lambda *args: drawn.append(args))
    batches, limit, f, phis = _four_point_batches(1)
    message = re.escape(f"at least 1 permutation, got {permutations}")
    X = np.zeros((3, 1))
    with pytest.raises(ValueError, match=message):
        permutation_energy_test(X, X, permutations, _rng(0))
    with pytest.raises(ValueError, match=message):
        weak_convergence_test(batches, limit, f, phis, permutations=permutations)
    assert drawn == []


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 300),
    data=st.data(),
    permutations=st.integers(1, 40),
    seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=3, unique=True),
)
def test_split_tables_queued_on_the_draw_thread_match_calls_on_the_calling_thread(n, data, permutations, seeds):
    """Tables queued on shared generators, interleaved, are each generator's loop of ``_split_table`` calls."""
    nx = data.draw(st.integers(0, n))
    order = data.draw(st.lists(st.integers(0, len(seeds) - 1), min_size=1, max_size=8))
    rngs, ref_rngs = [_rng(s) for s in seeds], [_rng(s) for s in seeds]
    ahead = measures._SPLIT_AHEAD_BYTES
    measures._SPLIT_AHEAD_BYTES = data.draw(st.sampled_from([ahead, 1]))  # all tables queued at once, or one
    try:
        with _queued_split_tables(n, nx, permutations, [rngs[i] for i in order]) as tables:
            drawn = list(tables)
    finally:
        measures._SPLIT_AHEAD_BYTES = ahead
    assert len(drawn) == len(order)
    for i, table in zip(order, drawn):
        assert np.array_equal(table, _split_table(n, nx, permutations, ref_rngs[i]))
    for rng, ref_rng in zip(rngs, ref_rngs):
        np.testing.assert_equal(rng.bit_generator.state, ref_rng.bit_generator.state)


def _numbers(report):
    return report.statistics, report.p_values


def _on_the_calling_thread(batches, limit, f, phis, seed):
    """``weak_convergence_test``'s statistics and p-values, drawn by ``permutation_energy_test`` on this thread."""
    rng = _philox_generator(seed, 0)
    limit_stats = linear_statistics(limit, f, phis)
    tests = [permutation_energy_test(linear_statistics(b, f, phis), limit_stats, 199, rng) for b in batches]
    return tuple(zip(*tests))


def test_concurrent_weak_convergence_tests_each_get_a_lone_calls_numbers():
    """More callers than cores queue on the one draw thread at once, switching threads every 10 us."""
    batches, limit, f, phis = _four_point_batches(4)
    seeds = (5, 6, 7)
    lone = {seed: _on_the_calling_thread(batches, limit, f, phis, seed) for seed in seeds}
    start = threading.Barrier(len(seeds))
    results = {}

    def run(seed):
        start.wait()
        results[seed] = _numbers(weak_convergence_test(batches, limit, f, phis, seed=seed))

    threads = [threading.Thread(target=run, args=(seed,)) for seed in seeds]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == lone


class _DrawFailure(RuntimeError):
    pass


def test_an_error_in_a_queued_draw_reaches_the_caller_and_leaves_the_next_call_intact(monkeypatch):
    batches, limit, f, phis = _four_point_batches(3)
    expected = _on_the_calling_thread(batches, limit, f, phis, 9)
    threads = []

    def failing_draw(*args):
        threads.append(threading.current_thread())
        if len(threads) == 2:
            raise _DrawFailure("second draw")
        return _split_table(*args)

    monkeypatch.setattr(measures, "_split_table", failing_draw)
    with pytest.raises(_DrawFailure, match="second draw"):
        weak_convergence_test(batches, limit, f, phis, seed=9)
    assert threading.current_thread() not in threads
    monkeypatch.undo()
    assert _numbers(weak_convergence_test(batches, limit, f, phis, seed=9)) == expected


def _draw_thread_idle():
    """Wait until every draw queued so far has run or been cancelled: the one draw thread takes them in order."""
    measures._SPLIT_DRAWS.submit(lambda: None).result(timeout=30)


def _held_draws(monkeypatch, on_caller=_split_table):
    """Patch ``measures._split_table`` so that draw-thread draws wait until the calling thread has drawn a table.

    Returns the (thread, generator) of each draw, in the order the draws
    started, and the event that releases the draw thread, which the
    calling thread's first draw sets when it returns.
    """
    caller, drawn, caller_drew = threading.current_thread(), [], threading.Event()

    def held_draw(*args):
        drawn.append((threading.current_thread(), args[3]))
        if threading.current_thread() is not caller:
            caller_drew.wait(timeout=10)
            return _split_table(*args)
        table = on_caller(*args)
        caller_drew.set()
        return table

    monkeypatch.setattr(measures, "_split_table", held_draw)
    return drawn, caller_drew


@pytest.mark.parametrize("views", [False, True], ids=["one generator each", "a generator per table"])
@pytest.mark.parametrize("order", [[0, 1, 0], [0, 1, 2, 3], [0, 1, 1, 2, 0]], ids=str)
def test_the_calling_thread_draws_the_last_table_whose_generator_no_other_queued_draw_uses(monkeypatch, order, views):
    """Tables and end states are the loop's when the caller must take a table: the draw thread is held until it has.

    With ``views`` each table gets its own ``Generator`` over its stream's
    bit generator, so tables of one stream share no ``Generator`` object.
    """
    rngs, ref_rngs = [_rng(s) for s in range(max(order) + 1)], [_rng(s) for s in range(max(order) + 1)]
    expected = [_split_table(30, 12, 9, ref_rngs[i]) for i in order]
    drawn, _ = _held_draws(monkeypatch)
    queue = [np.random.Generator(rngs[i].bit_generator) if views else rngs[i] for i in order]
    with _queued_split_tables(30, 12, 9, queue) as tables:
        got = list(tables)
    _draw_thread_idle()
    assert all(np.array_equal(a, b) for a, b in zip(got, expected)) and len(got) == len(order)
    for rng, ref_rng in zip(rngs, ref_rngs):
        np.testing.assert_equal(rng.bit_generator.state, ref_rng.bit_generator.state)
    assert len(drawn) == len(order)
    # no table has arrived before the caller's first draw, so every generator queued twice is still shared
    unshared = [i for i in order if order.count(i) == 1]
    on_caller = [rng for thread, rng in drawn if thread is threading.current_thread()]
    assert on_caller and on_caller[0].bit_generator is rngs[unshared[-1]].bit_generator


def test_an_error_in_a_draw_the_caller_took_reaches_it_and_cancels_the_queued_draws(monkeypatch):
    def failing_draw(*args):
        raise _DrawFailure("drawn on the calling thread")

    drawn, release = _held_draws(monkeypatch, on_caller=failing_draw)
    rngs = [_rng(s) for s in range(4)]
    with pytest.raises(_DrawFailure, match="drawn on the calling thread"):
        with _queued_split_tables(30, 12, 9, rngs) as tables:
            list(tables)
    release.set()
    _draw_thread_idle()
    caller = threading.current_thread()
    assert [rng for thread, rng in drawn if thread is caller] == [rngs[-1]]
    # the draw thread draws at most the first table, if it had started it; the cancelled ones never
    assert [rng for thread, rng in drawn if thread is not caller] in ([], [rngs[0]])
    monkeypatch.undo()
    rngs, ref_rngs = [_rng(s) for s in range(4)], [_rng(s) for s in range(4)]
    with _queued_split_tables(30, 12, 9, rngs) as tables:
        got = list(tables)
    assert all(np.array_equal(a, _split_table(30, 12, 9, ref)) for a, ref in zip(got, ref_rngs))


def test_no_module_but_measures_binds_the_split_draw():
    # perfbench's tracer wraps a private function once another dpplab module binds it, and its span
    # stack is not thread-safe, while _split_table runs on the draw thread and the calling thread
    names = [module.name for module in pkgutil.iter_modules(dpplab.__path__)]
    assert [name for name in names if "_split_table" in vars(importlib.import_module(f"dpplab.{name}"))] == ["measures"]
