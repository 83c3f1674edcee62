import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpplab.errors import DimensionError
from dpplab.ground import GroundSpace, Window, weighted_inner, weighted_norm


def test_uniform_cells_midpoints_and_weights():
    space = GroundSpace.uniform_cells(0.0, 1.0, 4)
    assert np.allclose(space.points, [0.125, 0.375, 0.625, 0.875])
    assert np.allclose(space.weights, 0.25)
    assert space.n == 4


def test_geometric_cells_cover_the_interval():
    space = GroundSpace.geometric_cells(1e-6, 1.0, 64)
    assert np.all(np.diff(space.points) > 0)
    assert space.weights.sum() == pytest.approx(1.0 - 1e-6)
    assert np.all(space.weights > 0)


def test_points_must_increase():
    with pytest.raises(ValueError, match="strictly increasing"):
        GroundSpace(np.array([1.0, 1.0, 2.0]), np.ones(3))
    with pytest.raises(ValueError, match="strictly increasing"):
        GroundSpace(np.array([2.0, 1.0]), np.ones(2))


def test_weights_must_be_positive():
    with pytest.raises(ValueError, match="strictly positive"):
        GroundSpace(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="strictly positive"):
        GroundSpace(np.array([0.0, 1.0]), np.array([1.0, -2.0]))


@pytest.mark.parametrize(
    "points, weights",
    [
        ([0.5, np.nan, 2.0], [1.0, 1.0, 1.0]),
        ([0.5, 1.0, np.inf], [1.0, 1.0, 1.0]),
        ([0.5, 1.0, 2.0], [1.0, np.nan, 1.0]),
        ([0.5, 1.0, 2.0], [1.0, np.inf, 1.0]),
    ],
)
def test_non_finite_points_and_weights_rejected(points, weights):
    with pytest.raises(ValueError, match="finite"):
        GroundSpace(np.array(points), np.array(weights))


def test_arrays_are_frozen():
    space = GroundSpace.uniform_cells(0.0, 1.0, 3)
    with pytest.raises(ValueError):
        space.points[0] = 7.0


def test_sqrt_weights_cached():
    space = GroundSpace(np.array([1.0, 2.0]), np.array([4.0, 9.0]))
    assert np.allclose(space.sqrt_weights, [2.0, 3.0])


def test_arrays_are_read_only_copies_of_the_callers():
    rng = np.random.default_rng(5)
    points, weights = np.cumsum(rng.uniform(0.1, 1.0, 20)), rng.uniform(0.0, 2.0, 20) + 1e-3
    want_points, want_weights = points.copy(), weights.copy()
    space = GroundSpace(points, weights)
    points[:], weights[:] = -1.0, 7.0  # mutating the caller's arrays after construction changes nothing
    assert space.points.tobytes() == want_points.tobytes() and space.weights.tobytes() == want_weights.tobytes()
    assert space.sqrt_weights.tobytes() == np.sqrt(want_weights).tobytes()
    for arr in (space.points, space.weights, space.sqrt_weights):
        assert arr.dtype == float and not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.5
    again = GroundSpace(space.points, [1.0] * 20)  # a read-only array or a list is copied too
    assert not np.shares_memory(again.points, space.points) and again.weights.dtype == float


def test_indices_in():
    space = GroundSpace.uniform_cells(0.0, 1.0, 10)
    idx = space.indices_in(0.0, 0.5)
    assert np.array_equal(idx, range(5))


def test_window_from_interval_and_full():
    space = GroundSpace.uniform_cells(0.0, 1.0, 10)
    w = Window.from_interval(space, 0.0, 0.3, "left")
    assert np.array_equal(w.index_set, (0, 1, 2))
    full = Window.full(space)
    assert len(full) == 10


def test_empty_window_is_allowed():
    space = GroundSpace.uniform_cells(0.0, 1.0, 5)
    w = Window.from_interval(space, 2.0, 3.0, "empty")
    assert len(w) == 0
    w.validate(space)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    idx=st.lists(st.integers(0, 40), max_size=30),
    n=st.integers(1, 40),
    lo=st.floats(-0.2, 1.2),
    width=st.floats(0.0, 1.4),
)
def test_window_matches_set_forms(idx, n, lo, width):
    w = Window(idx)
    assert w.index_set.dtype == np.intp and not w.index_set.flags.writeable
    assert w.index_set.tolist() == sorted(set(idx))
    assert len(w) == len(set(idx))
    space = GroundSpace.uniform_cells(0.0, 1.0, n)
    hi = lo + width
    expected = [i for i, x in enumerate(space.points) if lo <= x <= hi]
    assert Window.from_interval(space, lo, hi).index_set.tolist() == expected
    assert Window.full(space).index_set.tolist() == list(range(n))
    with pytest.raises(ValueError, match="nonnegative"):
        Window(idx + [-1 - len(idx)])


def test_window_validate_rejects_out_of_range():
    space = GroundSpace.uniform_cells(0.0, 1.0, 3)
    with pytest.raises(DimensionError):
        Window((0, 5)).validate(space)


def test_weighted_inner_matches_manual_sum():
    rng = np.random.Generator(np.random.Philox(key=np.array([3, 0], dtype=np.uint64)))
    space = GroundSpace(np.sort(rng.uniform(0, 1, 6)), rng.uniform(0.5, 2.0, 6))
    u, v = rng.normal(size=(2, 6))
    assert weighted_inner(u, v, space) == pytest.approx(np.sum(u * v * space.weights))
    assert weighted_norm(u, space) == pytest.approx(np.sqrt(np.sum(u**2 * space.weights)))


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: GroundSpace(np.zeros((2, 2)), np.ones((2, 2))), DimensionError, "one-dimensional"),
        (lambda: GroundSpace([], []), ValueError, "at least one point"),
        (lambda: GroundSpace([0.0, 1.0], [1.0]), DimensionError, "equal length"),
        (lambda: Window([[0, 1]]), DimensionError, "one-dimensional"),
        (
            lambda: weighted_inner(np.ones(3), np.ones(2), GroundSpace.uniform_cells(0.0, 1.0, 3)),
            DimensionError,
            "length 3",
        ),
    ],
    ids=["2-d points", "no points", "unequal lengths", "2-d window", "inner on a short vector"],
)
def test_malformed_ground_inputs_raise(build, error, message):
    with pytest.raises(error, match=message):
        build()
