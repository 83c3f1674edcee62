"""Finite discretizations of a weighted one-dimensional ground space.

A :class:`GroundSpace` is a strictly increasing list of real grid
locations together with strictly positive cell masses.  All inner
products in the package are taken with respect to these masses,
``<u, v> = sum_x u(x) v(x) w_x``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError


def _frozen_array(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class GroundSpace:
    """Grid points and positive cell masses of a discretized measure space."""

    points: np.ndarray
    weights: np.ndarray
    label: str = ""
    sqrt_weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        points = _frozen_array(self.points)
        weights = _frozen_array(self.weights)
        if points.ndim != 1 or weights.ndim != 1:
            raise DimensionError("points and weights must be one-dimensional")
        if points.size < 1:
            raise ValueError("a ground space needs at least one point")
        if points.size != weights.size:
            raise DimensionError("points and weights must have equal length")
        if not (np.isfinite(points).all() and np.isfinite(weights).all()):
            raise ValueError("points and weights must be finite")
        if not (points[1:] > points[:-1]).all():
            raise ValueError("points must be strictly increasing")
        if (weights <= 0).any():
            raise ValueError("all weights must be strictly positive")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)
        sqrt_weights = np.sqrt(weights)
        sqrt_weights.flags.writeable = False
        object.__setattr__(self, "sqrt_weights", sqrt_weights)

    @property
    def n(self) -> int:
        return self.points.size

    def indices_in(self, lo: float, hi: float) -> np.ndarray:
        """Sorted indices of grid points lying in the closed interval [lo, hi]."""
        return np.flatnonzero((self.points >= lo) & (self.points <= hi))

    @classmethod
    def uniform_cells(cls, lo: float, hi: float, n: int, label: str = "") -> "GroundSpace":
        """Uniform partition of (lo, hi] into n cells, points at cell midpoints."""
        h = (hi - lo) / n
        points = lo + h * (np.arange(n) + 0.5)
        return cls(points, np.full(n, h), label=label)

    @classmethod
    def geometric_cells(cls, lo: float, hi: float, n: int, label: str = "") -> "GroundSpace":
        """Geometric partition of [lo, hi] into n cells, midpoint masses."""
        edges = np.geomspace(lo, hi, n + 1)
        points = np.sqrt(edges[:-1] * edges[1:])
        return cls(points, np.diff(edges), label=label)


@dataclass(frozen=True, eq=False)
class Window:
    """A subset of ground-space indices, standing in for a bounded Borel set.

    ``index_set`` is a sorted, duplicate-free, read-only ``np.intp`` array,
    so it indexes grid arrays directly.  Empty windows are representable so
    that windowed diagnostics can report a zero value with a warning instead
    of refusing the computation; test emptiness with ``len(window) == 0``,
    since a one-point window at index 0 is falsy as an array.
    """

    index_set: np.ndarray
    description: str = ""

    def __post_init__(self):
        idx = np.asarray(self.index_set, dtype=np.intp)
        if idx.ndim != 1:
            raise DimensionError("window indices must be one-dimensional")
        idx = np.sort(idx)
        if idx.size and idx[0] < 0:
            raise ValueError("window indices must be nonnegative")
        keep = np.ones(idx.size, dtype=bool)
        keep[1:] = idx[1:] != idx[:-1]
        idx = idx[keep]
        idx.flags.writeable = False
        object.__setattr__(self, "index_set", idx)

    def __len__(self) -> int:
        return self.index_set.size

    def validate(self, space: GroundSpace) -> None:
        if len(self) and self.index_set[-1] >= space.n:
            raise DimensionError(
                f"window '{self.description}' has index {self.index_set[-1]} outside a {space.n}-point space"
            )

    @classmethod
    def from_interval(cls, space: GroundSpace, lo: float, hi: float, description: str = "") -> "Window":
        return cls(space.indices_in(lo, hi), description or f"[{lo:g},{hi:g}]")

    @classmethod
    def full(cls, space: GroundSpace, description: str = "full") -> "Window":
        return cls(np.arange(space.n), description)


def weighted_inner(u, v, space: GroundSpace) -> float:
    """The pairing sum_x u(x) v(x) w_x on the given space."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != (space.n,) or v.shape != (space.n,):
        raise DimensionError(f"vectors must have length {space.n}")
    return float(np.sum(u * v * space.weights))


def weighted_norm(u, space: GroundSpace) -> float:
    return float(np.sqrt(max(weighted_inner(u, u, space), 0.0)))
