"""Finite-rank deformations of projections and weighted-subspace projections.

Given a base projection Q with range L and extra vectors v_1..v_m, the
deformed projection targets L + span(v_1..v_m), built by sequential
orthogonalization of the extras (each new vector must keep a minimum
angle to the current span).  Weighting by sqrt(g) produces the projection
onto sqrt(g)(L + V), which splits as the reweighted base projection plus
a finite-rank remainder orthogonal to it.  The exhaustion suite watches
that remainder die off as indicator weights open up toward the full
space while the grid refines toward the singular endpoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .conditioning import WeightFunction, induced_kernel
from .errors import AngleDegeneracyError, ContractError, DimensionError
from .ground import GroundSpace, Window
from .operators import (
    ConvergenceReport,
    Projection,
    _gram_schmidt,
    convergence_report,
    project_span,
    projection_distance,
    subspace_angle,
)
from .tables import csv_text, step_labels, window_labels

#: Minimum angle (radians) each deformation vector must keep, unless a model or caller sets its own.
DEFAULT_MIN_ANGLE = 0.05

#: Growth of a probe distance between exhaustion rows that ``ExhaustionReport.decreasing`` reads as rounding:
#: the distances are sums of a few eigenvalues of modulus at most 1, each accurate to about 1e-15.
DECREASING_SLACK = 1e-12


@dataclass(frozen=True, eq=False)
class DeformationModel:
    """Base span, finitely many deformation vectors and a core window on a ground space.

    ``basis`` and ``extra`` hold one vector per row, with one value per grid
    point, and are stored as read-only copies.
    """

    space: GroundSpace
    basis: np.ndarray
    extra: np.ndarray
    core_window: Window
    min_angle: float = DEFAULT_MIN_ANGLE
    base_projection: Projection = field(init=False, repr=False)

    def __post_init__(self):
        n = self.space.n
        basis = np.atleast_2d(np.asarray(self.basis, dtype=float)).copy()
        extra = np.asarray(self.extra, dtype=float)
        if extra.size == 0:
            extra = np.zeros((0, n))
        extra = np.atleast_2d(extra).copy()
        if basis.ndim != 2 or basis.shape[1] != n:
            raise DimensionError("basis vectors must have one value per grid point")
        if extra.shape[1] != n:
            raise DimensionError("deformation vectors must have one value per grid point")
        if self.min_angle <= 0:
            raise ValueError("min_angle must be positive")
        self.core_window.validate(self.space)
        basis.flags.writeable = False
        extra.flags.writeable = False
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "extra", extra)
        P = project_span(basis, self.space)
        object.__setattr__(self, "base_projection", P)
        # Enforce the independence condition at construction.
        extend_projection(P, extra, self.min_angle)


def extend_projection(P: Projection, vs, min_angle: float = DEFAULT_MIN_ANGLE) -> Projection:
    """Projection onto range(P) plus the span of the given vectors.

    Each vector's unit residual off the current span is appended to the factor
    as a new column, by the Gram-Schmidt routine behind ``orthonormalize``.  A
    vector whose angle to the current span falls below ``min_angle`` raises
    :class:`AngleDegeneracyError` naming it.
    """
    vs = np.atleast_2d(np.asarray(vs, dtype=float))
    if vs.shape[1] != P.n:
        raise DimensionError("deformation vectors must live on the operator's space")
    rows = list(P.factor.T)
    for k, _, ang in _gram_schmidt(rows, vs * P.space.sqrt_weights, angles=True):
        if ang < min_angle or ang == 0.0:
            raise AngleDegeneracyError(k, ang, min_angle)
    return Projection(P.space, np.column_stack([P.factor, *rows[P.rank :]]))


def perturbation_convergence_suite(
    Pn: list[Projection],
    vn: list,
    P: Projection,
    v,
    windows: list[Window],
    steps=None,
) -> ConvergenceReport:
    """Windowed trace distances of deformed projections to the deformed limit, extended at ``DEFAULT_MIN_ANGLE``."""
    if len(Pn) != len(vn):
        raise DimensionError("need one vector list per projection in the sequence")
    sequence = [extend_projection(Pk, vk) for Pk, vk in zip(Pn, vn)]
    return convergence_report(sequence, extend_projection(P, v), windows, steps)


def sqrtg_subspace_projection(model: DeformationModel, g: WeightFunction) -> tuple[Projection, Projection]:
    """Projection onto sqrt(g) (L + V), split as reweighted base plus remainder.

    Returns ``(Qg, Pg)``: the reweighted base projection Qg and the full
    projection Pg, so the remainder is ``Pg - Qg``.  Pg is computed as Qg
    extended by the sqrt(g)-weighted deformation vectors, so its factor is
    Qg's followed by the remainder's columns.  It is cross-checked against
    a direct projection D onto the concatenated weighted basis: the ranks
    must agree and ||D - Pg D|| (the sine of the largest principal angle,
    which bounds every entry of the difference of the two projections)
    must stay below 1e-8.
    """
    Qg = induced_kernel(g, model.base_projection)
    sg = g.sqrt
    weighted_extra = model.extra * sg
    result = extend_projection(Qg, weighted_extra, model.min_angle)
    direct = project_span(np.vstack([model.basis * sg, weighted_extra]), model.space)
    D, U = direct.factor, result.factor
    if direct.rank != result.rank or np.linalg.svd(D - U @ (U.T @ D), compute_uv=False)[0] > 1e-8:
        raise ContractError("weighted-subspace projection disagrees with the direct span computation")
    return Qg, result


@dataclass(frozen=True, eq=False)
class ExhaustionRow:
    step: object
    angle: float
    distances: tuple[float, ...]
    remainder_probe_norm: float
    angle_ok: bool
    failed: bool = False


@dataclass(frozen=True, eq=False)
class ExhaustionReport:
    rows: tuple[ExhaustionRow, ...]
    window_ids: tuple[str, ...]
    min_angle: float

    @property
    def decreasing(self) -> bool:
        """Whether the probe distances never grow along the rows whose angle holds and that did not fail."""
        ok_rows = [r for r in self.rows if r.angle_ok and not r.failed]
        return all(
            np.all(np.array(b.distances) <= np.array(a.distances) + DECREASING_SLACK)
            for a, b in zip(ok_rows, ok_rows[1:])
        )

    @property
    def verdict(self) -> bool:
        """Whether the distances are ``decreasing`` and every row keeps its angle and did not fail."""
        return self.decreasing and all(r.angle_ok and not r.failed for r in self.rows)

    def to_csv(self) -> str:
        header = ("n", "angle", *(f"distance_{w}" for w in self.window_ids), "probe_norm", "angle_ok")
        rows = ((r.step, r.angle, *r.distances, r.remainder_probe_norm, int(r.angle_ok)) for r in self.rows)
        return csv_text(header, rows)


def _exhaustion_row(
    model: DeformationModel,
    window: Window,
    probe_windows: list[Window],
    probe_vector: np.ndarray,
    step,
) -> ExhaustionRow:
    """One exhaustion step: indicator weight on core + window, distances to the base."""
    space = model.space
    g = WeightFunction.indicator(space, Window(np.concatenate([model.core_window.index_set, window.index_set])))
    chi = g.values
    ang = nan = float("nan")
    try:
        ang = subspace_angle(model.basis * chi, model.extra * chi, space)
        Qg, Pg = sqrtg_subspace_projection(model, g)
    except ContractError:
        return ExhaustionRow(step, ang, (nan,) * len(probe_windows), nan, ang >= model.min_angle, failed=True)
    probe_hat = np.asarray(probe_vector, dtype=float) * space.sqrt_weights
    remainder = Pg.factor[:, Qg.rank :]  # Pg - Qg = E E^T for these orthonormal columns E
    probe_norm = float(np.linalg.norm(remainder.T @ probe_hat))
    distances = tuple(projection_distance(Pg, model.base_projection, w) for w in probe_windows)
    return ExhaustionRow(step, ang, distances, probe_norm, ang >= model.min_angle)


def exhaustion_suite(
    model: DeformationModel,
    windows: list[Window],
    probe_windows: list[Window],
    probe_vector,
    steps=None,
) -> ExhaustionReport:
    """Watch the indicator-weighted projections approach the unperturbed base.

    For each window B_n the weight is the indicator of core union B_n; rows
    report the angle between the weighted base and deformation subspaces, the
    windowed trace distances to the base projection, and the remainder's
    action on the probe vector.  Angle collapse and any :class:`ContractError`
    are reported per row (NaN distances after an error) and the suite continues.
    """
    steps = step_labels(steps, len(windows))
    probe_vector = np.asarray(probe_vector, dtype=float)
    rows = tuple(
        _exhaustion_row(model, w, probe_windows, probe_vector, step) for step, w in zip(steps, windows)
    )
    return ExhaustionReport(rows, window_labels(probe_windows, "w"), model.min_angle)
