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
from .errors import AngleDegeneracyError, ContractError, DegenerateBasisError, DimensionError
from .ground import GroundSpace, Window
from .operators import (
    ConvergenceReport,
    Projection,
    Subspace,
    _gram_schmidt,
    project_span,
    projection_distance,
    subspace_angle,
)
from .tables import csv_text

#: Minimum angle (radians) each deformation vector must keep, unless a model or caller sets its own.
DEFAULT_MIN_ANGLE = 0.05


@dataclass(frozen=True, eq=False)
class DeformationModel:
    """Base subspace plus finitely many deformation vectors and a core window."""

    base: Subspace
    extra: np.ndarray
    core_window: Window
    min_angle: float = DEFAULT_MIN_ANGLE
    base_projection: Projection = field(init=False, repr=False)

    def __post_init__(self):
        extra = np.asarray(self.extra, dtype=float)
        if extra.size == 0:
            extra = np.zeros((0, self.base.space.n))
        extra = np.atleast_2d(extra).copy()
        if extra.shape[1] != self.base.space.n:
            raise DimensionError("deformation vectors must live on the base space")
        if self.min_angle <= 0:
            raise ValueError("min_angle must be positive")
        self.core_window.validate(self.base.space)
        extra.flags.writeable = False
        object.__setattr__(self, "extra", extra)
        P = project_span(self.base.basis, self.base.space)
        object.__setattr__(self, "base_projection", P)
        # Enforce the independence condition at construction.
        extend_projection(P, extra, self.min_angle)

    @property
    def space(self) -> GroundSpace:
        return self.base.space


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
    if steps is None:
        steps = tuple(range(1, len(Pn) + 1))
    target = extend_projection(P, v)
    table = [
        [projection_distance(extend_projection(Pk, vk), target, w) for w in windows]
        for Pk, vk in zip(Pn, vn)
    ]
    window_ids = tuple(w.description or f"w{j}" for j, w in enumerate(windows))
    return ConvergenceReport(tuple(steps), window_ids, table)


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
    if model.extra.shape[0] == 0:
        return Qg, Qg
    weighted_extra = model.extra * sg
    result = extend_projection(Qg, weighted_extra, model.min_angle)
    direct = project_span(np.vstack([model.base.basis * sg, weighted_extra]), model.space)
    D, U = direct.factor, result.factor
    if direct.rank != result.rank or float(np.linalg.norm(D - U @ (U.T @ D), 2)) > 1e-8:
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
            np.all(np.array(b.distances) <= np.array(a.distances) + 1e-12) for a, b in zip(ok_rows, ok_rows[1:])
        )

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
    nan = float("nan")
    try:
        ang = subspace_angle(model.base.basis * chi, model.extra * chi, space)
    except DegenerateBasisError:
        return ExhaustionRow(step, nan, tuple(nan for _ in probe_windows), nan, False, failed=True)
    angle_ok = ang >= model.min_angle
    try:
        Qg, Pg = sqrtg_subspace_projection(model, g)
    except (AngleDegeneracyError, ContractError):
        return ExhaustionRow(step, ang, tuple(nan for _ in probe_windows), nan, angle_ok, failed=True)
    probe_hat = np.asarray(probe_vector, dtype=float) * space.sqrt_weights
    remainder = Pg.factor[:, Qg.rank :]  # Pg - Qg = E E^T for these orthonormal columns E
    probe_norm = float(np.linalg.norm(remainder.T @ probe_hat))
    distances = tuple(projection_distance(Pg, model.base_projection, w) for w in probe_windows)
    return ExhaustionRow(step, ang, distances, probe_norm, angle_ok)


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
    action on the probe vector.  Angle collapse below the model's bound is
    reported per row and the suite continues.
    """
    if steps is None:
        steps = tuple(range(1, len(windows) + 1))
    probe_vector = np.asarray(probe_vector, dtype=float)
    rows = tuple(
        _exhaustion_row(model, w, probe_windows, probe_vector, step) for step, w in zip(steps, windows)
    )
    window_ids = tuple(w.description or f"w{j}" for j, w in enumerate(probe_windows))
    return ExhaustionReport(rows, window_ids, model.min_angle)
