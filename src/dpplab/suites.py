"""Scripted experiment batteries behind the acceptance diagnostics and the CLI.

Every driver here is deterministic given its seed: random inputs come from
counter-based Philox streams keyed by (seed, trial), so trials are
reproducible individually and independent of execution order.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields

import numpy as np
from scipy import special

from .conditioning import WeightFunction, induced_kernel, normalization_constant, reweighted_distribution
from .deformations import DEFAULT_MIN_ANGLE, DeformationModel, ExhaustionReport, exhaustion_suite
from .deformations import perturbation_convergence_suite
from .dpp import DppDistribution, brute_force_distribution, sample, sample_batches, total_variation
from .dpp import _philox_generator
from .errors import DegenerateBasisError, EmptyWindowError
from .ground import GroundSpace, Window, weighted_norm
from .operators import ConvergenceReport, KernelOperator, project_span
from .measures import (
    TightnessReport,
    WeakConvergenceReport,
    _energy_test,
    _queued_split_tables,
    _weak_convergence_report,
    _weighted_diagonal,
    chebyshev_mass_bound_check,
    linear_statistics,
    tightness_report,
)
from .scaling import ScalingReport, heine_mehler_suite, jacobi_polynomials
from .tables import csv_text

#: Largest total-variation, normalization and elementwise projection errors the oracle battery passes with.
ORACLE_TV_TOLERANCE = 1e-9
ORACLE_NORMALIZATION_TOLERANCE = 1e-10
ORACLE_PROJECTION_TOLERANCE = 1e-9

#: The windows (label, lo, hi) of the scripted perturbation suite on (0, 1].
PERTURBATION_WINDOWS = (("full", 0.0, 1.0), ("left", 0.0, 0.5))

#: Draws per kernel and base seed of ``scripted_chebyshev_checks``.
CHEBYSHEV_SAMPLES = 2000
CHEBYSHEV_SEED = 97


def random_ground_space(rng: np.random.Generator, n: int) -> GroundSpace:
    points = np.cumsum(rng.uniform(0.1, 1.0, size=n))
    weights = rng.uniform(0.5, 1.5, size=n)
    return GroundSpace(points, weights)


@dataclass(frozen=True)
class OracleTrial:
    trial: int
    n_points: int
    rank: int
    tv_distance: float
    normalization_error: float
    projection_error: float


@dataclass(frozen=True, eq=False)
class OracleBatteryReport:
    """The oracle trials; maxima and verdict are read off them against the ``ORACLE_*`` tolerances."""

    trials: tuple[OracleTrial, ...]

    @property
    def max_tv(self) -> float:
        return max(t.tv_distance for t in self.trials)

    @property
    def max_normalization_error(self) -> float:
        return max(t.normalization_error for t in self.trials)

    @property
    def max_projection_error(self) -> float:
        return max(t.projection_error for t in self.trials)

    @property
    def passed(self) -> bool:
        return (
            self.max_tv < ORACLE_TV_TOLERANCE
            and self.max_normalization_error < ORACLE_NORMALIZATION_TOLERANCE
            and self.max_projection_error < ORACLE_PROJECTION_TOLERANCE
        )

    def summary(self) -> str:
        good = sum(
            1
            for t in self.trials
            if t.tv_distance < ORACLE_TV_TOLERANCE and t.normalization_error < ORACLE_NORMALIZATION_TOLERANCE
        )
        return (
            f"{good}/{len(self.trials)} trials TV < {ORACLE_TV_TOLERANCE:g} "
            f"(max TV {self.max_tv:.3e}, max normalization error {self.max_normalization_error:.3e}, "
            f"max projection error {self.max_projection_error:.3e})"
        )

    def to_csv(self) -> str:
        return csv_text([f.name for f in fields(OracleTrial)], map(astuple, self.trials))


def conditioning_oracle_battery(
    trials: int = 500,
    seed: int = 20240,
    max_points: int = 10,
    max_rank: int = 3,
    g_low: float = 0.05,
) -> OracleBatteryReport:
    """Reweighting oracle: the induced-kernel law must match brute-force reweighting.

    Each trial draws a random weighted space, a random low-rank projection
    and a random conditioning weight bounded away from zero, then compares
    the brute-force law of the induced kernel with the directly reweighted,
    renormalized brute-force law of the base projection, and checks the
    closed-form normalization determinant and the weighted-span projection
    identity.  The report judges them against the ``ORACLE_*`` tolerances.

    Trial t reads the Philox stream keyed (seed, t): n, the rank, the
    space, then a Gaussian basis and g.  While ``project_span`` rejects the
    basis or its sqrt(g)-weighted copy as numerically dependent, the trial
    draws its basis and g again from the same stream, so a trial that
    needs no redraw keeps its draws.
    """
    results = []
    for trial in range(trials):
        rng = _philox_generator(seed, trial)
        n = int(rng.integers(2, max_points + 1))
        rank = int(rng.integers(1, min(max_rank, n) + 1))
        space = random_ground_space(rng, n)
        while True:
            basis = rng.normal(size=(rank, n))
            g = WeightFunction(space, rng.uniform(g_low, 1.0, size=n))
            try:
                P = project_span(basis, space)
                direct = project_span(basis * g.sqrt, space)
            except DegenerateBasisError:
                continue
            break

        reweighted, mean_psi = reweighted_distribution(g, brute_force_distribution(DppDistribution(P)))
        B = induced_kernel(g, P)
        tv = total_variation(reweighted, brute_force_distribution(DppDistribution(B)))
        norm_err = abs(normalization_constant(g, P) - mean_psi)
        proj_err = float(np.abs(B.entries - direct.entries).max())
        results.append(OracleTrial(trial, n, rank, tv, norm_err, proj_err))
    return OracleBatteryReport(tuple(results))


# ---------------------------------------------------------------------------
# Finite-rank perturbation script


def scripted_perturbation_suite(n_list=(2, 4, 8, 16, 32, 64), grid_points: int = 32) -> ConvergenceReport:
    """Deformed projections converging to a deformed limit at rate n^{-4}, on ``PERTURBATION_WINDOWS``."""
    space = GroundSpace.uniform_cells(0.0, 1.0, grid_points)
    x = space.points
    base = np.vstack([np.sin(np.pi * x), x * (1.0 - x)])
    v = np.vstack([np.cos(3.0 * np.pi * x)])
    d_basis = np.vstack([np.cos(np.pi * x), np.sin(2.0 * np.pi * x)])
    d_vec = np.vstack([x**2])
    P = project_span(base, space)
    Pn = [project_span(base + 0.1 * n**-4 * d_basis, space) for n in n_list]
    vn = [v + 0.1 * n**-4 * d_vec for n in n_list]
    windows = [Window.from_interval(space, lo, hi, label) for label, lo, hi in PERTURBATION_WINDOWS]
    return perturbation_convergence_suite(Pn, vn, P, v, windows, steps=n_list)


# ---------------------------------------------------------------------------
# Exhaustion-under-refinement script


def exhaustion_model(space: GroundSpace, core_window: Window, min_angle: float) -> DeformationModel:
    """Bounded base span plus an x^{-3/4} deformation vector on a positive grid."""
    x = space.points
    basis = np.vstack([x**0.25, x**0.25 * (1.0 - x)])
    return DeformationModel(space, basis, np.vstack([x**-0.75]), core_window, min_angle)


def scripted_exhaustion_study(ks=(8, 9, 10, 11, 12), min_angle: float = DEFAULT_MIN_ANGLE) -> ExhaustionReport:
    """Grid-refinement exhaustion: indicator windows opening toward the singular endpoint.

    For each k, a geometric grid of 2^k points reaches down to 10^-(k+4); the
    deformation vector x^{-3/4} then has diverging weighted norm (the finite
    stand-in for a deformation outside L2), while the indicator window
    [10^-(k+1), 1] keeps excluding the region carrying most of that norm.
    Raises :class:`EmptyWindowError` when a grid has no point in the core
    window [0.5, 1], as the grids of 2^2 and 2^3 points do, and
    ``ValueError`` when ``ks`` is not strictly increasing.
    """
    if any(b <= a for a, b in zip(ks, ks[1:])):
        raise ValueError("ks must be increasing")
    rows = []
    probe_ids = ()
    for k in ks:
        x_min = 10.0 ** -(k + 4)
        space = GroundSpace.geometric_cells(x_min, 1.0, 2**k, label=f"grid-2^{k}")
        core = Window.from_interval(space, 0.5, 1.0, "core")
        if len(core) == 0:
            raise EmptyWindowError(f"the 2^{k}-point grid has no point in the core window [0.5, 1]")
        model = exhaustion_model(space, core, min_angle)
        b_k = 10.0 ** -(k + 1)
        window = Window.from_interval(space, b_k, 0.5, f"B_{k}")
        probe_windows = [
            Window.from_interval(space, 0.25, 1.0, "[0.25,1]"),
            Window.from_interval(space, 0.5, 1.0, "[0.5,1]"),
        ]
        probe = np.zeros(space.n)
        probe[core.index_set] = 1.0
        probe /= weighted_norm(probe, space)
        report = exhaustion_suite(model, [window], probe_windows, probe, steps=(k,))
        rows += report.rows
        probe_ids = report.window_ids
    return ExhaustionReport(tuple(rows), probe_ids, min_angle)


# ---------------------------------------------------------------------------
# Scripted sampler kernels (small spaces; used by the GOF diagnostics)


def _random_contraction(rng: np.random.Generator, space: GroundSpace, headroom: float) -> KernelOperator:
    """The strict contraction with counting form A A^T / (lambda_max headroom), A an n x n normal draw."""
    A = rng.normal(size=(space.n, space.n))
    sym = A @ A.T
    return KernelOperator.from_counting(space, sym / (np.linalg.eigvalsh(sym)[-1] * headroom))


def scripted_sampler_kernels() -> dict[str, KernelOperator]:
    space5 = GroundSpace.uniform_cells(0.0, 1.0, 5)
    x5 = space5.points
    proj2 = project_span(np.vstack([np.ones(5), x5]), space5)

    space4 = GroundSpace(np.arange(1.0, 5.0), np.full(4, 1.0))
    contraction = _random_contraction(_philox_generator(71, 0), space4, 1.25)

    space6 = GroundSpace.uniform_cells(0.0, 2.0, 6)
    x6 = space6.points
    proj3 = project_span(np.vstack([np.ones(6), np.sin(np.pi * x6), np.cos(np.pi * x6)]), space6)
    return {"projection_rank2": proj2, "contraction_4pt": contraction, "projection_rank3": proj3}


# ---------------------------------------------------------------------------
# Scaling scripts


def scripted_scaling_suite(
    s_values=(0.0, 0.5, 2.0),
    n_list=(8, 16, 32, 64),
    grid_points: int = 200,
    x_max: float = 10.0,
) -> dict[float, "ScalingReport"]:
    """Heine-Mehler tables: rescaled polynomial kernels approaching the hard-edge limit."""
    grid = GroundSpace.uniform_cells(0.0, x_max, grid_points)
    windows = [Window.full(grid, f"(0,{x_max:g}]")]
    return {s: heine_mehler_suite(s, n_list, windows, grid) for s in s_values}


def jacobi_orthonormality_residual(s: float, degree: int) -> float:
    """Max |<p_i, p_j> - delta_ij| up to ``degree`` under the exact (degree + 1)-point Gauss rule for (1-u)^s.

    The rule is ``scipy.special.roots_jacobi``'s, so the check does not share the recurrence it tests.
    """
    nodes, qweights = special.roots_jacobi(degree + 1, s, 0.0)
    vals = jacobi_polynomials(s, degree + 1, nodes)
    gram = (vals * qweights) @ vals.T
    return float(np.max(np.abs(gram - np.eye(degree + 1))))


# ---------------------------------------------------------------------------
# Tightness scripts


def scripted_tightness_cases() -> dict[str, TightnessReport]:
    """A drifting family (mass escapes to the right) and a fixed family (tight)."""
    space = GroundSpace.uniform_cells(0.0, 1.0, 20)
    f = WeightFunction.constant(space, 1.0, role="f")
    tails = [
        Window.from_interval(space, 0.5, 1.0, "x>0.5"),
        Window.from_interval(space, 0.8, 1.0, "x>0.8"),
    ]
    drifting = []
    for i in range(10, 20):
        e = np.zeros(space.n)
        e[i] = 1.0
        drifting.append(project_span(e[None, :], space))
    fixed_vec = np.where(space.points < 0.3, 1.0, 0.0)
    fixed = [project_span(fixed_vec[None, :], space)] * 5
    return {
        "drifting": tightness_report(drifting, f, tails),
        "fixed": tightness_report(fixed, f, tails),
    }


def scripted_chebyshev_checks():
    """Markov bounds on embedded total mass, checked against sampled ensembles.

    Five scripted kernels (projections of ranks 1-3 and two strict
    contractions) with nonconstant embedding weights; each level L is set
    where the bound is informative (below 1).  Each kernel gets
    ``CHEBYSHEV_SAMPLES`` draws, seeded from ``CHEBYSHEV_SEED``.
    """
    cases = []
    space = GroundSpace.uniform_cells(0.0, 1.0, 6)
    x = space.points
    f = WeightFunction(space, 1.0 / (1.0 + x), role="f")

    cases.append(("rank1", project_span(np.ones((1, 6)), space)))
    cases.append(("rank2", project_span(np.vstack([np.ones(6), x]), space)))
    cases.append(("rank3", project_span(np.vstack([np.ones(6), x, x**2]), space)))
    rng = _philox_generator(CHEBYSHEV_SEED, 0)
    cases.append(("contraction_a", _random_contraction(rng, space, 1.5)))
    cases.append(("contraction_b", KernelOperator.from_counting(space, np.diag(rng.uniform(0.1, 0.9, 6)))))

    results = {}
    for j, (name, K) in enumerate(cases):
        D = DppDistribution(K)
        trace = float(_weighted_diagonal(K, f).sum())
        L = 1.6 * trace
        samples = sample(D, CHEBYSHEV_SEED + 10 * j, CHEBYSHEV_SAMPLES)
        results[name] = chebyshev_mass_bound_check(D, f, L, samples)
    return results


# ---------------------------------------------------------------------------
# Weak-convergence scripts


def _weakconv_setting():
    """The 8-point space, the limit projection, f = 1 and the indicators of the three tertile bins."""
    space = GroundSpace.uniform_cells(0.0, 1.0, 8)
    limit = project_span(np.vstack([np.ones(8), space.points]), space)
    f = WeightFunction.constant(space, 1.0, role="f")
    edges = np.quantile(space.points, [1.0 / 3.0, 2.0 / 3.0])
    phis = (np.searchsorted(edges, space.points) == np.arange(3)[:, None]).astype(float)
    return space, limit, f, phis


def weakconv_calibration(
    repetitions: int = 200,
    batch_size: int = 150,
    permutations: int = 199,
    seed: int = 16000,
) -> np.ndarray:
    """Same-law two-sample p-values; should be close to uniform on [0, 1].

    Repetition j compares the batches of sampler seeds seed + 1000 + 2j and
    seed + 1001 + 2j on the splits of the Philox generator keyed
    (seed + j, 0), as ``weak_convergence_test([a], b, ..., seed=seed + j)``
    would.  The split tables are queued on the draw thread before the
    sampling starts.  All batches come from one ``sample_batches`` call and
    are held together: 2 * repetitions * batch_size * n bytes of occupancy,
    480 KB at the default sizes on the 8-point space.  The tables drawn
    ahead of the scoring take at most ``measures._SPLIT_AHEAD_BYTES``,
    which holds all 12 MB of them at the default sizes.
    """
    _, limit, f, phis = _weakconv_setting()
    rngs = [_philox_generator(seed + rep, 0) for rep in range(repetitions)]
    with _queued_split_tables(2 * batch_size, batch_size, permutations, rngs) as tables:
        batches = sample_batches(DppDistribution(limit), range(seed + 1000, seed + 1000 + 2 * repetitions), batch_size)
        p_values = np.empty(repetitions)
        for rep, (batch_a, batch_b, table) in enumerate(zip(batches[::2], batches[1::2], tables)):
            X, Y = linear_statistics(batch_a, f, phis), linear_statistics(batch_b, f, phis)
            p_values[rep] = _energy_test(X, Y, table)[1]
    return p_values


#: KS distance to the uniform law below which ``dpplab weakconv``'s calibration p-values pass.
CALIBRATION_KS_LIMIT = 0.05


def ks_distance_to_uniform(p_values: np.ndarray) -> float:
    p = np.sort(np.asarray(p_values, dtype=float))
    n = len(p)
    grid_hi = np.arange(1, n + 1) / n
    grid_lo = np.arange(0, n) / n
    return float(max(np.max(grid_hi - p), np.max(p - grid_lo)))


def weakconv_sequence(
    n_list=(1, 2, 4, 8, 16, 32),
    batch_size: int = 800,
    permutations: int = 199,
    seed: int = 11,
) -> WeakConvergenceReport:
    """Energy statistics against the limit law for a 1/n-perturbed kernel sequence.

    The report is ``weak_convergence_test``'s at ``seed``; its split tables
    are queued on the draw thread before the sampling starts.
    """
    space, limit, f, phis = _weakconv_setting()
    x = space.points
    drift = project_span(np.vstack([np.sin(2.0 * np.pi * x), np.cos(2.0 * np.pi * x)]), space)
    rngs = [_philox_generator(seed, 0)] * len(n_list)
    with _queued_split_tables(2 * batch_size, batch_size, permutations, rngs) as tables:
        limit_batch = sample(DppDistribution(limit), seed, batch_size)
        batches = []
        for n in n_list:
            theta = 0.5 / n
            mixed = KernelOperator(space, (1.0 - theta) * limit.entries + theta * drift.entries)
            batches.append(sample(DppDistribution(mixed), seed + n, batch_size))
        return _weak_convergence_report(batches, limit_batch, f, phis, tables, n_list)
