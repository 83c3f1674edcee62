"""Embedding configurations into finite measures, tightness and two-sample diagnostics.

A batch of draws is mapped to the atomic measures sigma_f(X) =
sum_{x in X} f(x) delta_x, one (n,) row of atom masses per draw.
Families of kernels are screened for tightness through the traces
tr(sqrt(f) K sqrt(f)) and their tail compressions; sampled ensembles are
compared through the joint laws of integrals against disjointly supported
test functions, using the energy distance with permutation calibration.
"""

from __future__ import annotations

import collections
import contextlib
import itertools
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .conditioning import WeightFunction, check_inducibility
from .dpp import DppDistribution, Samples, _group_rows, _philox_generator
from .errors import ContractError, DimensionError
from .ground import Window
from .operators import (
    _RESIDUAL_RATIO_LIMIT,
    KernelOperator,
    Projection,
    _check_same_space,
    _gram_schmidt,
    counting_diagonal,
)
from .tables import csv_text, step_labels, window_labels

#: Sup-of-tail-traces level under which a family counts as tight.
TAIL_TOLERANCE = 1e-8

#: Final permutation p-value a weak-convergence verdict must exceed.
P_VALUE_THRESHOLD = 0.01

#: Permutation-test ties: a permuted split scores as a hit when its energy
#: statistic reaches the observed one less this multiple of the mean pooled
#: distance, so splits that tie mathematically count however their sums round.
TIE_TOLERANCE = 1e-9


def sigma_f(samples: Samples, f: WeightFunction) -> np.ndarray:
    """The embeddings X -> sum_{x in X} f(x) delta_x of a batch, as its (count, n) array of atom masses."""
    _check_same_space(samples.space, f.space)
    return samples.occupancy * f.values


def _weighted_diagonal(K: KernelOperator | Projection, f: WeightFunction) -> np.ndarray:
    """The diagonal of sqrt(f) Khat sqrt(f); its sum is tr(sqrt(f) K sqrt(f))."""
    _check_same_space(K.space, f.space)
    return counting_diagonal(K) * f.values


@dataclass(frozen=True, eq=False)
class TightnessRow:
    member: str
    trace: float
    tail_traces: tuple[float, ...]
    margin: float | None = None
    vector_masses: tuple[float, ...] = ()
    vector_tails: tuple[tuple[float, ...], ...] = ()
    min_vector_angle: float | None = None


@dataclass(frozen=True, eq=False)
class TightnessReport:
    rows: tuple[TightnessRow, ...]
    tail_window_ids: tuple[str, ...]
    sup_trace: float
    sup_tails: tuple[float, ...]
    uniform_margin: float | None
    angle_bound: float | None
    tight: bool

    def to_csv(self) -> str:
        header = ("member", "trace", *(f"tail_{w}" for w in self.tail_window_ids), "margin")
        return csv_text(header, ((r.member, r.trace, *r.tail_traces, r.margin) for r in self.rows))


def tightness_report(
    kernels: list[KernelOperator],
    f: WeightFunction,
    tail_windows: list[Window],
    g: WeightFunction | None = None,
    extra_vectors=None,
) -> TightnessReport:
    """Screen a family of positive contractions for tightness of the embedded laws.

    A member that fails ``DppDistribution``'s check raises :class:`ContractError` naming it.
    Each row reports tr(sqrt(f) K sqrt(f)) and its compressions to the tail
    windows; optionally the conditioning margin 1 - ||sqrt(1-g) K|| per member and
    the masses/tails of the deformation-vector measures f |v|^2 w and their least angle
    to the range and the vectors before them, where a residual ratio below
    ``orthonormalize``'s limit raises :class:`ContractError`.  Both options take each
    member as a projection (see ``Projection.from_kernel``).  The family
    is declared tight when the traces are finite (always, here) and the last
    (smallest) tail's supremum over the family falls below ``TAIL_TOLERANCE``.
    """
    if not kernels:
        raise ValueError("empty kernel family")
    for w in tail_windows:
        w.validate(kernels[0].space)
    rows = []
    for alpha, K in enumerate(kernels):
        diag = _weighted_diagonal(K, f)
        try:
            DppDistribution(K)
        except ContractError as exc:
            raise ContractError(f"family member {alpha}: {exc}") from exc
        trace = float(diag.sum())
        tails = tuple(float(diag[w.index_set].sum()) for w in tail_windows)
        P = Projection.from_kernel(K) if g is not None or extra_vectors is not None else None
        margin = None
        if g is not None:
            margin = check_inducibility(g, P).margin
        vec_masses: tuple[float, ...] = ()
        vec_tails: tuple[tuple[float, ...], ...] = ()
        min_angle = None
        if extra_vectors is not None:
            vs = np.atleast_2d(np.asarray(extra_vectors[alpha], dtype=float))
            if vs.ndim != 2 or vs.shape[1] != K.space.n:
                raise DimensionError(f"deformation vectors of member {alpha} need {K.space.n} values each")
            masses = f.values * vs**2 * K.space.weights
            vec_masses = tuple(float(m.sum()) for m in masses)
            vec_tails = tuple(tuple(float(m[w.index_set].sum()) for w in tail_windows) for m in masses)
            angles = []
            for k, ratio, ang in _gram_schmidt(list(P.factor.T), vs * K.space.sqrt_weights, angles=True):
                if ratio < _RESIDUAL_RATIO_LIMIT:
                    raise ContractError(f"deformation vector {k} of member {alpha} is dependent on the range")
                angles.append(ang)
            min_angle = min(angles)
        rows.append(
            TightnessRow(
                member=f"K{alpha}",
                trace=trace,
                tail_traces=tails,
                margin=margin,
                vector_masses=vec_masses,
                vector_tails=vec_tails,
                min_vector_angle=min_angle,
            )
        )
    sup_trace = max(r.trace for r in rows)
    sup_tails = tuple(max(r.tail_traces[j] for r in rows) for j in range(len(tail_windows)))
    vanishing = min(sup_tails) < TAIL_TOLERANCE if sup_tails else True
    uniform_margin = min((r.margin for r in rows), default=None) if g is not None else None
    angle_bound = min((r.min_vector_angle for r in rows), default=None) if extra_vectors is not None else None
    return TightnessReport(
        rows=tuple(rows),
        tail_window_ids=window_labels(tail_windows, "tail"),
        sup_trace=sup_trace,
        sup_tails=sup_tails,
        uniform_margin=uniform_margin,
        angle_bound=angle_bound,
        tight=bool(np.isfinite(sup_trace) and vanishing),
    )


@dataclass(frozen=True)
class MassBoundCheck:
    bound: float
    empirical: float
    slack: float
    passed: bool


def chebyshev_mass_bound_check(
    D: DppDistribution, f: WeightFunction, L: float, samples: Samples
) -> MassBoundCheck:
    """Markov/Chebyshev control of the embedded total mass against samples.

    ``bound`` = tr(sqrt(f) K sqrt(f)) / L dominates P(total sigma_f mass > L);
    the empirical exceedance fraction must stay below it up to 3 standard
    errors of the empirical proportion.
    """
    if L <= 0:
        raise ValueError("the mass level L must be positive")
    if len(samples) == 0:
        raise ValueError("no samples to check the mass bound against")
    trace = float(_weighted_diagonal(D.kernel, f).sum())
    bound = trace / L
    masses = linear_statistics(samples, f, np.ones(f.space.n))[:, 0]
    empirical = int(np.count_nonzero(masses > L)) / len(samples)
    p = max(empirical, 1.0 / len(samples))
    slack = 3.0 * float(np.sqrt(p * (1.0 - p) / len(samples)))
    return MassBoundCheck(bound, empirical, slack, empirical <= bound + slack)


def linear_statistics(samples: Samples, f: WeightFunction, phis) -> np.ndarray:
    """Matrix of Int_{phi_i}(sigma_f(X)) over samples; rows are samples.

    The product of the atom array with the test functions is an ``einsum``,
    which runs on the calling thread (see ``_energy_test``).
    """
    phis = np.atleast_2d(np.asarray(phis, dtype=float))
    if phis.shape[1] != f.space.n:
        raise DimensionError(f"test functions need {f.space.n} values")
    return np.einsum("sn,kn->sk", sigma_f(samples, f), phis)


def _pairwise(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    diff = A[:, None, :] - B[None, :, :]
    return np.sqrt(np.sum(diff**2, axis=-1))


def _split_table(n: int, nx: int, permutations: int, rng) -> np.ndarray:
    """The (permutations + 1, n) table of X sides: row 0 holds the first ``nx`` rows, row k the k-th shuffle's.

    One ``rng.permuted`` call shuffles each row of a tiled ``arange(n)``
    with the Fisher-Yates draws of the k-th ``rng.permutation(n)``.  The
    table is int64 because numpy shuffles it on its fast path, where a
    bool one would take the slow generic path.
    """
    on_x = np.empty((permutations + 1, n), dtype=bool)
    on_x[0] = np.arange(n) < nx
    shuffled = np.tile(np.arange(n, dtype=np.int64), (permutations, 1))
    rng.permuted(shuffled, axis=1, out=shuffled)
    np.less(shuffled, nx, out=on_x[1:])
    return on_x


#: The one thread that draws split tables.  A lone worker takes the tables in the order they were
#: queued, so tables queued on one generator get the draws of a loop of ``_split_table`` calls.
#: ``permuted`` releases the GIL while it shuffles, so a table is drawn on another core while the
#: caller samples and scores.  A caller that waits draws queued tables itself, but only those of a
#: generator no other table uses (``_queued_split_tables``), so that order still holds.
_SPLIT_DRAWS = ThreadPoolExecutor(max_workers=1, thread_name_prefix="dpplab-splits")


def _check_permutations(permutations: int) -> None:
    if permutations < 1:
        raise ValueError(f"a permutation test needs at least 1 permutation, got {permutations}")


#: Bytes of split tables that may wait, queued or drawn, ahead of the caller that takes them: all of
#: criterion 8's 200 calibration tables of 200 x 300 (12 MB), and at least one table at any size.
_SPLIT_AHEAD_BYTES = 32 * 2**20


@contextlib.contextmanager
def _queued_split_tables(n: int, nx: int, permutations: int, seeds):
    """Queue ``_split_table(n, nx, permutations, rng)`` per seed on the draw thread; yield the tables' iterator.

    Each distinct seed gets one generator, ``_philox_generator(seed, 0)``,
    and a seed that appears k times in ``seeds`` gets k tables, drawn from
    it in turn, in the order of ``seeds``.  At most ``_SPLIT_AHEAD_BYTES``
    of them are queued at once; each table taken queues the next.

    While the next table is not ready, the calling thread draws queued
    tables itself, last first: each one whose draw has not started
    (``Future.cancel`` succeeds only then) and whose seed appears once in
    ``seeds``, so that no other table uses its generator.  So every table
    is drawn once, from its generator's state after that generator's
    earlier tables, and the tables are those of a loop of ``_split_table``
    calls, whichever thread draws.  With nothing to take it waits for the
    draw thread; the tables of a repeated seed are all drawn there.

    Draws that have not started when the block exits are cancelled, so a
    caller that raises, in its own code or in a draw it took, leaves none
    behind.  Only ``_split_table`` runs on the draw thread, and no other
    module imports it, so nothing it calls is a name perfbench's tracer
    wraps.
    """
    _check_permutations(permutations)
    uses = collections.Counter(seeds)  # tables per seed
    rngs = {seed: _philox_generator(seed, 0) for seed in uses}
    pending = iter(seeds)
    queued = collections.deque()  # (draw, seed) per table, in the order of seeds

    def queue(count):
        for seed in itertools.islice(pending, count):
            queued.append((_SPLIT_DRAWS.submit(_split_table, n, nx, permutations, rngs[seed]), seed))

    def draw_here():
        """Draw the last takeable queued table on this thread, as described above; whether there was one."""
        for i in range(len(queued) - 1, -1, -1):
            draw, seed = queued[i]
            if uses[seed] == 1 and draw.cancel():
                drawn = Future()
                drawn.set_result(_split_table(n, nx, permutations, rngs[seed]))
                queued[i] = (drawn, seed)
                return True
        return False

    def tables():
        while queued:
            while not queued[0][0].done() and draw_here():
                pass
            table = queued[0][0].result()  # still queued while awaited, so an interrupted wait cancels it
            queued.popleft()
            queue(1)
            yield table

    queue(max(1, _SPLIT_AHEAD_BYTES // ((permutations + 1) * max(n, 1))))
    try:
        yield tables()
    finally:
        for draw, _ in queued:
            draw.cancel()


def _energy_test(X: np.ndarray, Y: np.ndarray, on_x: np.ndarray) -> tuple[float, float]:
    """Observed energy distance of X and Y and its p-value over the splits of a ``_split_table``.

    Row 0 of ``on_x`` marks the observed split of the pooled rows, X
    stacked over Y, and each further row one permuted split.  A split is
    scored from its count vector c over the m distinct pooled rows: with
    D the m x m distance matrix of those rows and t the pooled counts,
    the within-X, cross and within-Y distance sums are c'Dc, c'D(t - c)
    and (t - c)'D(t - c).  That costs O(N + m^2) per permutation for N
    pooled rows, and the N x N distance matrix is never formed.  The
    distinct rows come from ``dpp._group_rows`` on the pooled rows, and
    the count vectors of all splits from one ``add.reduceat`` over the
    columns of the split table taken in that order.  The products are
    ``einsum`` calls, which run on the calling thread: a BLAS product fans
    out to the BLAS threads and stalls whenever another process holds one
    of their cores.

    Tie rule: a permuted split counts as a hit when its statistic is at
    least the observed one less ``TIE_TOLERANCE`` times the mean pooled
    distance t'Dt / N^2.  Splits that tie mathematically, such as those
    with the observed count vector or, when len(X) == len(Y), the one that
    swaps the two sides, then count as hits however their sums round.
    The p-value takes the add-one convention.
    """
    pooled = np.vstack([X, Y])
    n, nx = len(pooled), len(X)
    ny = n - nx
    # The distinct rows in lexicographic order, as np.unique(axis=0) finds them.
    order, new, _ = _group_rows(pooled)
    starts = np.flatnonzero(new)
    distinct = pooled[order[starts]]
    D = _pairwise(distinct, distinct)
    counts = np.add.reduceat(on_x[:, order], starts, axis=1, dtype=np.int32).astype(float)
    pooled_counts = np.diff(starts, append=n).astype(float)
    rest = pooled_counts - counts
    d_counts = np.einsum("ij,pj->pi", D, counts)
    d_pooled = np.einsum("ij,j->i", D, pooled_counts)
    sxx = np.einsum("pi,pi->p", counts, d_counts)
    sxy = np.einsum("pi,pi->p", rest, d_counts)
    syy = np.einsum("pi,pi->p", rest, d_pooled - d_counts)
    statistics = 2.0 * sxy / (nx * ny) - sxx / (nx * nx) - syy / (ny * ny)
    mean_distance = float(np.einsum("i,i->", pooled_counts, d_pooled)) / (n * n)
    observed = float(statistics[0])
    hits = int(np.count_nonzero(statistics[1:] >= observed - TIE_TOLERANCE * mean_distance))
    return observed, (hits + 1) / len(on_x)


def permutation_energy_test(X: np.ndarray, Y: np.ndarray, permutations: int, rng) -> tuple[float, float]:
    """Observed energy distance and its permutation p-value (add-one convention).

    Each permutation is a shuffle of the pooled rows, X stacked over Y;
    the rows it sends below ``len(X)`` form the X side.  All of them come
    from one ``rng.permuted`` call along the rows of a (permutations, N)
    table (``_split_table``, drawn on the calling thread), which on numpy
    2.4 draws each row as ``rng.permutation(N)`` would, one after another:
    the splits and the generator's end state are those of a loop of
    ``permutation`` calls.  ``_energy_test`` scores the splits.  A count
    below 1 raises ``ValueError``.
    """
    _check_permutations(permutations)
    return _energy_test(X, Y, _split_table(len(X) + len(Y), len(X), permutations, rng))


def _check_disjoint_supports(phis: np.ndarray) -> None:
    support = phis != 0.0
    overlap = support.astype(int).sum(axis=0)
    if np.any(overlap > 1):
        raise ValueError("test functions must have pairwise disjoint supports")


@dataclass(frozen=True, eq=False)
class WeakConvergenceReport:
    """The energy statistic and p-value per step; the verdict is read off them against ``P_VALUE_THRESHOLD``."""

    steps: tuple
    statistics: tuple[float, ...]
    p_values: tuple[float, ...]

    @property
    def decreasing(self) -> bool:
        return bool(np.all(np.diff(self.statistics) < 0))  # vacuously true for one step

    @property
    def final_p_value(self) -> float:
        return self.p_values[-1]

    @property
    def verdict(self) -> bool:
        return self.decreasing and self.final_p_value > P_VALUE_THRESHOLD

    def to_csv(self) -> str:
        return csv_text(("n", "energy_statistic", "p_value"), zip(self.steps, self.statistics, self.p_values))


def _energy_tests(pairs, seeds, size: int, permutations: int) -> list[tuple[float, float]]:
    """``_energy_test`` of the k-th (X, Y) pair, ``size`` rows each, on the split table of the k-th seed.

    The tables are queued before the first pair is taken, so ``pairs`` may
    be a generator that samples its batches while they are drawn.
    """
    with _queued_split_tables(2 * size, size, permutations, seeds) as tables:
        return [_energy_test(X, Y, table) for (X, Y), table in zip(pairs, tables)]


def weak_convergence_test(
    samples_n: list[Samples],
    samples_limit: Samples,
    f: WeightFunction,
    phis,
    permutations: int = 199,
    seed: int = 0,
    steps=None,
) -> WeakConvergenceReport:
    """Compare sampled ensembles to a limit batch through embedded joint laws.

    For each batch, the joint empirical law of the integrals against the
    (disjointly supported) test functions is compared to the limit batch by
    the energy distance, with a permutation p-value.  The split tables are
    drawn in batch order from the one Philox generator keyed (seed, 0), on
    the draw thread, once the inputs are checked.  Verdict: statistics
    decrease along the sequence and the last p-value exceeds ``P_VALUE_THRESHOLD``.
    """
    phis = np.atleast_2d(np.asarray(phis, dtype=float))
    _check_disjoint_supports(phis)
    if not samples_n:
        raise ValueError("empty batch sequence")
    steps = step_labels(steps, len(samples_n))
    size = len(samples_limit)
    if any(len(b) != size for b in samples_n):
        raise ValueError("all batches must have equal size")
    limit_stats = linear_statistics(samples_limit, f, phis)
    pairs = ((linear_statistics(b, f, phis), limit_stats) for b in samples_n)
    return WeakConvergenceReport(steps, *zip(*_energy_tests(pairs, [seed] * len(samples_n), size, permutations)))
