"""The four benchmark workloads: what one pass runs, and how its outputs are checked.

Each workload builds its inputs from the benchmark seed in ``setup`` (which
also makes one warm-up call), runs one pass of scripted dpplab work in
``run_pass`` and checks that pass's outputs in ``check``, outside the
timed region.  A pass always attempts the same operations, so a run is
whole rounds of them.  ``check`` returns one verdict per operation and
one verdict for properties of the pass as a whole.

A workload whose inputs include the benchmark's own reference
computations makes them in ``prepare``, which runs once before set-up is
timed.

Program calls go through module attributes (``prog.dpp.sample``), never
through names bound here, so that the tracer's patches take effect.
"""

from __future__ import annotations

import sys
import traceback

import numpy as np

import reference

#: Level of the sampler goodness-of-fit checks, as in the acceptance gate.
#: Every pass of a run draws with the same sampler seed, so each verdict is
#: fixed by the benchmark seed; README.md lists the seeds it was run on.
GOF_LEVEL = 1e-3

#: Level of the Kolmogorov-Smirnov uniformity test of the 20 calibration
#: p-values.  It rejects when the empirical law sits more than about 0.42
#: from the uniform one, as when every p-value is below 0.4.
UNIFORMITY_LEVEL = 1e-3

#: Exhaustion rows, counted from the coarsest grid, that are checked against the QR/SVD reference.
REFERENCE_ROWS = 2

#: Smallest principal angle the exhaustion study must certify, as in criterion 4.
MIN_ANGLE = 0.05

#: Every this many trials of an oracle battery's first pass is rebuilt and checked against the minor law.
REFERENCE_EVERY = 10


def _call(fn, *args, **kwargs):
    """Run one program call; an exception is returned, reported on stderr, and fails the operation."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # a failing call must not end the run
        traceback.print_exception(exc, file=sys.stderr)
        return exc


def configurations(samples) -> list[tuple[int, ...]]:
    """Sorted occupied indices of each drawn ``Configuration``."""
    return [tuple(sorted(X.occupied)) for X in samples]


def _bitmask_counts(configs, n: int) -> np.ndarray:
    masks = np.array([sum(1 << i for i in c) for c in configs], dtype=np.int64)
    return np.bincount(masks, minlength=2**n)


def _close(value: float, expected: float, rel: float) -> bool:
    return abs(value - expected) <= rel * abs(expected) + 1e-15


class Exhaustion:
    """Grid-refinement exhaustion study of criterion 4 on geometric grids 2^k.

    Dense n x n linear algebra in operators, conditioning and deformations;
    no sampling, no enumeration.  The study is deterministic, so the seed
    does not change its inputs.  One operation is one grid row.
    """

    name = "exhaustion"
    unit = "rows"
    yardstick = "dense"

    def __init__(self, ks=(8, 9, 10)):
        self.ks = tuple(ks)
        self.reference_ks = self.ks[:REFERENCE_ROWS]
        self.ops = len(self.ks)
        self.units = len(self.ks)
        self._references: dict[int, dict] = {}

    def setup(self, prog, seed: int):
        prog.suites.scripted_exhaustion_study(ks=self.ks[:1], min_angle=MIN_ANGLE)
        return None

    def run_pass(self, prog, inputs, index: int):
        return _call(prog.suites.scripted_exhaustion_study, ks=self.ks, min_angle=MIN_ANGLE)

    def check(self, prog, inputs, report, index: int):
        if isinstance(report, Exception) or len(report.rows) != len(self.ks):
            return [False] * self.ops, True
        verdicts, previous = [], None
        for k, row in zip(self.ks, report.rows):
            ok = (
                row.step == k
                and not row.failed
                and row.angle_ok
                and row.angle >= MIN_ANGLE
                and bool(np.all(np.isfinite(row.distances)))
            )
            if previous is not None:
                ok &= all(d <= p for d, p in zip(row.distances, previous.distances))
            if k == self.ks[-1]:
                ok &= row.remainder_probe_norm < 1e-3
            if k in self.reference_ks:
                ok &= self._matches_reference(k, row)
            verdicts.append(bool(ok))
            previous = row
        return verdicts, True

    def _matches_reference(self, k: int, row) -> bool:
        if k not in self._references:
            self._references[k] = reference.exhaustion_row(k)
        ref = self._references[k]
        return (
            _close(row.angle, ref["angle"], 1e-8)
            and all(_close(d, r, 1e-8) for d, r in zip(row.distances, ref["distances"]))
            and _close(row.remainder_probe_norm, ref["probe_norm"], 1e-8)
        )


class Oracle:
    """Conditioning oracle battery of criteria 1-2: many small random problems.

    Pass p runs the battery with suite seed 20240 + 100000 * seed + p, so
    seed 0 starts with the acceptance battery and a run averages over many
    mixes of problem sizes.  One operation is one trial.
    """

    name = "oracle"
    unit = "trials"
    yardstick = "small"

    def __init__(self, trials: int = 100):
        self.trials = trials
        self.ops = trials
        self.units = trials

    def setup(self, prog, seed: int):
        prog.suites.conditioning_oracle_battery(trials=2, seed=20240)  # the same warm-up on every seed
        return 20240 + 100_000 * seed

    def run_pass(self, prog, base: int, index: int):
        return _call(prog.suites.conditioning_oracle_battery, trials=self.trials, seed=base + index)

    def check(self, prog, base: int, report, index: int):
        if isinstance(report, Exception) or len(report.trials) != self.trials:
            return [False] * self.ops, True
        verdicts = []
        for t in report.trials:
            ok = t.tv_distance < 1e-9 and t.normalization_error < 1e-10 and t.projection_error < 1e-9
            if index == 0 and t.trial % REFERENCE_EVERY == 0:
                ok = ok and self._matches_reference(prog, base, t)
            verdicts.append(bool(ok))
        return verdicts, True

    @staticmethod
    def _matches_reference(prog, seed: int, record) -> bool:
        """Rebuild one trial from its documented stream and check it against the minor-based law."""
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, record.trial], dtype=np.uint64)))
        n = int(rng.integers(2, 11))
        rank = int(rng.integers(1, min(3, n) + 1))
        points = np.cumsum(rng.uniform(0.1, 1.0, size=n))
        weights = rng.uniform(0.5, 1.5, size=n)
        basis = rng.normal(size=(rank, n))
        g = rng.uniform(0.05, 1.0, size=n)
        if (n, rank) != (record.n_points, record.rank):
            return False
        space = prog.ground.GroundSpace(points, weights)
        P = prog.operators.project_span(basis, space)
        weight = prog.conditioning.WeightFunction(space, g)
        induced = prog.conditioning.induced_kernel(weight, P)
        z = prog.conditioning.normalization_constant(weight, P)

        p_ref = reference.span_projection(basis, np.sqrt(weights))
        law_ref, z_ref = reference.reweighted_law(reference.minor_law(p_ref), g)
        return (
            reference.total_variation(reference.minor_law(induced.counting), law_ref) < 1e-9
            and abs(z - z_ref) < 1e-10
            and float(np.max(np.abs(P.counting - p_ref))) < 1e-9
        )


class Sampling:
    """Large batches of exact draws from the three scripted sampler kernels (criterion 6).

    Each batch is written with ``samples_to_csv``, as ``dpplab sample``
    does, and tested with ``chi_square_gof`` against the minor-based exact
    law.  Draws use sampler seed 2024 + seed.  One operation is one kernel.
    """

    name = "sampling"
    unit = "draws"
    yardstick = "small"

    def __init__(self, draws: int = 3000):
        self.draws = draws

    def prepare(self, prog):
        """Minor-based exact law of each kernel, and the same law as ``chi_square_gof`` takes it."""
        kernels = prog.suites.scripted_sampler_kernels()
        self.laws = {name: reference.minor_law(K.counting) for name, K in kernels.items()}
        self.expected = {name: dict(enumerate(law.tolist())) for name, law in self.laws.items()}
        self.ops = len(kernels)
        self.units = self.draws * len(kernels)

    def setup(self, prog, seed: int):
        inputs = (prog.suites.scripted_sampler_kernels(), 2024 + seed)
        self._pass(prog, inputs, draws=10)
        return inputs

    def run_pass(self, prog, inputs, index: int):
        return self._pass(prog, inputs, self.draws)

    def _pass(self, prog, inputs, draws: int) -> dict:
        kernels, seed = inputs
        out = {}
        for name, K in kernels.items():
            D = _call(prog.dpp.DppDistribution, K)
            samples = D if isinstance(D, Exception) else _call(prog.dpp.sample, D, seed, draws)
            if isinstance(samples, Exception):
                out[name] = samples
                continue
            text = _call(prog.serialization.samples_to_csv, samples)
            gof = _call(prog.dpp.chi_square_gof, samples, self.expected[name])
            out[name] = (samples, text, gof)
        return out

    def check(self, prog, inputs, out: dict, index: int):
        kernels, _ = inputs
        verdicts = []
        for name, K in kernels.items():
            result = out.get(name)
            if not isinstance(result, tuple) or any(isinstance(r, Exception) for r in result):
                verdicts.append(False)
                continue
            samples, text, (_, _, p_value) = result
            configs = configurations(samples)
            parsed = [tuple(int(tok) for tok in line.split()) for line in text.splitlines()]
            p_ref = reference.chi_square_pvalue(_bitmask_counts(configs, K.n), self.laws[name])
            ok = len(configs) == self.draws and parsed == configs
            ok = ok and p_ref > GOF_LEVEL and abs(p_value - p_ref) <= 1e-9
            eigenvalues = np.linalg.eigvalsh(K.counting)
            if np.all((eigenvalues < 1e-8) | (eigenvalues > 1.0 - 1e-8)):
                rank = int(np.sum(eigenvalues > 0.5))
                ok = ok and all(len(c) == rank for c in configs)
            verdicts.append(bool(ok))
        return verdicts, True


class Weakconv:
    """Same-law calibration and perturbed sequence of criterion 8: many small sampler calls.

    Calibration suite seed 16000 + 10000 * seed, sequence suite seed
    11 + 10000 * seed; seed 0 gives the acceptance seeds.  One operation
    is one two-sample test.  Whether the sequence's statistics decrease
    is reported, not checked: at the acceptance batch size of 800 it fails
    on 7 of 29 other sequence seeds, so it is a property of the draw, not
    of the program.
    """

    name = "weakconv"
    unit = "tests"
    yardstick = "small"

    def __init__(
        self,
        repetitions: int = 20,
        calibration_batch: int = 150,
        sequence_batch: int = 400,
        permutations: int = 199,
        n_list=(1, 2, 4, 8, 16, 32),
    ):
        self.repetitions = repetitions
        self.calibration_batch = calibration_batch
        self.sequence_batch = sequence_batch
        self.permutations = permutations
        self.n_list = tuple(n_list)
        self.ops = repetitions + len(self.n_list)
        self.units = self.ops
        self.figures: dict = {}

    def setup(self, prog, seed: int):
        seeds = (16000 + 10_000 * seed, 11 + 10_000 * seed)
        prog.suites.weakconv_calibration(
            repetitions=1, batch_size=self.calibration_batch, permutations=self.permutations, seed=seeds[0]
        )
        return seeds

    def run_pass(self, prog, seeds, index: int):
        calibration = _call(
            prog.suites.weakconv_calibration,
            repetitions=self.repetitions,
            batch_size=self.calibration_batch,
            permutations=self.permutations,
            seed=seeds[0],
        )
        sequence = _call(
            prog.suites.weakconv_sequence,
            n_list=self.n_list,
            batch_size=self.sequence_batch,
            permutations=self.permutations,
            seed=seeds[1],
        )
        return calibration, sequence

    def _valid_p(self, p: float) -> bool:
        """Permutation p-values are (hits + 1) / (permutations + 1)."""
        hits = p * (self.permutations + 1) - 1
        return 0 <= round(hits) <= self.permutations and abs(hits - round(hits)) < 1e-6

    def check(self, prog, seeds, result, index: int):
        calibration, sequence = result
        uniform = True
        if isinstance(calibration, Exception) or len(calibration) != self.repetitions:
            verdicts = [False] * self.repetitions
        else:
            verdicts = [self._valid_p(float(p)) for p in calibration]
            uniform = reference.uniformity_pvalue(calibration) > UNIFORMITY_LEVEL
        if isinstance(sequence, Exception) or len(sequence.statistics) != len(self.n_list):
            return verdicts + [False] * len(self.n_list), uniform
        steps = [np.isfinite(s) and self._valid_p(p) for s, p in zip(sequence.statistics, sequence.p_values)]
        if index == 0:
            ref = self._reference_statistics(prog, seeds[1])
            steps = [ok and abs(s - r) <= 1e-10 for ok, s, r in zip(steps, sequence.statistics, ref)]
            self.figures["sequence_decreasing"] = bool(sequence.decreasing)
        return verdicts + [bool(ok) for ok in steps], uniform

    def _reference_statistics(self, prog, seed: int) -> list[float]:
        """Redraw the sequence's batches and recompute each energy statistic with cdist.

        The kernels and sampler seeds follow ``suites.weakconv_sequence``;
        the linear statistics (point counts in the three tertile bins,
        embedding weight 1) and the energy distance are computed here.
        """
        space = prog.ground.GroundSpace.uniform_cells(0.0, 1.0, 8)
        x = space.points
        limit = prog.operators.project_span(np.vstack([np.ones(8), x]), space)
        drift = prog.operators.project_span(np.vstack([np.sin(2.0 * np.pi * x), np.cos(2.0 * np.pi * x)]), space)
        edges = np.quantile(x, [1.0 / 3.0, 2.0 / 3.0])
        bins = np.searchsorted(edges, x, side="left")

        def statistics(K, batch_seed):
            draws = prog.dpp.sample(prog.dpp.DppDistribution(K), batch_seed, self.sequence_batch)
            return np.array([np.bincount(bins[list(c)], minlength=3) for c in configurations(draws)], float)

        limit_stats = statistics(limit, seed)
        out = []
        for n in self.n_list:
            theta = 0.5 / n
            mixed = prog.operators.KernelOperator(space, (1.0 - theta) * limit.entries + theta * drift.entries)
            out.append(reference.energy_statistic(statistics(mixed, seed + n), limit_stats))
        return out


WORKLOADS = {cls.name: cls for cls in (Exhaustion, Oracle, Sampling, Weakconv)}
