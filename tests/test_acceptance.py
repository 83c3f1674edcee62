"""Acceptance gate: one test per release criterion, one printed verdict line each.

Each test prints its verdict with capture disabled so the line lands in
the run log.
"""

import time

import numpy as np

from dense_reference import bessel_kernel_entries_mp
from dpplab import suites
from dpplab.dpp import DppDistribution, brute_force_distribution, chi_square_gof, sample
from dpplab.ground import GroundSpace
from dpplab.operators import Projection
from dpplab.scaling import bessel_kernel


def _report(capsys, name: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}", flush=True)


_battery_cache = {}


def _battery():
    if "report" not in _battery_cache:
        start = time.perf_counter()
        _battery_cache["report"] = suites.conditioning_oracle_battery(trials=500)
        _battery_cache["elapsed"] = time.perf_counter() - start
    return _battery_cache["report"], _battery_cache["elapsed"]


def test_criterion_1_conditioning_oracle_battery(capsys):
    report, elapsed = _battery()
    ok = report.verdict and elapsed < 30.0
    _report(
        capsys,
        "criterion 1 (conditioning oracle battery)",
        ok,
        f"500 trials, max TV {report.max_tv:.2e} < 1e-9, "
        f"max normalization error {report.max_normalization_error:.2e} < 1e-10, "
        f"runtime {elapsed:.1f}s < 30s",
    )
    assert ok


def test_criterion_2_projection_identity(capsys):
    report, _ = _battery()
    ok = report.max_projection_error < suites.ORACLE_PROJECTION_TOLERANCE
    _report(
        capsys,
        "criterion 2 (projection identity)",
        ok,
        f"max elementwise gap between induced kernel and weighted-span projection "
        f"{report.max_projection_error:.2e} < 1e-9 over 500 trials",
    )
    assert ok


def test_criterion_3_perturbation_suite(capsys):
    report = suites.scripted_perturbation_suite()
    final = max(report.last_values().values())
    ok = report.verdict and final < 1e-6
    _report(
        capsys,
        "criterion 3 (finite-rank perturbation suite)",
        ok,
        f"windowed distances strictly decreasing over n = {report.steps}, "
        f"final distance {final:.2e} < 1e-6 at n = 64",
    )
    assert ok


def test_criterion_4_exhaustion_suite(capsys):
    start = time.perf_counter()
    report = suites.scripted_exhaustion_study()
    elapsed = time.perf_counter() - start
    final = report.rows[-1]
    ok = report.verdict and final.remainder_probe_norm < 1e-3 and elapsed < 10.0
    _report(
        capsys,
        "criterion 4 (exhaustion suite)",
        ok,
        f"probe-window distances decreasing over grids 2^8..2^12, "
        f"remainder probe norm {final.remainder_probe_norm:.2e} < 1e-3 at the finest grid, "
        f"all angles >= {report.min_angle}, runtime {elapsed:.2f}s < 10s",
    )
    assert ok


def test_criterion_5_hard_edge_scaling_suite(capsys):
    start = time.perf_counter()
    reports = suites.scripted_scaling_suite(s_values=(0.0, 0.5, 2.0), n_list=(8, 16, 32, 64))
    decreasing = all(rep.verdict for rep in reports.values())
    residual = max(suites.jacobi_orthonormality_residual(s, 20) for s in (0.0, 0.5, 2.0))
    # the Bessel kernel on the suite's 200-point grid against mpmath: the diagonal and row 100
    grid = GroundSpace.uniform_cells(0.0, 10.0, 200)
    pairs = [(i, i) for i in range(grid.n)] + [(100, j) for j in range(grid.n) if j != 100]
    rows, cols = np.array(pairs).T
    kernel_error = max(
        np.max(np.abs(bessel_kernel(s, grid).entries[rows, cols] - bessel_kernel_entries_mp(s, grid.points, pairs)))
        for s in (0.0, 0.5, 2.0)
    )
    elapsed = time.perf_counter() - start
    ok = decreasing and residual < 1e-8 and kernel_error < 1e-12 and elapsed < 120.0
    _report(
        capsys,
        "criterion 5 (hard-edge scaling suite)",
        ok,
        f"distance columns strictly decreasing for s in (0, 0.5, 2), "
        f"quadrature orthonormality residual {residual:.2e} < 1e-8 up to degree 20, "
        f"Bessel kernel vs mpmath max error {kernel_error:.2e} < 1e-12, runtime {elapsed:.1f}s < 120s",
    )
    assert ok


def test_criterion_6_sampler_correctness(capsys):
    start = time.perf_counter()
    kernels = suites.scripted_sampler_kernels()
    details, ok = [], True
    for name, K in kernels.items():
        D = DppDistribution(K)
        samples = sample(D, 2024, 100_000)
        _, _, p = chi_square_gof(samples, dict(enumerate(brute_force_distribution(D))))
        ok &= p > 1e-3
        details.append(f"{name} p={p:.3f}")
        if isinstance(K, Projection):
            rigid = bool(np.all(samples.occupancy.sum(axis=1) == K.rank))
            ok &= rigid
            details.append(f"{name} rank rigidity={rigid}")
    elapsed = time.perf_counter() - start
    _report(
        capsys,
        "criterion 6 (sampler correctness)",
        ok,
        "chi-square GOF on 1e5 samples per kernel, all p > 0.001; " + ", ".join(details) + f", runtime {elapsed:.1f}s",
    )
    assert ok


def test_criterion_7_tightness_and_chebyshev(capsys):
    cases = suites.scripted_tightness_cases()
    checks = suites.scripted_chebyshev_checks()
    ok = cases.verdict and all(c.passed for c in checks.values())
    _report(
        capsys,
        "criterion 7 (tightness and mass bounds)",
        ok,
        f"drifting family tight={cases['drifting'].tight} (expected False), "
        f"fixed family tight={cases['fixed'].tight} (expected True); "
        f"mass bound holds with 3-sigma slack on {sum(c.passed for c in checks.values())}/5 kernels",
    )
    assert ok


def test_criterion_8_weak_convergence_calibration(capsys):
    """Calibration uniformity and the perturbed sequence's verdict at the acceptance seeds.

    The sequence's verdict is strictly decreasing statistics and a final
    p-value above ``measures.P_VALUE_THRESHOLD``; the final p reads 0.805
    at seed 11.

    "Strictly decreasing" holds for sequence seed 11 but fails on 7 of 29
    other seeds (11 + 1000 s, s = 1..29): the last steps sit inside
    sampling noise, so this verdict is a property of the draw at seed 11,
    not of the method.

    "KS < 0.05" is likewise a property of calibration seed 16000 (KS
    0.040): at seeds 16000 + 1000 s, s = 1..30, it holds on only 5, and
    the KS distance of 200 p-values is a multiple of 0.005 that reads
    0.035-0.095 there.  The 95% critical value of the KS distance at 200
    uniform p-values is about 0.096, so every one of those seeds is
    consistent with calibration; 0.05 is much stricter than that test.
    """
    start = time.perf_counter()
    p_values = suites.weakconv_calibration()
    ks = suites.ks_distance_to_uniform(p_values)
    sequence = suites.weakconv_sequence()
    elapsed = time.perf_counter() - start
    ok = suites.calibration_verdict(p_values) and sequence.verdict
    _report(
        capsys,
        "criterion 8 (weak-convergence testing)",
        ok,
        f"calibration KS distance to uniform {ks:.4f} < 0.05 over 200 repetitions; "
        f"perturbed-sequence energy statistics strictly decreasing={sequence.decreasing} "
        f"(final p={sequence.final_p_value:.3f}), runtime {elapsed:.1f}s",
    )
    assert ok
