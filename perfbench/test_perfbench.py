"""Self-tests of the benchmark: its checks reject wrong answers, and every workload runs.

    python -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import harness
import reference
import tracer
import workloads
import yardstick

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

TINY = {
    "exhaustion": lambda: workloads.Exhaustion(ks=(6, 7)),
    "oracle": lambda: workloads.Oracle(trials=20),
    "sampling": lambda: workloads.Sampling(draws=2000),
    "weakconv": lambda: workloads.Weakconv(
        repetitions=8, calibration_batch=50, sequence_batch=100, permutations=19, n_list=(1, 2, 4)
    ),
}


@pytest.fixture
def prog():
    return harness.load_program(SRC)


def _one_pass(prog, workload, seed=0):
    if hasattr(workload, "prepare"):
        workload.prepare(prog)
    inputs = workload.setup(prog, seed)
    return inputs, workload.run_pass(prog, inputs, 0)


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_workload_runs_to_its_end(monkeypatch, name, trace):
    monkeypatch.setattr(harness, "SETUPS", 1)
    line, record = harness.run(TINY[name](), seed=1, seconds=0.0, trace=trace, src=SRC)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    expected = tracer.per_layer_names() if trace else list(harness.END_TO_END_UNITS)
    assert list(line["metrics"]) == expected
    assert record["machine"]["nproc"] >= 1


@pytest.mark.parametrize("kind", yardstick.Yardstick.KINDS)
def test_yardstick_counts_a_pass_in_probe_times(kind):
    stick = yardstick.Yardstick(kind)
    probe = min(stick.measure() for _ in range(20))

    def busy():
        end = time.perf_counter() + 0.5
        while time.perf_counter() < end:
            pass
        return "done"

    start = time.perf_counter()
    result, seconds, in_yardsticks = stick.time(busy)
    wall = time.perf_counter() - start
    assert result == "done"
    assert seconds < 0.5 <= wall  # the probes made while the pass ran are left out
    assert wall - seconds >= 3 * probe  # the timer fired while the pass ran
    assert 0.2 * seconds / probe < in_yardsticks < 2.0 * seconds / probe


def test_minor_law_matches_the_enumeration_oracle(prog):
    for K in prog.suites.scripted_sampler_kernels().values():
        table = prog.dpp.brute_force_distribution(prog.dpp.DppDistribution(K))
        law = reference.minor_law(K.counting)
        assert np.max(np.abs(law - np.array([table[m] for m in range(len(law))]))) < 1e-12


def test_sampling_check_rejects_a_perturbed_exact_table(prog):
    workload = TINY["sampling"]()
    inputs, out = _one_pass(prog, workload)
    assert workload.check(prog, inputs, out, 0)[0] == [True, True, True]
    law = workload.laws["contraction_4pt"].copy()
    top, second = np.argsort(law)[-2:]
    law[top] -= 0.1
    law[second] += 0.1
    workload.laws["contraction_4pt"] = law
    assert workload.check(prog, inputs, out, 0)[0] == [True, False, True]


def test_sampling_check_rejects_a_wrong_csv(prog):
    workload = TINY["sampling"]()
    inputs, out = _one_pass(prog, workload)
    samples, text, gof = out["projection_rank2"]
    out["projection_rank2"] = (samples, "0 1\n" + text, gof)
    assert workload.check(prog, inputs, out, 0)[0] == [False, True, True]


def test_exhaustion_check_rejects_a_perturbed_distance(prog):
    workload = TINY["exhaustion"]()
    inputs, report = _one_pass(prog, workload)
    assert workload.check(prog, inputs, report, 0)[0] == [True, True]
    row = report.rows[0]
    bent = dataclasses.replace(row, distances=(row.distances[0] * (1 + 1e-6), row.distances[1]))
    bad = dataclasses.replace(report, rows=(bent,) + report.rows[1:])
    assert workload.check(prog, inputs, bad, 0)[0] == [False, True]


def test_exhaustion_check_rejects_growing_distances(prog):
    workload = TINY["exhaustion"]()
    inputs, report = _one_pass(prog, workload)
    last = report.rows[-1]
    grown = dataclasses.replace(last, distances=tuple(2 * d for d in report.rows[0].distances))
    bad = dataclasses.replace(report, rows=report.rows[:-1] + (grown,))
    assert workload.check(prog, inputs, bad, 0)[0] == [True, False]


def test_oracle_check_rejects_a_wrong_normalization_constant(prog, monkeypatch):
    workload = TINY["oracle"]()
    inputs, report = _one_pass(prog, workload)
    assert all(workload.check(prog, inputs, report, 0)[0])
    exact = prog.conditioning.normalization_constant
    monkeypatch.setattr(prog.conditioning, "normalization_constant", lambda g, P: exact(g, P) + 1e-9)
    verdicts = workload.check(prog, inputs, report, 0)[0]
    assert [i for i, ok in enumerate(verdicts) if not ok] == list(range(0, 20, workloads.REFERENCE_EVERY))


def test_oracle_check_rejects_a_large_tv_distance(prog):
    workload = TINY["oracle"]()
    inputs, report = _one_pass(prog, workload)
    bad_trial = dataclasses.replace(report.trials[3], tv_distance=1e-8)
    bad = dataclasses.replace(report, trials=report.trials[:3] + (bad_trial,) + report.trials[4:])
    verdicts = workload.check(prog, inputs, bad, 1)[0]
    assert verdicts.count(False) == 1 and not verdicts[3]


def test_weakconv_check_rejects_non_uniform_calibration_and_a_wrong_statistic(prog):
    workload = TINY["weakconv"]()
    inputs, (calibration, sequence) = _one_pass(prog, workload)
    assert workload.check(prog, inputs, (calibration, sequence), 0) == ([True] * 11, True)
    always_reject = np.full(len(calibration), 1.0 / (workload.permutations + 1))
    assert workload.check(prog, inputs, (always_reject, sequence), 0)[1] is False
    stats = (sequence.statistics[0] + 1e-9,) + sequence.statistics[1:]
    bent = dataclasses.replace(sequence, statistics=stats)
    assert workload.check(prog, inputs, (calibration, bent), 0)[0] == [True] * 8 + [False, True, True]


def test_uniformity_test_rejects_p_values_that_all_sit_low():
    assert reference.uniformity_pvalue(np.linspace(0.001, 0.4, 20)) < workloads.UNIFORMITY_LEVEL
    assert reference.uniformity_pvalue((np.arange(20) + 0.5) / 20) > 0.5


def test_benchmark_json_lists_the_metrics_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END_UNITS
    assert [m["name"] for m in spec["per_layer"]] == tracer.per_layer_names()
    assert all(m["unit"] == tracer.per_layer_unit(m["name"]) for m in spec["per_layer"])


def test_run_fails_without_a_result_when_the_source_tree_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cmd = spec["command"] + ["--workload", "oracle", "--seed", "0", "--seconds", "1", "--trace", "0"]
    done = subprocess.run([sys.executable if c == "python3" else c for c in cmd], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and done.stdout == ""
