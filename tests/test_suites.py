import dataclasses

import pytest

from dpplab import dpp, suites
from dpplab.errors import DegenerateBasisError
from dpplab.operators import project_span


def test_oracle_report_maxima_and_verdict_follow_the_trials():
    report = suites.conditioning_oracle_battery(trials=5)
    assert [f.name for f in dataclasses.fields(report)] == ["trials"]
    assert report.verdict
    assert report.max_tv == max(t.tv_distance for t in report.trials)
    trials = list(report.trials)
    trials[2] = dataclasses.replace(trials[2], tv_distance=1e-8)
    worse = dataclasses.replace(report, trials=tuple(trials))
    assert worse.max_tv == 1e-8
    assert not worse.verdict
    assert worse.summary().startswith("4/5 trials TV < 1e-09 (max TV 1.000e-08,")
    assert worse.max_normalization_error == report.max_normalization_error
    assert worse.max_projection_error == report.max_projection_error


def test_oracle_battery_redraws_a_degenerate_basis_from_the_trial_stream():
    seed = 4620317
    # trial 45's first Gaussian basis (3 vectors on 3 points) is numerically dependent
    rng = dpp._philox_generator(seed, 45)
    n = int(rng.integers(2, 11))
    rank = int(rng.integers(1, min(3, n) + 1))
    space = suites.random_ground_space(rng, n)
    with pytest.raises(DegenerateBasisError):
        project_span(rng.normal(size=(rank, n)), space)

    report = suites.conditioning_oracle_battery(trials=50, seed=seed)
    assert report.verdict
    assert (report.trials[45].n_points, report.trials[45].rank) == (3, 3)
    # the trials before it keep their draws and records
    assert report.trials[:45] == suites.conditioning_oracle_battery(trials=45, seed=seed).trials
