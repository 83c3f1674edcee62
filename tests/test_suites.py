import dataclasses

from dpplab import suites


def test_oracle_report_maxima_and_verdict_follow_the_trials():
    report = suites.conditioning_oracle_battery(trials=5)
    assert [f.name for f in dataclasses.fields(report)] == ["trials"]
    assert report.passed
    assert report.max_tv == max(t.tv_distance for t in report.trials)
    trials = list(report.trials)
    trials[2] = dataclasses.replace(trials[2], tv_distance=1e-8)
    worse = dataclasses.replace(report, trials=tuple(trials))
    assert worse.max_tv == 1e-8
    assert not worse.passed
    assert worse.summary().startswith("4/5 trials TV < 1e-09 (max TV 1.000e-08,")
    assert worse.max_normalization_error == report.max_normalization_error
    assert worse.max_projection_error == report.max_projection_error
