"""Every CLI command reproduces its golden output (``tests/golden``).

Strings, integers and booleans must match exactly; floats within
``regenerate.REL_TOL`` (1e-9) relative plus ``regenerate.ABS_TOL`` (1e-13)
absolute, and numbers inside the printed summary the same way; ``samples.csv``
by its sha256, naming the first line that differs.
``tests/golden/regenerate.py`` rewrites the files when an output changes on
purpose, keeping every number that still matches by this rule.
"""

import json

import pytest

from golden.regenerate import CASES, _NUMBER, _is_number, _numbers_match, _tokens_match, golden_path, merge, run_case


def _compare_text(got: str, want: str, where: str) -> None:
    """Equal text, except that numbers may move within the float tolerance."""
    got_parts, want_parts = _NUMBER.split(got), _NUMBER.split(want)
    assert got_parts == want_parts, f"{where}: {got!r} != {want!r}"
    for a, b in zip(_NUMBER.findall(got), _NUMBER.findall(want)):
        assert _tokens_match(a, b), f"{where}: {a} != {b} in {got!r}"


def _compare(got, want, where: str) -> None:
    if isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), f"{where}: keys {list(got)} != {list(want)}"
        for key in want:
            _compare(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{where}: length {len(got)} != {len(want)}"
        for i, (a, b) in enumerate(zip(got, want)):
            _compare(a, b, f"{where}[{i}]")
    elif _is_number(got) and _is_number(want):
        assert _numbers_match(got, want), f"{where}: {got!r} != {want!r}"
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


def _compare_samples(got: dict, want: dict, where: str) -> None:
    if got["sha256"] == want["sha256"]:
        return
    first = next((i for i, (a, b) in enumerate(zip(got["lines"], want["lines"])) if a != b), None)
    if first is None:
        pytest.fail(f"{where}: {len(got['lines'])} lines, golden has {len(want['lines'])}")
    pytest.fail(f"{where}: first difference at line {first + 1}: {got['lines'][first]!r} != {want['lines'][first]!r}")


@pytest.mark.parametrize("command", list(CASES))
def test_command_output_matches_golden(command):
    want = json.loads(golden_path(command).read_text())
    got = run_case(command)
    assert got["config"] == want["config"], "the golden file was written at another config"
    assert got["exit_code"] == want["exit_code"]
    _compare_text(got["printed"], want["printed"], "printed")
    _compare(got["manifest"], want["manifest"], "manifest.json")
    assert got["artifacts"].keys() == want["artifacts"].keys()
    for name, value in want["artifacts"].items():
        if name == "samples.csv":
            _compare_samples(got["artifacts"][name], value, name)
        else:
            _compare(got["artifacts"][name], value, name)


def test_merge_keeps_what_a_fresh_run_matches_and_takes_what_moved():
    recorded = json.loads(golden_path("induce").read_text())
    fresh = run_case("induce")
    assert json.dumps(merge(fresh, recorded), indent=1) + "\n" == golden_path("induce").read_text()

    entry = recorded["artifacts"]["induced_kernel.json"]["entries"][0][1]
    margin = recorded["artifacts"]["induce_summary.json"]["margin"]
    summary = fresh["printed"]
    for moved, kept in [(1.0 + 1e-6, False), (1.0 + 1e-12, True)]:
        fresh["artifacts"]["induced_kernel.json"]["entries"][0][1] = entry * moved
        fresh["printed"] = summary.replace(repr(margin), repr(margin * moved))
        assert fresh["printed"] != summary
        merged = merge(fresh, recorded)
        assert merged["artifacts"]["induced_kernel.json"]["entries"][0][1] == (entry if kept else entry * moved)
        assert merged["printed"] == (recorded["printed"] if kept else fresh["printed"])
    fresh["config"] = {"trials": 1}
    assert merge(fresh, recorded) is fresh  # a record of another config is replaced whole
