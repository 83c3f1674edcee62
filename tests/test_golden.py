"""Every CLI command reproduces its golden output (``tests/golden``).

Strings, integers and booleans must match exactly; floats within 1e-9
relative plus 1e-13 absolute, and numbers inside the printed summary the
same way; ``samples.csv`` by its sha256, naming the first line that differs.
``tests/golden/regenerate.py`` rewrites the files when an output changes on
purpose.
"""

import json
import math
import re

import pytest

from golden.regenerate import CASES, golden_path, run_case

REL_TOL = 1e-9
ABS_TOL = 1e-13

#: A decimal number as ``repr``, ``.17g`` or a printf format writes it.
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b or abs(a - b) <= ABS_TOL + REL_TOL * abs(b)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _compare_text(got: str, want: str, where: str) -> None:
    """Equal text, except that numbers may move within the float tolerance."""
    got_parts, want_parts = _NUMBER.split(got), _NUMBER.split(want)
    assert got_parts == want_parts, f"{where}: {got!r} != {want!r}"
    for a, b in zip(_NUMBER.findall(got), _NUMBER.findall(want)):
        integers = a.lstrip("+-").isdigit() and b.lstrip("+-").isdigit()
        assert a == b if integers else _close(float(a), float(b)), f"{where}: {a} != {b} in {got!r}"


def _compare(got, want, where: str) -> None:
    if isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), f"{where}: keys {list(got)} != {list(want)}"
        for key in want:
            _compare(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{where}: length {len(got)} != {len(want)}"
        for i, (a, b) in enumerate(zip(got, want)):
            _compare(a, b, f"{where}[{i}]")
    elif _is_number(got) and _is_number(want) and float in (type(got), type(want)):
        assert _close(float(got), float(want)), f"{where}: {got!r} != {want!r}"
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
