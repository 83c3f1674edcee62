"""Rewrite the golden output files: one JSON record per CLI command.

Usage::

    PYTHONPATH=src python tests/golden/regenerate.py

Each record holds what one ``dpplab`` run at the config in ``CASES`` produces:
its exit code, the printed summary, the manifest without its ``versions``
block, every CSV artifact parsed into a header and rows (integers and floats
as numbers, every other field as text), every JSON artifact parsed, and
``samples.csv`` as its sha256 and its lines.  ``tests/test_golden.py`` reruns
each case and compares the result with the record, floats within ``REL_TOL``
relative plus ``ABS_TOL`` absolute.  Running this script changes the recorded
outputs on purpose, so a change that runs it says which values moved and why.
A recorded float, or a number in the printed summary, that the fresh run
matches within that tolerance is kept as recorded (see :func:`merge`), so the
files do not move with the last digits of the machine that reran them.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import re
import sys
import tempfile
from pathlib import Path

from dpplab.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent

#: A float output may move by ABS_TOL + REL_TOL * |recorded| and still match its record.
REL_TOL = 1e-9
ABS_TOL = 1e-13

#: A decimal number as ``repr``, ``.17g`` or a printf format writes it.
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")

#: The config each command runs at: the CI workflow's, plus small oracle, exhaust and weakconv runs.
CASES = {
    "oracle": {"trials": 30},
    "induce": {
        "space": {"points": [0.0, 1.0, 2.0], "weights": [1.0, 1.0, 1.0]},
        "basis": [[1.0, 1.0, 1.0], [0.0, 1.0, 2.0]],
        "g": [1.0, 0.5, 0.25],
    },
    "perturb": {"n_list": [2, 4, 8], "grid_points": 16},
    "exhaust": {"ks": [8, 9, 10]},
    "scaling": {"n_list": [4, 8, 16], "grid_points": 20},
    "tightness": {},
    "weakconv": {"mode": "sequence", "n_list": [1, 2, 4, 16], "batch_size": 200},
    "sample": {"scripted": "contraction_4pt", "count": 500, "seed": 2024},
}


def _cell(text: str):
    """A CSV field as an int, a float, or the text itself when it is neither."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _artifact(name: str, text: str):
    if name == "samples.csv":
        return {"sha256": hashlib.sha256(text.encode()).hexdigest(), "lines": text.splitlines()}
    if name.endswith(".csv"):
        header, *rows = csv.reader(io.StringIO(text))
        return {"header": header, "rows": [[_cell(field) for field in row] for row in rows]}
    return json.loads(text)


def run_case(command: str) -> dict:
    """Run ``dpplab <command>`` at its ``CASES`` config in a temporary directory and record what it produced."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        config = tmp / "config.json"
        config.write_text(json.dumps(CASES[command]))
        out = tmp / "run"
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = main([command, "--config", str(config), "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        del manifest["versions"]
        artifacts = {name: _artifact(name, (out / name).read_text()) for name in manifest["outputs"]}
    return {
        "command": command,
        "config": CASES[command],
        "exit_code": code,
        "printed": printed.getvalue(),
        "manifest": manifest,
        "artifacts": artifacts,
    }


def golden_path(command: str) -> Path:
    return GOLDEN_DIR / f"{command}.json"


def _close(a: float, b: float) -> bool:
    """Whether a matches the recorded b within the float tolerance; NaN matches only NaN."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b or abs(a - b) <= ABS_TOL + REL_TOL * abs(b)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _numbers_match(a, b) -> bool:
    """Two numbers of a record: exactly equal, or within the float tolerance when either is a float."""
    return _close(float(a), float(b)) if float in (type(a), type(b)) else a == b


def _tokens_match(a: str, b: str) -> bool:
    """Two numbers written in a printed summary: integers exactly equal, others within the float tolerance."""
    integers = a.lstrip("+-").isdigit() and b.lstrip("+-").isdigit()
    return a == b if integers else _close(float(a), float(b))


def _keep_close(fresh, recorded):
    """``fresh`` with every number that matches its counterpart in ``recorded`` replaced by that counterpart."""
    if isinstance(fresh, dict) and isinstance(recorded, dict) and fresh.keys() == recorded.keys():
        return {key: _keep_close(fresh[key], recorded[key]) for key in fresh}
    if isinstance(fresh, list) and isinstance(recorded, list) and len(fresh) == len(recorded):
        return [_keep_close(a, b) for a, b in zip(fresh, recorded)]
    if _is_number(fresh) and _is_number(recorded) and _numbers_match(fresh, recorded):
        return recorded
    return fresh


def _keep_close_text(fresh: str, recorded: str) -> str:
    """``fresh`` with each number that matches its counterpart in ``recorded`` written as recorded.

    Only when the two texts differ in their numbers alone; otherwise ``fresh`` as it is.
    """
    parts = _NUMBER.split(fresh)
    if parts != _NUMBER.split(recorded):
        return fresh
    numbers = [b if _tokens_match(a, b) else a for a, b in zip(_NUMBER.findall(fresh), _NUMBER.findall(recorded))]
    return "".join(part + number for part, number in zip(parts, numbers + [""]))


def merge(fresh: dict, recorded: dict) -> dict:
    """The record to write for a fresh run: ``fresh``, keeping each number of ``recorded`` it matches.

    A float, or a number in ``printed``, that the fresh run reproduces within
    the tolerance ``tests/test_golden.py`` allows stays as recorded; anything
    else takes the fresh value.  A record written at another config is
    replaced whole.
    """
    if fresh["config"] != recorded.get("config"):
        return fresh
    merged = _keep_close(fresh, recorded)
    merged["printed"] = _keep_close_text(fresh["printed"], recorded["printed"])
    return merged


def regenerate(commands) -> None:
    for command in commands:
        path = golden_path(command)
        record = run_case(command)
        if path.exists():
            record = merge(record, json.loads(path.read_text()))
        path.write_text(json.dumps(record, indent=1) + "\n")
        print(f"wrote {path.name} (exit {record['exit_code']})")


if __name__ == "__main__":
    regenerate(sys.argv[1:] or tuple(CASES))
