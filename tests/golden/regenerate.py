"""Rewrite the golden output files: one JSON record per CLI command.

Usage::

    PYTHONPATH=src python tests/golden/regenerate.py

Each record holds what one ``dpplab`` run at the config in ``CASES`` produces:
its exit code, the printed summary, the manifest without its ``versions``
block, every CSV artifact parsed into a header and rows (integers and floats
as numbers, every other field as text), every JSON artifact parsed, and
``samples.csv`` as its sha256 and its lines.  ``tests/test_golden.py`` reruns
each case and compares the result with the record.  Running this script
changes the recorded outputs on purpose, so a change that runs it says which
values moved and why.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from dpplab.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent

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


def regenerate(commands) -> None:
    for command in commands:
        record = run_case(command)
        golden_path(command).write_text(json.dumps(record, indent=1) + "\n")
        print(f"wrote {golden_path(command).name} (exit {record['exit_code']})")


if __name__ == "__main__":
    regenerate(sys.argv[1:] or tuple(CASES))
