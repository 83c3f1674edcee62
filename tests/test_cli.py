import contextlib
import csv
import functools
import inspect
import io
import json
import tempfile
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpplab import suites
from dpplab.cli import _COMMANDS, _SCHEMAS, _SUITES, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, build_parser, main
from dpplab.deformations import ExhaustionReport, ExhaustionRow
from dpplab.errors import (
    AngleDegeneracyError,
    ConditioningImpossibleError,
    ContractError,
    DegenerateBasisError,
    EmptyWindowError,
    EnumerationSizeError,
    InducibilityError,
)
from dpplab.serialization import load_json
from golden.regenerate import CASES


def _write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def test_oracle_command_writes_csv_and_manifest(tmp_path):
    cfg = _write(tmp_path / "cfg.json", {"trials": 30})
    code = main(["oracle", "--config", cfg, "--out", str(tmp_path / "run")])
    assert code == EXIT_OK
    csv = (tmp_path / "run" / "oracle.csv").read_text()
    assert csv.splitlines()[0] == "trial,n_points,rank,tv_distance,normalization_error,projection_error"
    assert len(csv.splitlines()) == 31
    manifest = load_json(tmp_path / "run" / "manifest.json")
    assert manifest["command"] == "oracle"
    assert manifest["outputs"] == ["oracle.csv"]
    assert len(manifest["config_sha256"]) == 64
    assert "numpy" in manifest["versions"]


def test_unknown_field_rejected(tmp_path):
    cfg = _write(tmp_path / "cfg.json", {"trials": 5, "mystery": True})
    assert main(["oracle", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG


def test_malformed_json_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    assert main(["oracle", "--config", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG


def test_missing_config_rejected(tmp_path):
    assert main(["oracle", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == EXIT_CONFIG


_INDUCE_CONFIG = {"space": {"points": [1.0, 2.0], "weights": [1.0, 1.0]}, "basis": [[1.0, 1.0]], "g": [1.0, 0.5]}


def test_induce_command(tmp_path):
    cfg = _write(tmp_path / "cfg.json", _INDUCE_CONFIG)
    code = main(["induce", "--config", cfg, "--out", str(tmp_path / "run")])
    assert code == EXIT_OK
    summary = load_json(tmp_path / "run" / "induce_summary.json")
    assert summary["normalization_constant"] == pytest.approx(0.75)
    assert summary["rank"] == 1
    kernel = load_json(tmp_path / "run" / "induced_kernel.json")
    entries = np.array(kernel["entries"])
    assert entries[0, 0] == pytest.approx(2.0 / 3.0)


def test_induce_basis_of_the_wrong_width_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path / "cfg.json", {**_INDUCE_CONFIG, "basis": [[1.0, 1.0, 1.0]]})
    assert main(["induce", "--config", cfg, "--out", str(tmp_path / "run")]) == EXIT_CONFIG
    assert "basis vectors must match the number of grid points" in capsys.readouterr().err
    assert not (tmp_path / "run" / "manifest.json").exists()


def test_induce_degenerate_weight_exits_3(tmp_path):
    # the range of the projection is supported inside {g = 0}
    cfg = _write(
        tmp_path / "cfg.json",
        {
            "space": {"points": [1.0, 2.0], "weights": [1.0, 1.0]},
            "basis": [[1.0, 0.0]],
            "g": [0.0, 1.0],
        },
    )
    assert main(["induce", "--config", cfg, "--out", str(tmp_path / "run")]) == EXIT_NUMERICAL


def test_sample_command_scripted_kernel(tmp_path):
    cfg = _write(tmp_path / "cfg.json", {"scripted": "projection_rank2", "count": 20})
    code = main(["sample", "--config", cfg, "--seed", "5", "--out", str(tmp_path / "run")])
    assert code == EXIT_OK
    lines = (tmp_path / "run" / "samples.csv").read_text().splitlines()
    assert len(lines) == 20
    assert all(len(line.split()) == 2 for line in lines)  # rank-2 projection
    manifest = load_json(tmp_path / "run" / "manifest.json")
    assert manifest["seed"] == 5


def test_sample_command_requires_one_kernel_source(tmp_path):
    cfg = _write(tmp_path / "cfg.json", {"count": 5})
    assert main(["sample", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG


@pytest.mark.parametrize(
    "command, config, args",
    [
        ("sample", {"scripted": "projection_rank2", "count": 5}, ["--seed", str(2**64)]),
        # the derived sampler seeds seed + 1000 + j pass 2^64
        (
            "weakconv",
            {"mode": "calibration", "repetitions": 11, "batch_size": 20, "permutations": 19, "seed": 2**64 - 16},
            [],
        ),
    ],
)
def test_seeds_beyond_64_bits_exit_2(tmp_path, capsys, command, config, args):
    cfg = _write(tmp_path / "cfg.json", config)
    assert main([command, "--config", cfg, *args, "--out", str(tmp_path / "run")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err
    assert not (tmp_path / "run" / "manifest.json").exists()


def test_perturb_command(tmp_path):
    cfg = _write(tmp_path / "cfg.json", {"n_list": [2, 4, 8], "grid_points": 16})
    code = main(["perturb", "--config", cfg, "--out", str(tmp_path / "run")])
    assert code == EXIT_OK
    csv = (tmp_path / "run" / "perturbation.csv").read_text()
    assert csv.splitlines()[0] == "n,window_id,distance"


@pytest.mark.parametrize("k", [2, 3])
def test_exhaust_grid_without_core_point_rejected(tmp_path, k):
    # grids of 2^2 and 2^3 points have no point in the core window [0.5, 1]
    cfg = _write(tmp_path / "cfg.json", {"ks": [k]})
    assert main(["exhaust", "--config", cfg, "--out", str(tmp_path / "run")]) == EXIT_CONFIG
    assert not (tmp_path / "run" / "exhaustion.csv").exists()


@pytest.mark.parametrize("ks", [[10, 8], [9, 9]])
def test_exhaust_rejects_ks_that_do_not_increase(tmp_path, ks):
    # as scaling rejects an n_list that does not increase
    cfg = _write(tmp_path / "cfg.json", {"ks": ks})
    assert main(["exhaust", "--config", cfg, "--out", str(tmp_path / "run")]) == EXIT_CONFIG
    assert not (tmp_path / "run" / "exhaustion.csv").exists()


def test_exhaust_command_on_a_2_14_grid(tmp_path):
    cfg = _write(tmp_path / "cfg.json", {"ks": [14]})
    assert main(["exhaust", "--config", cfg, "--out", str(tmp_path / "run")]) == EXIT_OK
    header, row = (tmp_path / "run" / "exhaustion.csv").read_text().splitlines()
    assert header.startswith("n,") and header.endswith(",angle_ok")
    values = row.split(",")
    assert values[0] == "14" and values[-1] == "1"
    assert all(np.isfinite(float(v)) for v in values)  # a failed row carries NaN


def test_exhaust_with_a_failed_row_writes_its_table_and_exits_3(tmp_path, monkeypatch):
    nan = float("nan")
    report = ExhaustionReport((ExhaustionRow(8, 0.5, (nan, nan), nan, True, failed=True),), ("a", "b"), 0.05)
    monkeypatch.setitem(_SUITES, ("exhaust", None), lambda: report)
    cfg = _write(tmp_path / "cfg.json", {})
    assert main(["exhaust", "--config", cfg, "--out", str(tmp_path / "run")]) == EXIT_NUMERICAL
    assert (tmp_path / "run" / "exhaustion.csv").read_text().splitlines()[1] == "8,0.5,nan,nan,nan,1"
    assert (tmp_path / "run" / "manifest.json").is_file()


def test_exhaust_exits_3_when_its_distances_grow(tmp_path, capsys):
    # the [0.25,1] distance grows from the 2^4 grid to the 2^5 grid
    cfg = _write(tmp_path / "cfg.json", {"ks": [4, 5, 6, 7, 8]})
    assert main(["exhaust", "--config", cfg, "--out", str(tmp_path / "run")]) == EXIT_NUMERICAL
    assert capsys.readouterr().out == "final probe norm 8.129e-04, decreasing=False, angles ok: True\n"
    assert len((tmp_path / "run" / "exhaustion.csv").read_text().splitlines()) == 6
    assert load_json(tmp_path / "run" / "manifest.json")["outputs"] == ["exhaustion.csv"]


#: How a suite's result gives its verdict where the result is not one report.
_RESULT_VERDICTS = {
    ("scaling", None): lambda reports: all(rep.verdict for rep in reports.values()),
    ("weakconv", "calibration"): suites.calibration_verdict,
}


@pytest.mark.parametrize(
    "command, mode, config",
    [
        *((command, None, CASES[command]) for command in ("oracle", "perturb", "exhaust", "scaling", "tightness")),
        ("weakconv", "sequence", CASES["weakconv"]),
        ("weakconv", "calibration", {"mode": "calibration"}),
        ("exhaust", None, {"ks": [4, 5, 6, 7, 8]}),  # a failed verdict
    ],
)
def test_each_suite_command_exits_by_its_reports_verdict(tmp_path, monkeypatch, command, mode, config):
    suite, results = _SUITES[command, mode], []

    @functools.wraps(suite)
    def recorded(**kwargs):
        results.append(suite(**kwargs))
        return results[-1]

    monkeypatch.setitem(_SUITES, (command, mode), recorded)
    code = main([command, "--config", _write(tmp_path / "cfg.json", config), "--out", str(tmp_path / "run")])
    verdict = _RESULT_VERDICTS.get((command, mode), lambda report: report.verdict)(*results)
    assert code == (EXIT_OK if verdict else EXIT_NUMERICAL)


@pytest.mark.parametrize(
    "error, code",
    [
        (ContractError("kernel spectrum is not a contraction"), EXIT_NUMERICAL),
        (DegenerateBasisError(1), EXIT_NUMERICAL),
        (AngleDegeneracyError(0, 0.01, 0.05), EXIT_NUMERICAL),
        (InducibilityError(-1e-3), EXIT_NUMERICAL),
        (ConditioningImpossibleError("the normalization constant vanishes"), EXIT_NUMERICAL),
        (EnumerationSizeError("21 points exceed the enumeration limit 20"), EXIT_CONFIG),
        (EmptyWindowError("no point in the core window"), EXIT_CONFIG),
    ],
    ids=lambda value: type(value).__name__ if isinstance(value, Exception) else str(value),
)
def test_exit_code_of_each_error_a_suite_raises(tmp_path, monkeypatch, capsys, error, code):
    def suite():
        raise error

    monkeypatch.setitem(_SUITES, ("tightness", None), suite)
    cfg = _write(tmp_path / "cfg.json", {})
    assert main(["tightness", "--config", cfg, "--out", str(tmp_path / "run")]) == code
    prefix = "numerical contract violation" if code == EXIT_NUMERICAL else "config error"
    assert capsys.readouterr().err == f"{prefix}: {error}\n"
    assert not (tmp_path / "run" / "manifest.json").exists()


@pytest.mark.parametrize("s_values", [[0.5, 0.5000001], [2.0, 2.0], [0.0, -0.0]])
def test_scaling_rejects_s_values_that_share_a_table(tmp_path, s_values):
    # s values that agree to 6 digits would write one scaling_s*.csv; 0.0 and -0.0 would share one report
    cfg = _write(tmp_path / "cfg.json", {"s_values": s_values, "n_list": [4, 8], "grid_points": 10})
    assert main(["scaling", "--config", cfg, "--out", str(tmp_path / "run")]) == EXIT_CONFIG
    assert not any((tmp_path / "run").iterdir())


def test_scaling_rejects_an_n_list_that_does_not_increase(tmp_path, capsys):
    cfg = _write(tmp_path / "cfg.json", {"n_list": [16, 8], "grid_points": 20})
    assert main(["scaling", "--config", cfg, "--out", str(tmp_path / "run")]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: n_list must be increasing\n"
    assert not (tmp_path / "run" / "manifest.json").exists()


def test_scaling_at_a_high_order_past_its_turning_point(tmp_path):
    # J_100 at arguments up to 90 = sqrt(8100): a power series there cancels to a handful of digits
    cfg = _write(tmp_path / "cfg.json", {"s_values": [100.0], "n_list": [45, 50], "grid_points": 20, "x_max": 8100.0})
    assert main(["scaling", "--config", cfg, "--out", str(tmp_path / "run")]) == EXIT_OK
    with open(tmp_path / "run" / "scaling_s100.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [row["n"] for row in rows] == ["45", "50"]
    assert all(np.isfinite(float(row["i1_distance"])) for row in rows)


def test_weakconv_sequence_command(tmp_path):
    cfg = _write(
        tmp_path / "cfg.json",
        {"mode": "sequence", "n_list": [1, 4, 16, 64], "batch_size": 300, "seed": 11},
    )
    code = main(["weakconv", "--config", cfg, "--out", str(tmp_path / "run")])
    assert (tmp_path / "run" / "weakconv.csv").exists()
    assert code in (EXIT_OK, EXIT_NUMERICAL)  # statistic table is always written


def test_removed_jobs_option_exits_2(tmp_path):
    cfg = _write(tmp_path / "cfg.json", {"trials": 3})
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--config", cfg, "--out", str(tmp_path), "--jobs", "1"])
    assert exc.value.code == EXIT_CONFIG


@pytest.mark.parametrize("command", ["induce", "perturb", "exhaust", "scaling", "tightness"])
def test_seed_option_on_a_seedless_command_exits_2(tmp_path, command):
    cfg = _write(tmp_path / "cfg.json", {})
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", cfg, "--seed", "5", "--out", str(tmp_path / "run")])
    assert exc.value.code == EXIT_CONFIG


@pytest.mark.parametrize(
    "command, config",
    [
        ("sample", {"scripted": "projection_rank2", "count": 5.0}),
        ("oracle", {"trials": 3.0}),
        ("exhaust", {"ks": [8.0]}),
        ("perturb", {"n_list": [2.0, 4.0]}),
    ],
)
def test_integer_fields_reject_json_floats(tmp_path, capsys, command, config):
    cfg = _write(tmp_path / "cfg.json", config)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "run")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err
    assert not (tmp_path / "run" / "manifest.json").exists()


@pytest.mark.parametrize("mode", ["calibration", "sequence"])
@pytest.mark.parametrize("override, expected", [([], 5), (["--seed", "7"], 7)])
def test_weakconv_manifest_records_seed_used(tmp_path, mode, override, expected):
    sizes = {"repetitions": 11} if mode == "calibration" else {"n_list": [1, 2]}
    cfg = _write(
        tmp_path / "cfg.json", {"mode": mode, "seed": 5, "batch_size": 10, "permutations": 19, **sizes}
    )
    code = main(["weakconv", "--config", cfg, "--out", str(tmp_path / "run"), *override])
    assert code in (EXIT_OK, EXIT_NUMERICAL)
    assert load_json(tmp_path / "run" / "manifest.json")["seed"] == expected


@pytest.mark.parametrize(
    "command, config, default",
    [
        ("oracle", {"trials": 3}, 20240),
        ("weakconv", {"mode": "calibration", "repetitions": 11, "batch_size": 10, "permutations": 19}, 16000),
        ("weakconv", {"mode": "sequence", "n_list": [1, 2], "batch_size": 10, "permutations": 19}, 11),
        # commands without a seed, which --seed cannot set either
        ("induce", _INDUCE_CONFIG, None),
        ("tightness", {}, None),
    ],
)
def test_manifest_records_default_seed(tmp_path, command, config, default):
    cfg = _write(tmp_path / "cfg.json", config)
    code = main([command, "--config", cfg, "--out", str(tmp_path / "run")])
    assert code in (EXIT_OK, EXIT_NUMERICAL)
    assert load_json(tmp_path / "run" / "manifest.json")["seed"] == default


def test_weakconv_calibration_with_ten_repetitions_rejected(tmp_path):
    # ten p-values sit at KS distance >= 1/20 from uniform, so the 0.05 check could never pass
    cfg = _write(
        tmp_path / "cfg.json",
        {"mode": "calibration", "repetitions": 10, "batch_size": 10, "permutations": 19, "seed": 5},
    )
    assert main(["weakconv", "--config", cfg, "--out", str(tmp_path / "run")]) == EXIT_CONFIG
    assert not (tmp_path / "run" / "manifest.json").exists()


def test_weakconv_key_outside_mode_rejected(tmp_path):
    cfg = _write(tmp_path / "cfg.json", {"mode": "sequence", "repetitions": 3})
    assert main(["weakconv", "--config", cfg, "--out", str(tmp_path / "run")]) == EXIT_CONFIG
    assert not (tmp_path / "run" / "manifest.json").exists()


def test_weakconv_calibration_rejects_an_n_list(tmp_path, capsys):
    # the schema admits n_list for either mode; the calibration suite takes none
    cfg = _write(tmp_path / "cfg.json", {"mode": "calibration", "n_list": [1, 2]})
    assert main(["weakconv", "--config", cfg, "--out", str(tmp_path / "run")]) == EXIT_CONFIG
    assert "weakconv mode 'calibration' takes no n_list" in capsys.readouterr().err
    assert not (tmp_path / "run" / "manifest.json").exists()


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_config_rejected(tmp_path, constant):
    path = tmp_path / "cfg.json"
    path.write_text(
        '{"space": {"points": [0.5, %s, 2.0], "weights": [1.0, 1.0, 1.0]}, '
        '"basis": [[1.0, 1.0, 1.0]], "g": [1.0, 0.5, 1.0]}' % constant
    )
    assert main(["induce", "--config", str(path), "--out", str(tmp_path / "run")]) == EXIT_CONFIG
    assert not (tmp_path / "run").exists()


def test_schema_properties_are_suite_parameters():
    parameters: dict[str, set] = {}
    for (command, _), fn in _SUITES.items():
        parameters.setdefault(command, set()).update(inspect.signature(fn).parameters)
    assert set(parameters) == {"oracle", "perturb", "exhaust", "scaling", "tightness", "weakconv"}
    for command, names in parameters.items():
        keys = set(_SCHEMAS[command]["properties"]) - {"mode"}
        assert keys <= names, f"{command} schema keys {keys - names} feed no suite parameter"
    modes = {mode for command, mode in _SUITES if command == "weakconv"}
    assert modes == set(_SCHEMAS["weakconv"]["properties"]["mode"]["enum"])
    for command, schema in _SCHEMAS.items():
        _, unknown = build_parser().parse_known_args([command, "--config", "cfg.json", "--seed", "1"])
        assert (not unknown) == ("seed" in schema["properties"]), command


# Schema-valid configs for every command, with sizes bounded so that each run takes milliseconds.
_SEEDS = st.integers(0, 2**32 - 1)
_WEAKCONV_SIZES = {"batch_size": st.integers(2, 12), "permutations": st.integers(19, 30)}


@st.composite
def _induce_configs(draw):
    n = draw(st.integers(1, 4))
    start = draw(st.floats(-10.0, 10.0))
    gaps = draw(st.lists(st.floats(1e-3, 10.0), min_size=n - 1, max_size=n - 1))
    points = np.cumsum([start, *gaps]).tolist()
    weights = draw(st.lists(st.floats(1e-3, 10.0), min_size=n, max_size=n))
    g_size = draw(st.sampled_from([n, n, n, n + 1]))  # now and then a g on the wrong number of points
    rows = draw(st.integers(1, n))
    basis = draw(st.lists(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n), min_size=rows, max_size=rows))
    g = draw(st.lists(st.floats(0.0, 1.0), min_size=g_size, max_size=g_size))
    return {"space": {"points": points, "weights": weights}, "basis": basis, "g": g}


@st.composite
def _kernel_payloads(draw):
    if draw(st.integers(0, 4)) == 0:
        return draw(st.sampled_from([{}, {"format_version": 1}, {"format_version": 1, "space": {}}]))
    n = draw(st.integers(1, 4))
    A = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n * n, max_size=n * n))).reshape(n, n)
    sym = A @ A.T
    scale = draw(st.floats(0.0, 1.5)) / max(float(np.linalg.eigvalsh(sym)[-1]), 1e-3)
    space = {"format_version": 1, "points": list(range(1, n + 1)), "weights": [1.0] * n}
    return {"format_version": 1, "space": space, "entries": (scale * sym).tolist()}


@st.composite
def _sample_configs(draw):
    config = draw(st.fixed_dictionaries({"count": st.integers(1, 50)}, optional={"seed": _SEEDS}))
    source = draw(st.sampled_from(["scripted", "kernel", "scripted", "kernel", "both", "neither"]))
    if source in ("scripted", "both"):
        config["scripted"] = draw(st.sampled_from(_SCHEMAS["sample"]["properties"]["scripted"]["enum"]))
    if source in ("kernel", "both"):
        config["kernel"] = draw(_kernel_payloads())
    return config


_CONFIGS = {
    "oracle": st.fixed_dictionaries(
        {"trials": st.integers(1, 4)},
        optional={
            "seed": _SEEDS,
            "max_points": st.integers(2, 8),
            "max_rank": st.integers(1, 6),
            "g_low": st.floats(0.0, 1.0, exclude_min=True),
        },
    ),
    "induce": _induce_configs(),
    "perturb": st.fixed_dictionaries(
        {},
        optional={
            "n_list": st.lists(st.integers(1, 200), min_size=2, max_size=4),
            "grid_points": st.integers(2, 40),
        },
    ),
    "exhaust": st.fixed_dictionaries(
        {"ks": st.lists(st.integers(4, 9), min_size=1, max_size=3, unique=True).map(sorted)},
        optional={"min_angle": st.floats(0.0, 4.0, exclude_min=True)},
    ),
    "scaling": st.fixed_dictionaries(
        {
            "n_list": st.lists(st.integers(1, 12), min_size=2, max_size=3, unique=True).map(sorted),
            "grid_points": st.integers(2, 24),
        },
        optional={
            "s_values": st.lists(st.floats(-1.0, 3.0, exclude_min=True), min_size=1, max_size=2),
            "x_max": st.floats(0.0, 60.0, exclude_min=True),
        },
    ),
    "tightness": st.just({}),
    "weakconv": st.one_of(
        st.fixed_dictionaries(
            {"mode": st.just("calibration"), "repetitions": st.integers(11, 12), **_WEAKCONV_SIZES},
            optional={"seed": _SEEDS},
        ),
        st.fixed_dictionaries(
            {"n_list": st.lists(st.integers(1, 64), min_size=2, max_size=3), **_WEAKCONV_SIZES},
            optional={"mode": st.just("sequence"), "seed": _SEEDS},
        ),
    ),
    "sample": _sample_configs(),
}


@pytest.mark.parametrize("command", sorted(_COMMANDS))
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_every_schema_valid_config_exits_with_a_contract_code(command, data):
    """Exit 0, 2 or 3 without a traceback, and a manifest on exit 0."""
    config = data.draw(_CONFIGS[command], label="config")
    jsonschema.validate(config, _SCHEMAS[command])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(config))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--config", str(path), "--out", str(Path(tmp) / "run")])
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if code == EXIT_OK:
            assert (Path(tmp) / "run" / "manifest.json").is_file()
        for table in sorted((Path(tmp) / "run").glob("*.csv")):
            text = table.read_text()
            if table.name == "samples.csv":
                _assert_samples_csv(text, config)
                continue
            header, *rows = csv.reader(io.StringIO(text, newline=""))
            assert all(len(row) == len(header) for row in rows), f"{table.name}:\n{text}"


def _assert_samples_csv(text, config):
    """One line per draw, each empty or the space-separated indices of its points."""
    if "scripted" in config:
        n = suites.scripted_sampler_kernels()[config["scripted"]].n
    else:
        n = len(config["kernel"]["space"]["points"])
    lines = text.split("\n")
    assert lines.pop() == "" and len(lines) == config["count"]
    for line in lines:
        assert line == "" or all(i.isdigit() and int(i) < n for i in line.split(" ")), line
