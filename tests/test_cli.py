import inspect
import json

import numpy as np
import pytest

from dpplab.cli import _SCHEMAS, _SUITES, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main
from dpplab.serialization import load_json


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


def test_induce_command(tmp_path):
    cfg = _write(
        tmp_path / "cfg.json",
        {
            "space": {"points": [1.0, 2.0], "weights": [1.0, 1.0]},
            "basis": [[1.0, 1.0]],
            "g": [1.0, 0.5],
        },
    )
    code = main(["induce", "--config", cfg, "--out", str(tmp_path / "run")])
    assert code == EXIT_OK
    summary = load_json(tmp_path / "run" / "induce_summary.json")
    assert summary["normalization_constant"] == pytest.approx(0.75)
    assert summary["rank"] == 1
    kernel = load_json(tmp_path / "run" / "induced_kernel.json")
    entries = np.array(kernel["entries"])
    assert entries[0, 0] == pytest.approx(2.0 / 3.0)


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
    assert set(parameters) == {"oracle", "perturb", "exhaust", "scaling", "weakconv"}
    for command, names in parameters.items():
        keys = set(_SCHEMAS[command]["properties"]) - {"mode"}
        assert keys <= names, f"{command} schema keys {keys - names} feed no suite parameter"
    modes = {mode for command, mode in _SUITES if command == "weakconv"}
    assert modes == set(_SCHEMAS["weakconv"]["properties"]["mode"]["enum"])
