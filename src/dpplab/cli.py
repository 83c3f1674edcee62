"""Command-line front end for the scripted experiment batteries.

Every command reads a JSON config validated against a strict schema
(unknown fields are rejected), writes its artifacts plus a run manifest
into the output directory, and exits with 0 on success, 2 on a
configuration problem, or 3 on a failed verdict or a numerical contract
violation (any :class:`~dpplab.errors.ContractError`).
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import sys
from pathlib import Path

import jsonschema
import numpy as np
import scipy

from . import __version__
from .conditioning import WeightFunction, check_inducibility, induced_kernel, normalization_constant
from .dpp import DppDistribution, sample
from .errors import ConfigError, ContractError, DimensionError
from .ground import GroundSpace
from .operators import project_span
from .serialization import (
    json_text,
    kernel_from_dict,
    kernel_to_dict,
    samples_to_csv,
    save_json,
    space_from_dict,
)
from .tables import csv_text
from . import suites

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_SPACE_SCHEMA = {
    "type": "object",
    "properties": {
        "points": {"type": "array", "items": {"type": "number"}, "minItems": 1},
        "weights": {"type": "array", "items": {"type": "number"}, "minItems": 1},
        "label": {"type": "string"},
        "format_version": {"const": 1},
        "kind": {"const": "ground_space"},
    },
    "required": ["points", "weights"],
    "additionalProperties": False,
}

_SCHEMAS = {
    "oracle": {
        "type": "object",
        "properties": {
            "trials": {"type": "integer", "minimum": 1},
            "seed": {"type": "integer", "minimum": 0},
            "max_points": {"type": "integer", "minimum": 2, "maximum": 14},
            "max_rank": {"type": "integer", "minimum": 1},
            "g_low": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
        },
        "additionalProperties": False,
    },
    "induce": {
        "type": "object",
        "properties": {
            "space": _SPACE_SCHEMA,
            "basis": {"type": "array", "items": {"type": "array", "items": {"type": "number"}}, "minItems": 1},
            "g": {"type": "array", "items": {"type": "number", "minimum": 0, "maximum": 1}},
        },
        "required": ["space", "basis", "g"],
        "additionalProperties": False,
    },
    "perturb": {
        "type": "object",
        "properties": {
            "n_list": {"type": "array", "items": {"type": "integer", "minimum": 1}, "minItems": 2},
            "grid_points": {"type": "integer", "minimum": 2},
        },
        "additionalProperties": False,
    },
    "exhaust": {
        "type": "object",
        "properties": {
            "ks": {"type": "array", "items": {"type": "integer", "minimum": 4, "maximum": 16}, "minItems": 1},
            "min_angle": {"type": "number", "exclusiveMinimum": 0},
        },
        "additionalProperties": False,
    },
    "scaling": {
        "type": "object",
        "properties": {
            "s_values": {"type": "array", "items": {"type": "number", "exclusiveMinimum": -1}, "minItems": 1},
            "n_list": {"type": "array", "items": {"type": "integer", "minimum": 1}, "minItems": 2},
            "grid_points": {"type": "integer", "minimum": 2},
            "x_max": {"type": "number", "exclusiveMinimum": 0},
        },
        "additionalProperties": False,
    },
    "tightness": {"type": "object", "properties": {}, "additionalProperties": False},
    "weakconv": {
        "type": "object",
        "properties": {
            "mode": {"enum": ["calibration", "sequence"]},
            "seed": {"type": "integer", "minimum": 0},
            # the KS distance of n p-values to the uniform law is at least 1/(2n),
            # so the suites.CALIBRATION_KS_LIMIT = 0.05 check can pass only from 11 repetitions on
            "repetitions": {"type": "integer", "minimum": 11},
            "batch_size": {"type": "integer", "minimum": 2},
            "n_list": {"type": "array", "items": {"type": "integer", "minimum": 1}, "minItems": 2},
            "permutations": {"type": "integer", "minimum": 19},
        },
        "additionalProperties": False,
    },
    "sample": {
        "type": "object",
        "properties": {
            "scripted": {"enum": ["projection_rank2", "contraction_4pt", "projection_rank3"]},
            "kernel": {"type": "object"},
            "count": {"type": "integer", "minimum": 1},
            "seed": {"type": "integer", "minimum": 0},
        },
        "required": ["count"],
        "additionalProperties": False,
    },
}


#: The suite function each command feeds, keyed by command and weakconv mode.
_SUITES = {
    ("oracle", None): suites.conditioning_oracle_battery,
    ("perturb", None): suites.scripted_perturbation_suite,
    ("exhaust", None): suites.scripted_exhaustion_study,
    ("scaling", None): suites.scripted_scaling_suite,
    ("tightness", None): suites.scripted_tightness_cases,
    ("weakconv", "calibration"): suites.weakconv_calibration,
    ("weakconv", "sequence"): suites.weakconv_sequence,
}


#: Draft 2020-12 validation, except that "integer" admits only a JSON integer: not 5.0, not true.
_Validator = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda checker, instance: isinstance(instance, int) and not isinstance(instance, bool)
    ),
)


def _reject_constant(name: str):
    raise ConfigError(f"config holds the non-finite number {name}")


def _load_config(path: str, command: str) -> dict:
    try:
        with open(path) as fh:
            config = json.load(fh, parse_constant=_reject_constant)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    try:
        jsonschema.validate(config, _SCHEMAS[command], cls=_Validator)
    except jsonschema.ValidationError as exc:
        raise ConfigError(f"config rejected: {exc.message}") from exc
    return config


def _write_manifest(out: Path, command: str, config: dict, seed, outputs: list[str]) -> None:
    digest = hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()
    manifest = {
        "command": command,
        "config_sha256": digest,
        "seed": seed,
        "outputs": outputs,
        "versions": {
            "dpplab": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": sys.version.split()[0],
        },
    }
    save_json(manifest, out / "manifest.json")


def _run_suite(command: str, config: dict, seed, mode: str | None = None):
    """Call the suite a validated config feeds; return its result and the seed it ran with.

    JSON lists become tuples, ``--seed`` (offered only where the command's
    schema declares ``seed``) overrides the config's, and a key the suite
    does not take is a config error.  A suite left to its default seed
    reports that default; a suite without a seed reports None.
    """
    fn = _SUITES[command, mode]
    kwargs = {key: tuple(v) if isinstance(v, list) else v for key, v in config.items() if key != "mode"}
    if seed is not None:
        kwargs["seed"] = seed
    parameters = inspect.signature(fn).parameters
    unused = sorted(set(kwargs) - set(parameters))
    if unused:
        where = command if mode is None else f"{command} mode {mode!r}"
        raise ConfigError(f"{where} takes no {', '.join(unused)}")
    default_seed = parameters["seed"].default if "seed" in parameters else None
    return fn(**kwargs), kwargs.get("seed", default_seed)


def _cmd_oracle(config: dict, seed):
    report, seed = _run_suite("oracle", config, seed)
    return seed, {"oracle.csv": report.to_csv()}, report.summary(), report.verdict


def _cmd_induce(config: dict, seed):
    space = space_from_dict({"format_version": 1, **config["space"]})
    basis = np.asarray(config["basis"], dtype=float)
    if basis.shape[1] != space.n:
        raise ConfigError("basis vectors must match the number of grid points")
    g = WeightFunction(space, np.asarray(config["g"], dtype=float))
    P = project_span(basis, space)
    check = check_inducibility(g, P)
    B = induced_kernel(g, P)
    summary = {
        "margin": check.margin,
        "invertible": check.invertible,
        "normalization_constant": normalization_constant(g, P),
        "rank": B.rank,
    }
    artifacts = {
        "induced_kernel.json": json_text(kernel_to_dict(B)),
        "induce_summary.json": json_text({"format_version": 1, **summary}),
    }
    return None, artifacts, json.dumps(summary), True


def _cmd_perturb(config: dict, seed):
    report, seed = _run_suite("perturb", config, seed)
    text = f"final distances: {report.last_values()}  monotone: {report.monotone_flags()}"
    return seed, {"perturbation.csv": report.to_csv()}, text, report.verdict


def _cmd_exhaust(config: dict, seed):
    report, seed = _run_suite("exhaust", config, seed)
    last = report.rows[-1]
    text = (
        f"final probe norm {last.remainder_probe_norm:.3e}, decreasing={report.decreasing}, "
        f"angles ok: {all(r.angle_ok for r in report.rows)}, verdict={report.verdict}"
    )
    return seed, {"exhaustion.csv": report.to_csv()}, text, report.verdict


def _cmd_scaling(config: dict, seed):
    s_values = config.get("s_values", ())
    # s values equal as numbers (0.0 and -0.0) share one report, and those equal to 6 digits one file name
    if len(set(s_values)) < len(s_values) or len({f"{s:g}" for s in s_values}) < len(s_values):
        raise ConfigError(f"s_values {s_values} would share a scaling_s*.csv table")
    reports, seed = _run_suite("scaling", config, seed)
    artifacts = {f"scaling_s{s:g}.csv": rep.to_csv() for s, rep in reports.items()}
    text = "\n".join(
        f"s={s:g}: strictly decreasing={rep.verdict}, "
        f"last distance {rep.report.distances[-1].max():.3e}"
        for s, rep in reports.items()
    )
    return seed, artifacts, text, all(rep.verdict for rep in reports.values())


def _cmd_tightness(config: dict, seed):
    reports, seed = _run_suite("tightness", config, seed)
    artifacts = {f"tightness_{name}.csv": rep.to_csv() for name, rep in reports.items()}
    lines = [
        f"{name}: tight={rep.tight} sup_trace={rep.sup_trace:.6g} sup_tails={rep.sup_tails}"
        for name, rep in reports.items()
    ]
    text = "\n".join([*lines, f"verdict={reports.verdict}"])
    return seed, artifacts, text, reports.verdict


def _cmd_weakconv(config: dict, seed):
    mode = config.get("mode", "sequence")
    result, seed = _run_suite("weakconv", config, seed, mode)
    if mode == "calibration":
        ks = suites.ks_distance_to_uniform(result)
        table = csv_text(("p_value",), ([p] for p in result))
        text = f"calibration KS distance to uniform: {ks:.4f}"
        return seed, {"calibration_pvalues.csv": table}, text, suites.calibration_verdict(result)
    text = (
        f"statistics decreasing={result.decreasing}, final p={result.final_p_value:.3f}, "
        f"verdict={result.verdict}"
    )
    return seed, {"weakconv.csv": result.to_csv()}, text, result.verdict


def _cmd_sample(config: dict, seed):
    if ("scripted" in config) == ("kernel" in config):
        raise ConfigError("give exactly one of 'scripted' or 'kernel'")
    if "scripted" in config:
        K = suites.scripted_sampler_kernels()[config["scripted"]]
    else:
        K = kernel_from_dict(config["kernel"])
    run_seed = seed if seed is not None else config.get("seed", 0)
    samples = sample(DppDistribution(K), run_seed, config["count"])
    mean_size = samples.occupancy.sum(axis=1).mean()
    text = f"{len(samples)} samples written, mean configuration size {mean_size:.4f}"
    return run_seed, {"samples.csv": samples_to_csv(samples)}, text, True


#: Each command maps a validated config and the ``--seed`` override to the seed
#: it ran with, its artifacts' text by file name, the text it prints and its verdict.
#: A suite command's verdict is its report's ``verdict`` (``suites.calibration_verdict``
#: for calibration p-values); ``induce`` and ``sample`` have no suite and pass.
_COMMANDS = {
    "oracle": _cmd_oracle,
    "induce": _cmd_induce,
    "perturb": _cmd_perturb,
    "exhaust": _cmd_exhaust,
    "scaling": _cmd_scaling,
    "tightness": _cmd_tightness,
    "weakconv": _cmd_weakconv,
    "sample": _cmd_sample,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dpplab", description="Scripted determinantal-process experiments")
    parser.set_defaults(seed=None)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON experiment config")
        if "seed" in _SCHEMAS[name]["properties"]:
            p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", default=".", help="output directory (created if missing)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args.config, args.command)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        seed, artifacts, text, verdict = _COMMANDS[args.command](config, args.seed)
    except ContractError as exc:
        print(f"numerical contract violation: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConfigError, DimensionError, ValueError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    for name, body in artifacts.items():
        (out / name).write_text(body)
    _write_manifest(out, args.command, config, seed, list(artifacts))
    print(text)
    return EXIT_OK if verdict else EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
