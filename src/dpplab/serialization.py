"""JSON and CSV persistence for spaces, kernels, distributions and samples.

All JSON payloads carry a ``format_version`` field; loading rejects
unknown versions instead of guessing.
"""

from __future__ import annotations

import json

import numpy as np

from .dpp import Samples
from .errors import ConfigError, DimensionError
from .ground import GroundSpace
from .operators import KernelOperator

FORMAT_VERSION = 1


def _check_version(payload: dict, kind: str) -> None:
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ConfigError(f"unsupported {kind} format_version: {version!r}")


def space_to_dict(space: GroundSpace) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "ground_space",
        "label": space.label,
        "points": space.points.tolist(),
        "weights": space.weights.tolist(),
    }


def space_from_dict(payload: dict) -> GroundSpace:
    _check_version(payload, "ground-space")
    return GroundSpace(
        np.asarray(payload["points"], dtype=float),
        np.asarray(payload["weights"], dtype=float),
        payload.get("label", ""),
    )


def kernel_to_dict(K: KernelOperator) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "kernel",
        "space": space_to_dict(K.space),
        "entries": K.entries.tolist(),
    }


def kernel_from_dict(payload: dict) -> KernelOperator:
    _check_version(payload, "kernel")
    space = space_from_dict(payload["space"])
    return KernelOperator(space, np.asarray(payload["entries"], dtype=float))


def distribution_to_dict(law: np.ndarray, n_points: int) -> dict:
    """A configuration law held as a (2^n,) array, written with one probability per bitmask."""
    law = np.asarray(law, dtype=float)
    if law.shape != (2**n_points,):
        raise DimensionError(f"a configuration law on {n_points} points has {2**n_points} entries")
    return {
        "format_version": FORMAT_VERSION,
        "kind": "distribution",
        "n_points": n_points,
        "probabilities": {str(mask): p for mask, p in enumerate(law.tolist())},
    }


def distribution_from_dict(payload: dict) -> np.ndarray:
    """The (2^n,) law a distribution payload holds; bitmasks it does not list have probability 0."""
    _check_version(payload, "distribution")
    law = np.zeros(2 ** payload["n_points"])
    for mask, p in payload["probabilities"].items():
        if not 0 <= int(mask) < len(law):
            raise DimensionError(f"bitmask {mask} does not fit {payload['n_points']} points")
        law[int(mask)] = p
    return law


def samples_to_csv(samples: Samples) -> str:
    """One line per draw: space-separated occupied indices (may be empty); no draws give "".

    Each distinct occupancy row is formatted once.  Rows are padded to
    whole uint64 words, one word per 64 points, packed along the points in
    one run over the whole array, and sorted (a lexsort when there are
    several words); a row differing from its sorted neighbour starts a new
    line, and every draw maps to its row's.
    """
    occupancy = samples.occupancy
    count, n = occupancy.shape
    words = -(-n // 64)
    padded = np.zeros((count, 64 * words), dtype=bool)
    padded[:, :n] = occupancy
    keys = np.packbits(padded, bitorder="little").view("<u8").reshape(count, words)
    order = np.argsort(keys[:, 0]) if keys.shape[1] == 1 else np.lexsort(keys.T)
    ranked = keys[order]
    starts = np.ones(count, dtype=bool)
    starts[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    line_of = np.empty(count, dtype=np.intp)
    line_of[order] = np.cumsum(starts) - 1
    distinct = occupancy[order[starts]]
    lines = np.array([" ".join(map(str, np.flatnonzero(row).tolist())) + "\n" for row in distinct], dtype=object)
    return "".join(lines[line_of].tolist())


def samples_from_csv(text: str, space: GroundSpace) -> Samples:
    lines = text.splitlines()
    occupancy = np.zeros((len(lines), space.n), dtype=bool)
    for row, line in zip(occupancy, lines):
        idx = [int(tok) for tok in line.split()]
        if any(not 0 <= i < space.n for i in idx):
            raise DimensionError("occupied indices out of bounds")
        row[idx] = True
    return Samples(space, occupancy)


def json_text(payload: dict) -> str:
    """A payload as one-space-indented JSON ending in a newline, as ``save_json`` writes it."""
    return json.dumps(payload, indent=1) + "\n"


def save_json(payload: dict, path) -> None:
    with open(path, "w") as fh:
        fh.write(json_text(payload))


def load_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)
