"""JSON and CSV persistence for spaces, kernels, distributions and samples.

All JSON payloads carry a ``format_version`` field; loading rejects
unknown versions instead of guessing.
"""

from __future__ import annotations

import json
import math
import numbers

import numpy as np

from .dpp import Samples, _check_law_size, _group_rows, _law_array, _packed_rows
from .errors import ConfigError, ContractError, DimensionError
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
    law = _law_array(law, n_points)
    return {
        "format_version": FORMAT_VERSION,
        "kind": "distribution",
        "n_points": n_points,
        "probabilities": {str(mask): p for mask, p in enumerate(law.tolist())},
    }


def distribution_from_dict(payload: dict) -> np.ndarray:
    """The (2^n,) law a distribution payload holds; bitmasks it does not list have probability 0.

    Before the law is allocated, an ``n_points`` that is not a non-negative
    integer raises :class:`DimensionError`, and one above
    ``MAX_ENUMERATION_POINTS`` raises :class:`EnumerationSizeError`.  A key
    that is not a decimal integer string, or a bitmask of more than
    ``n_points`` bits, raises :class:`DimensionError`; a probability that
    is not a finite, non-negative number raises :class:`ContractError`.
    """
    _check_version(payload, "distribution")
    n = payload["n_points"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise DimensionError(f"n_points must be a non-negative integer, not {n!r}")
    _check_law_size(n)
    law = np.zeros(2**n)
    for mask, p in payload["probabilities"].items():
        if not (isinstance(mask, str) and mask.isascii() and mask.isdigit()):
            raise DimensionError(f"bitmask key {mask!r} is not a decimal integer")
        if int(mask) >= len(law):
            raise DimensionError(f"bitmask {mask} does not fit {n} points")
        if isinstance(p, bool) or not isinstance(p, numbers.Real) or not 0.0 <= p < math.inf:
            raise ContractError(f"probability {p!r} of bitmask {mask} is not a finite, non-negative number")
        law[int(mask)] = p
    return law


def samples_to_csv(samples: Samples) -> str:
    """One line per draw: space-separated occupied indices (may be empty); no draws give "".

    Each distinct occupancy row is formatted once: ``_group_rows`` groups
    the rows by their ``_packed_rows`` keys, and every draw takes its run's
    line.
    """
    occupancy = samples.occupancy
    order, starts, line_of = _group_rows(_packed_rows(occupancy))
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
