import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpplab.dpp import Samples
from dpplab.errors import ConfigError, ContractError, DimensionError, EnumerationSizeError
from dpplab.ground import GroundSpace
from dpplab.operators import project_span
from dpplab.serialization import (
    distribution_from_dict,
    distribution_to_dict,
    kernel_from_dict,
    kernel_to_dict,
    load_json,
    samples_from_csv,
    samples_to_csv,
    save_json,
    space_from_dict,
    space_to_dict,
)


def _space():
    return GroundSpace(np.array([0.5, 1.0, 2.0]), np.array([0.25, 0.5, 1.0]), label="demo")


def test_space_round_trip(tmp_path):
    space = _space()
    payload = space_to_dict(space)
    save_json(payload, tmp_path / "space.json")
    back = space_from_dict(load_json(tmp_path / "space.json"))
    assert np.array_equal(back.points, space.points)
    assert np.array_equal(back.weights, space.weights)
    assert back.label == "demo"


def test_kernel_round_trip():
    space = _space()
    K = project_span(np.vstack([np.ones(3), space.points]), space)
    back = kernel_from_dict(kernel_to_dict(K))
    assert np.allclose(back.entries, K.entries, atol=0)
    assert np.array_equal(back.space.points, space.points)


def test_distribution_round_trip():
    law = np.array([0.25, 0.0, 0.0, 0.5, 0.0, 0.25, 0.0, 0.0])
    payload = distribution_to_dict(law, 3)
    assert list(payload["probabilities"]) == [str(mask) for mask in range(8)]
    assert np.array_equal(distribution_from_dict(payload), law)


def test_distribution_payload_lists_masks_sparsely():
    payload = {"format_version": 1, "kind": "distribution", "n_points": 3, "probabilities": {"3": 0.5, "5": 0.5}}
    assert np.array_equal(distribution_from_dict(payload), [0.0, 0.0, 0.0, 0.5, 0.0, 0.5, 0.0, 0.0])
    payload["probabilities"]["8"] = 0.0
    with pytest.raises(DimensionError):
        distribution_from_dict(payload)
    with pytest.raises(DimensionError):
        distribution_to_dict(np.ones(4) / 4, 3)


@pytest.mark.parametrize(
    "probabilities, error, message",
    [
        ({"0": -0.5, "1": 1.5}, ContractError, "-0.5 of bitmask 0"),
        ({"0": float("nan"), "1": 1.0}, ContractError, "nan of bitmask 0"),
        ({"0.0": 1.0}, DimensionError, "'0.0'"),
        ({"0": "x", "1": 1.0}, ContractError, "'x' of bitmask 0"),
    ],
    ids=["negative", "nan", "float key", "text value"],
)
def test_distribution_payload_rejects_a_key_or_probability_it_cannot_hold(probabilities, error, message):
    payload = {"format_version": 1, "kind": "distribution", "n_points": 1, "probabilities": probabilities}
    with pytest.raises(error, match=re.escape(message)):
        distribution_from_dict(payload)


@pytest.mark.parametrize(
    "n_points, error",
    [(21, EnumerationSizeError), (-1, DimensionError), (2.5, DimensionError), (True, DimensionError)],
)
def test_distribution_payload_rejects_an_n_points_it_cannot_hold(n_points, error):
    # 21 points exceed MAX_ENUMERATION_POINTS; true would otherwise read as 1 point
    payload = {"format_version": 1, "kind": "distribution", "n_points": n_points, "probabilities": {}}
    with pytest.raises(error):
        distribution_from_dict(payload)


def test_unknown_version_rejected():
    payload = space_to_dict(_space())
    payload["format_version"] = 99
    with pytest.raises(ConfigError):
        space_from_dict(payload)


def _reference_samples_to_csv(samples: Samples) -> str:
    """The writer formatted row by row: one line of occupied indices per draw."""
    return "".join(" ".join(map(str, np.flatnonzero(row).tolist())) + "\n" for row in samples.occupancy)


def test_samples_round_trip():
    space = _space()
    for sets, expected in [
        (({0, 2}, set(), {1}), "0 2\n\n1\n"),
        ((set(),), "\n"),
        ((), ""),
    ]:
        occupancy = np.array([[i in s for i in range(space.n)] for s in sets], dtype=bool)
        samples = Samples(space, occupancy.reshape(-1, space.n))
        text = samples_to_csv(samples)
        assert text == expected
        back = samples_from_csv(text, space)
        assert np.array_equal(back.occupancy, samples.occupancy)
    with pytest.raises(DimensionError):
        samples_from_csv(f"0 {space.n}\n", space)
    with pytest.raises(DimensionError):
        samples_from_csv("-1\n", space)


@st.composite
def occupancy_cases(draw):
    """Occupancy arrays on 1-130 points (row keys of one to three uint64 words), 0-60 draws, from few distinct rows.

    In some cases the rows other than the first share their first 64 points, so only their later words differ.
    """
    n = draw(st.integers(1, 130))
    count = draw(st.integers(0, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    patterns = rng.random((draw(st.integers(1, 8)), n)) < rng.random()
    patterns[0] = draw(st.booleans())  # an all-empty or all-full row
    if draw(st.booleans()):
        patterns[1:, :64] = patterns[-1, :64]
    return Samples(GroundSpace.uniform_cells(0.0, 1.0, n), patterns[rng.integers(0, len(patterns), count)])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(samples=occupancy_cases())
def test_samples_to_csv_matches_row_by_row_writer(samples):
    assert samples_to_csv(samples) == _reference_samples_to_csv(samples)
