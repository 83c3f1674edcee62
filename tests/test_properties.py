"""Property tests of the reweighting identities on random small spaces.

A projection process reweighted by psi_g = prod_{x in X} g(x) has total
mass det(1 + (g-1)P) and, renormalized, is the determinantal process of
the induced kernel.  Every check compares with a plain psi_g loop over
the brute-force law of the projection.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dpplab.conditioning import (
    WeightFunction,
    check_inducibility,
    induced_distribution,
    normalization_constant,
    psi_g,
    reweighted_distribution,
)
from dpplab.dpp import Configuration, DppDistribution, brute_force_distribution
from dpplab.ground import GroundSpace
from dpplab.operators import project_span

#: Smallest inducibility margin a drawn case must keep, so zeros of g never make the law degenerate.
MIN_MARGIN = 1e-2

_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def reweighting_cases(draw):
    """A random space, projection and weight g with some exact zeros, with a usable margin."""
    n = draw(st.integers(2, 6))
    rank = draw(st.integers(1, min(3, n)))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    space = GroundSpace(np.cumsum(rng.uniform(0.1, 1.0, n)), rng.uniform(0.5, 1.5, n))
    P = project_span(rng.normal(size=(rank, n)), space)
    values = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.05, 1.0)), min_size=n, max_size=n))
    g = WeightFunction(space, np.array(values))
    assume(check_inducibility(g, P).margin > MIN_MARGIN)
    return P, g


def _loop_weights(g, probs):
    return np.array([psi_g(g, Configuration.from_bitmask(g.space, m)) * p for m, p in enumerate(probs)])


def _base_law(P):
    return brute_force_distribution(DppDistribution(P))


@_SETTINGS
@given(reweighting_cases())
def test_reweighted_table_matches_psi_g_loop(case):
    P, g = case
    probs = _base_law(P)
    weights = _loop_weights(g, probs)
    law, total = reweighted_distribution(g, probs)
    assert total == pytest.approx(weights.sum(), rel=1e-12, abs=1e-15)
    assert np.allclose(law, weights / weights.sum(), rtol=0.0, atol=1e-13)


@_SETTINGS
@given(reweighting_cases())
def test_normalization_constant_is_reweighted_mass(case):
    P, g = case
    mass = _loop_weights(g, _base_law(P)).sum()
    assert normalization_constant(g, P) == pytest.approx(mass, abs=1e-10)


@_SETTINGS
@given(reweighting_cases())
def test_induced_law_is_reweighted_law(case):
    P, g = case
    weights = _loop_weights(g, _base_law(P))
    induced = brute_force_distribution(induced_distribution(g, P))
    assert 0.5 * np.abs(induced - weights / weights.sum()).sum() < 1e-9
