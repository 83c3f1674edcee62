"""Property tests of the reweighting identities on random small spaces.

A projection process reweighted by psi_g = prod_{x in X} g(x) has total
mass det(1 + (g-1)P) and, renormalized, is the determinantal process of
the induced kernel.  Every check compares with psi_g over the batch of
all 2^n configurations, weighted by the brute-force law of the
projection, and the inducibility norms with two ``np.linalg.norm(., 2)``
calls.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dpplab.conditioning import (
    WeightFunction,
    check_inducibility,
    induced_kernel,
    normalization_constant,
    psi_g,
    reweighted_distribution,
)
from dpplab.dpp import DppDistribution, Samples, brute_force_distribution, occupancy_table
from dpplab.ground import GroundSpace
from dpplab.operators import project_span

#: Smallest inducibility margin a drawn case must keep, so zeros of g never make the law degenerate.
MIN_MARGIN = 1e-2

_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def problems(draw, min_points, max_points, max_rank, g_low):
    """A random space, projection and weight g with some exact zeros and ones."""
    n = draw(st.integers(min_points, max_points))
    rank = draw(st.integers(1, min(max_rank, n)))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    space = GroundSpace(np.cumsum(rng.uniform(0.1, 1.0, n)), rng.uniform(0.5, 1.5, n))
    P = project_span(rng.normal(size=(rank, n)), space)
    values = draw(st.lists(st.one_of(st.just(0.0), st.just(1.0), st.floats(g_low, 1.0)), min_size=n, max_size=n))
    return P, WeightFunction(space, np.array(values))


@st.composite
def reweighting_cases(draw):
    """A problem on 2-6 points of rank up to 3, with a usable margin."""
    P, g = draw(problems(2, 6, 3, 0.05))
    assume(check_inducibility(g, P).margin > MIN_MARGIN)
    return P, g


def _psi_weights(g, probs):
    return psi_g(g, Samples(g.space, occupancy_table(g.space.n))) * probs


def _base_law(P):
    return brute_force_distribution(DppDistribution(P))


@_SETTINGS
@given(reweighting_cases())
def test_reweighted_table_matches_psi_g_loop(case):
    P, g = case
    probs = _base_law(P)
    weights = _psi_weights(g, probs)
    law, total = reweighted_distribution(g, probs)
    assert total == weights.sum()
    assert np.array_equal(law, weights / weights.sum())


@_SETTINGS
@given(problems(1, 12, 4, 0.0))
def test_inducibility_norms_match_two_norm_calls(case):
    P, g = case
    sqrt_norm = float(np.linalg.norm(np.sqrt(1.0 - g.values)[:, None] * P.factor, 2))
    assert check_inducibility(g, P).margin == 1.0 - sqrt_norm


@_SETTINGS
@given(reweighting_cases())
def test_normalization_constant_is_reweighted_mass(case):
    P, g = case
    mass = _psi_weights(g, _base_law(P)).sum()
    assert normalization_constant(g, P) == pytest.approx(mass, abs=1e-10)


@_SETTINGS
@given(reweighting_cases())
def test_induced_law_is_reweighted_law(case):
    P, g = case
    weights = _psi_weights(g, _base_law(P))
    induced = brute_force_distribution(DppDistribution(induced_kernel(g, P)))
    assert 0.5 * np.abs(induced - weights / weights.sum()).sum() < 1e-9
