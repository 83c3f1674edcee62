from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpplab import dpp
from dpplab.dpp import (
    Configuration,
    DppDistribution,
    brute_force_distribution,
    chi_square_gof,
    configurations_of_size,
    correlation,
    empirical_distribution,
    intensity,
    sample,
    total_variation,
)
from dpplab.errors import ContractError, DimensionError, EnumerationSizeError
from dpplab.ground import GroundSpace
from dpplab.operators import KernelOperator, project_span


def _rng(seed):
    return np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))


def _random_contraction(rng, n):
    space = GroundSpace(np.cumsum(rng.uniform(0.1, 1.0, n)), rng.uniform(0.5, 1.5, n))
    A = rng.normal(size=(n, n))
    sym = A @ A.T
    return KernelOperator.from_counting(space, sym / (np.linalg.eigvalsh(sym)[-1] * 1.3))


def test_configuration_bitmask_round_trip():
    space = GroundSpace.uniform_cells(0.0, 1.0, 5)
    X = Configuration(space, frozenset({0, 3}))
    assert X.bitmask == 0b01001
    assert Configuration.from_bitmask(space, X.bitmask).occupied == X.occupied
    with pytest.raises(DimensionError):
        Configuration(space, frozenset({9}))


def test_non_contraction_rejected():
    space = GroundSpace.uniform_cells(0.0, 1.0, 2)
    with pytest.raises(ContractError):
        DppDistribution(KernelOperator.from_counting(space, 1.5 * np.eye(2)))


def test_brute_force_sums_to_one_and_is_nonnegative():
    rng = _rng(10)
    for trial in range(20):
        n = int(rng.integers(2, 8))
        table = brute_force_distribution(DppDistribution(_random_contraction(rng, n)))
        probs = np.array(list(table.values()))
        assert probs.sum() == pytest.approx(1.0, abs=1e-10)
        assert probs.min() >= 0.0


def test_enumeration_size_guard():
    space = GroundSpace.uniform_cells(0.0, 1.0, 21)
    D = DppDistribution(KernelOperator.zero(space))
    with pytest.raises(EnumerationSizeError):
        brute_force_distribution(D)


def test_correlation_matches_inclusion_sums():
    # rho(A) = det Khat_A must equal the brute-force mass of {S : S >= A}
    rng = _rng(11)
    for trial in range(10):
        n = int(rng.integers(2, 7))
        D = DppDistribution(_random_contraction(rng, n))
        table = brute_force_distribution(D)
        A = set(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist())
        mask_a = sum(1 << i for i in A)
        total = sum(p for mask, p in table.items() if mask & mask_a == mask_a)
        assert correlation(D, A) == pytest.approx(total, abs=1e-11)
    assert correlation(D, set()) == 1.0


def test_projection_samples_have_exactly_rank_points():
    rng = _rng(12)
    space = GroundSpace.uniform_cells(0.0, 1.0, 6)
    P = project_span(rng.normal(size=(3, 6)), space)
    D = DppDistribution(P)
    assert D.is_projection() and D.rank() == 3
    for X in sample(D, 99, 500):
        assert len(X) == 3


def test_sampler_prefix_reproducibility():
    # replica streams are keyed by (seed, index): longer runs extend shorter ones
    rng = _rng(13)
    D = DppDistribution(_random_contraction(rng, 5))
    short = sample(D, 7, 10)
    long = sample(D, 7, 25)
    assert [X.bitmask for X in short] == [X.bitmask for X in long[:10]]


def _reference_projection(rng: np.random.Generator, V: np.ndarray) -> list[int]:
    """One draw from the projection DPP with orthonormal column span V (n x k), one QR per point."""
    chosen: list[int] = []
    V = V.copy()
    while V.shape[1] > 0:
        k = V.shape[1]
        p = np.sum(V**2, axis=1) / k
        i = int(rng.choice(len(p), p=p / p.sum()))
        chosen.append(i)
        # Restrict the span to functions vanishing at i, then re-orthonormalize.
        j = int(np.argmax(np.abs(V[i])))
        pivot = V[:, j].copy()
        V = np.delete(V, j, axis=1)
        V -= np.outer(pivot, V[i] / pivot[i])
        if V.shape[1] > 0:
            V, _ = np.linalg.qr(V)
    return chosen


def _reference_sample(D: DppDistribution, seed: int, count: int) -> list[frozenset[int]]:
    """The spectral sampler one replica at a time: a Generator, coin flips, then ``choice`` per point."""
    out = []
    for replica in range(count):
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, replica], dtype=np.uint64)))
        keep = rng.random(len(D.eigenvalues)) < D.eigenvalues
        V = D.eigenvectors[:, keep]
        out.append(frozenset(_reference_projection(rng, V) if V.shape[1] else []))
    return out


@st.composite
def sampler_cases(draw):
    """A kernel on 1-8 points: a projection of any rank, a strict contraction or a diagonal kernel."""
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["projection", "contraction", "diagonal"]))
    rng = _rng(draw(st.integers(0, 2**32 - 1)))
    space = GroundSpace(np.cumsum(rng.uniform(0.1, 1.0, n)), rng.uniform(0.5, 1.5, n))
    if kind == "projection":
        rank = draw(st.integers(0, n))
        K = project_span(rng.normal(size=(rank, n)), space) if rank else KernelOperator.zero(space)
    elif kind == "contraction":
        K = _random_contraction(rng, n)
    else:
        # eigh of a diagonal matrix gives eigenvectors with exact zero entries
        values = rng.uniform(0.0, 1.0, n)
        values[rng.random(n) < 0.3] = 1.0
        values[rng.random(n) < 0.2] = 0.0
        K = KernelOperator.from_counting(space, np.diag(values))
    return DppDistribution(K)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    D=sampler_cases(),
    seed=st.integers(0, 2**64 - 1),
    count=st.integers(0, 40),
    block=st.integers(1, 12),
)
def test_sampler_matches_reference_draw_for_draw(D, seed, count, block):
    # a small replica block makes most counts cross a block boundary
    n = D.space.n
    with mock.patch.object(dpp, "_BLOCK_BYTES", 8 * n * (n + 4) * block):
        drawn = [X.occupied for X in sample(D, seed, count)]
    assert drawn == _reference_sample(D, seed, count)


def test_sampler_matches_reference_across_default_block():
    D = DppDistribution(_random_contraction(_rng(16), 8))
    count = dpp._BLOCK_BYTES // (8 * 8 * 12) + 3
    assert [X.occupied for X in sample(D, 3, count)] == _reference_sample(D, 3, count)


@pytest.mark.parametrize("seed", [0, 7, 2**63 + 5, 2**64 - 1])
def test_stream_uniforms_are_generator_random(seed):
    # the sampler's draws are defined by Generator.random on each replica's Philox stream
    got = dpp._stream_uniforms(seed, 5, 4, 9)
    for r in range(4):
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, 5 + r], dtype=np.uint64)))
        assert np.array_equal(got[r], rng.random(9))


def test_sampler_goodness_of_fit():
    rng = _rng(14)
    D = DppDistribution(_random_contraction(rng, 4))
    samples = sample(D, 2024, 4000)
    expected = brute_force_distribution(D)
    stat, dof, p = chi_square_gof(samples, expected)
    assert p > 1e-3
    emp = empirical_distribution(samples)
    assert total_variation(emp, expected) < 0.05


def test_intensity_matches_sampled_counts():
    rng = _rng(15)
    D = DppDistribution(_random_contraction(rng, 5))
    xi = intensity(D)
    samples = sample(D, 5, 4000)
    counts = np.zeros(5)
    for X in samples:
        for i in X.occupied:
            counts[i] += 1
    counts /= len(samples)
    # 4 standard errors of a Bernoulli proportion
    se = np.sqrt(np.maximum(xi.atoms * (1 - xi.atoms), 1e-4) / len(samples))
    assert np.all(np.abs(counts - xi.atoms) < 4 * se + 1e-3)


def test_configurations_of_size():
    space = GroundSpace.uniform_cells(0.0, 1.0, 4)
    assert sum(1 for _ in configurations_of_size(space, 2)) == 6
