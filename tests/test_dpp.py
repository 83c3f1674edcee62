import tracemalloc
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import chain_rule, grouped_chain_rule
from dpplab import WeightFunction, dpp
from dpplab.dpp import (
    Configuration,
    DppDistribution,
    Samples,
    brute_force_distribution,
    chi_square_gof,
    correlation,
    intensity,
    occupancy_table,
    sample,
    total_variation,
)
from dpplab.errors import ContractError, DimensionError, EnumerationSizeError
from dpplab.ground import GroundSpace, Window
from dpplab.measures import _weighted_diagonal, tightness_report
from dpplab.operators import KernelOperator, Projection, project_span


def _rng(seed):
    return np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))


def _random_contraction(rng, n):
    space = GroundSpace(np.cumsum(rng.uniform(0.1, 1.0, n)), rng.uniform(0.5, 1.5, n))
    A = rng.normal(size=(n, n))
    sym = A @ A.T
    return KernelOperator.from_counting(space, sym / (np.linalg.eigvalsh(sym)[-1] * 1.3))


def test_configuration_bitmask_round_trip():
    space = GroundSpace.uniform_cells(0.0, 1.0, 5)
    samples = Samples(space, occupancy_table(5))
    assert samples[0b01001].occupied == frozenset({0, 3})
    assert np.array_equal(samples.bitmasks, np.arange(32))
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
        probs = brute_force_distribution(DppDistribution(_random_contraction(rng, n)))
        assert probs.shape == (2**n,)
        assert probs.sum() == pytest.approx(1.0, abs=1e-10)
        assert probs.min() >= 0.0


def test_enumeration_size_guard():
    space = GroundSpace.uniform_cells(0.0, 1.0, 21)
    D = DppDistribution(KernelOperator(space, np.zeros((space.n, space.n))))
    with pytest.raises(EnumerationSizeError):
        brute_force_distribution(D)


def test_brute_force_raises_on_a_probability_below_its_clip_tolerance():
    # a one-point kernel 1 + 5e-11 is within the spectrum tolerance, but P(empty) = -5e-11 is past the
    # -1e-12 that the law clips to 0
    D = DppDistribution(KernelOperator.from_counting(GroundSpace(np.array([1.0]), np.ones(1)), [[1.0 + 5e-11]]))
    with pytest.raises(ContractError, match="negative configuration probability -5.000e-11"):
        brute_force_distribution(D)


def test_brute_force_raises_on_a_law_whose_mass_is_not_one():
    # a rank-3 factor scaled by 1 + 4.9e-11 passes the 1e-10 orthonormality check (residual 9.8e-11),
    # but its law sums to (1 + 4.9e-11)^6, past the 1e-10 sum check
    space = GroundSpace.uniform_cells(0.0, 1.0, 5)
    U = project_span(np.vstack([np.ones(5), space.points, space.points**2]), space).factor * (1 + 4.9e-11)
    with pytest.raises(ContractError, match=r"configuration probabilities sum to 1\.00000000029\d*$"):
        brute_force_distribution(DppDistribution(Projection(space, U)))


def test_projection_law_with_subnormal_entries_raises_no_warning():
    # det([[0, 1], [5.7e-318, -2.4e-318]]) meets a subnormal pivot; warnings are errors in this suite
    space = GroundSpace(np.arange(1.0, 5.0), np.ones(4))
    P = Projection(space, [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [5.7e-318, -2.4e-318]])
    expected = np.zeros(16)
    expected[0b0011] = 1.0
    assert np.array_equal(brute_force_distribution(DppDistribution(P)), expected)


def test_dense_law_with_subnormal_spectrum_raises_no_warning():
    # eigenvalues 1.5e-300 and twice 5e-324: LU pivots underflow to 0 inside det
    V = np.linalg.qr(np.random.default_rng(5).normal(size=(3, 3)))[0]
    counting = (V * [1.5e-300, 5e-324, 5e-324]) @ V.T
    space = GroundSpace(np.arange(3.0), np.ones(3))
    law = brute_force_distribution(DppDistribution(KernelOperator.from_counting(space, counting)))
    assert law[0] == 1.0
    assert np.allclose(law[[0b001, 0b010, 0b100]], np.diag(counting), rtol=1e-12, atol=0.0)
    assert np.all(law[[0b011, 0b101, 0b110, 0b111]] == 0.0)


@st.composite
def factored_projections(draw, max_points=10):
    """A random space of 1..max_points points and a projection of any rank 0..n on it, held as a factor."""
    n = draw(st.integers(1, max_points))
    rank = draw(st.integers(0, n))
    rng = _rng(draw(st.integers(0, 2**32 - 1)))
    space = GroundSpace(np.cumsum(rng.uniform(0.1, 1.0, n)), rng.uniform(0.5, 1.5, n))
    return Projection(space, np.linalg.qr(rng.normal(size=(n, rank)))[0])


@settings(max_examples=80, deadline=None, derandomize=True)
@given(factored_projections(), st.integers(1, 64))
def test_projection_law_from_subset_minors_matches_block_identity(P, chunk):
    # the dense kernel is not a Projection, so it takes the block-identity path;
    # a small determinant chunk makes both paths cross chunk boundaries
    dense = KernelOperator.from_counting(P.space, P.counting)
    with mock.patch.object(dpp, "_DET_CHUNK", chunk):
        law = brute_force_distribution(DppDistribution(P))
        reference = brute_force_distribution(DppDistribution(dense))
    assert law.shape == reference.shape == (2**P.n,)
    assert np.max(np.abs(law - reference)) < 1e-12
    sizes = np.array([bin(mask).count("1") for mask in range(2**P.n)])
    assert np.all(law[sizes != P.rank] == 0.0)


@pytest.mark.parametrize("rank", [0, 4])
def test_projection_law_at_rank_zero_and_full_rank(rank):
    space = GroundSpace.uniform_cells(0.0, 1.0, 4)
    U = np.linalg.qr(_rng(17).normal(size=(4, rank)))[0]
    law = brute_force_distribution(DppDistribution(Projection(space, U)))
    expected = np.zeros(16)
    expected[(1 << rank) - 1] = 1.0  # the empty set at rank 0, all four points at rank 4
    assert np.allclose(law, expected, rtol=0.0, atol=1e-14)


def test_memoized_subset_tables_are_the_combinations_and_their_bitmasks():
    for n in range(13):
        for r in range(n + 1):
            subsets, masks = dpp._memo_subsets(n, r)
            expected = list(combinations(range(n), r))  # one empty subset at r = 0
            assert subsets.shape == (len(expected), r)
            assert subsets.tolist() == [list(S) for S in expected]
            assert masks.tolist() == [sum(1 << i for i in S) for S in expected]
            assert not subsets.flags.writeable and not masks.flags.writeable
            with pytest.raises(ValueError):
                masks[0] = 1


def test_subset_memo_holds_at_most_its_bound():
    info = dpp._memo_subsets.cache_info()
    assert info.maxsize == dpp._SUBSET_MEMO_SHAPES == 32
    for n in range(13):
        for r in range(n + 1):
            dpp._memo_subsets(n, r)
            assert dpp._memo_subsets.cache_info().currsize <= dpp._SUBSET_MEMO_SHAPES
    # a kept table has at most _DET_CHUNK int64 entries; the widest kept ones on 20 points fit
    for r in (3, 18):
        assert sum(a.nbytes for a in dpp._memo_subsets(20, r)) <= 8 * dpp._DET_CHUNK
    # C(14, 7) * 8 entries exceed _DET_CHUNK, so that table is built per call and never kept
    before = dpp._memo_subsets.cache_info()
    P = Projection(GroundSpace.uniform_cells(0.0, 1.0, 14), np.linalg.qr(_rng(3).normal(size=(14, 7)))[0])
    law = brute_force_distribution(DppDistribution(P))
    after = dpp._memo_subsets.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)
    assert np.count_nonzero(law) == len(dpp._subsets(14, 7)[0])


def test_total_variation_of_laws():
    p = np.array([0.5, 0.25, 0.25, 0.0])
    q = np.array([0.25, 0.25, 0.25, 0.25])
    assert total_variation(p, q) == pytest.approx(0.25, abs=1e-15)
    assert total_variation(p, p) == 0.0
    with pytest.raises(DimensionError):
        total_variation(p, q[:2])


def test_samples_rows_are_configurations():
    space = GroundSpace.uniform_cells(0.0, 1.0, 3)
    samples = Samples(space, [[True, False, True], [False, False, False]])
    assert len(samples) == 2
    assert [X.occupied for X in samples] == [frozenset({0, 2}), frozenset()]
    assert samples[-1].occupied == frozenset()
    assert samples.bitmasks.tolist() == [0b101, 0]
    with pytest.raises(ValueError):
        samples.occupancy[0, 0] = False
    with pytest.raises(TypeError):
        samples[:1]
    with pytest.raises(DimensionError):
        Samples(space, np.zeros((2, 4), dtype=bool))


def test_sample_laws_refuse_wide_spaces():
    # 2^21 counts per law: the bitmask view is refused before anything is allocated
    space = GroundSpace.uniform_cells(0.0, 1.0, 21)
    samples = Samples(space, np.ones((3, 21), dtype=bool))
    with pytest.raises(EnumerationSizeError):
        samples.bitmasks
    with pytest.raises(EnumerationSizeError):
        chi_square_gof(samples, {2**21 - 1: 1.0})


def test_chi_square_rejects_draws_of_impossible_configurations():
    space = GroundSpace.uniform_cells(0.0, 1.0, 2)
    rows = [[True, False]] * 50 + [[False, True]] * 50 + [[True, True]] * 30
    samples = Samples(space, rows)
    stat, _, p = chi_square_gof(samples, {0: 0.0, 1: 0.5, 2: 0.5, 3: 0.0})
    assert stat == np.inf and p == 0.0
    # a bitmask the law does not list has probability 0 as well
    stat, _, p = chi_square_gof(samples, {1: 0.5, 2: 0.5})
    assert stat == np.inf and p == 0.0
    stat, dof, p = chi_square_gof(Samples(space, rows[:100]), {0: 0.0, 1: 0.5, 2: 0.5, 3: 0.0})
    assert (stat, dof, p) == (0.0, 1, 1.0)
    for mask in (4, -1):
        with pytest.raises(DimensionError):
            chi_square_gof(samples, {1: 0.5, 2: 0.5, mask: 0.0})


def test_chi_square_rejects_an_empty_batch():
    # no draws give no p-value
    space = GroundSpace.uniform_cells(0.0, 1.0, 2)
    with pytest.raises(ValueError, match="empty"):
        chi_square_gof(Samples(space, np.zeros((0, 2), dtype=bool)), {1: 0.5, 2: 0.5})


def test_correlation_matches_inclusion_sums():
    # rho(A) = det Khat_A must equal the brute-force mass of {S : S >= A}
    rng = _rng(11)
    for trial in range(10):
        n = int(rng.integers(2, 7))
        D = DppDistribution(_random_contraction(rng, n))
        table = brute_force_distribution(D)
        A = set(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist())
        mask_a = sum(1 << i for i in A)
        total = sum(p for mask, p in enumerate(table) if mask & mask_a == mask_a)
        assert correlation(D, A) == pytest.approx(total, abs=1e-11)
    assert correlation(D, set()) == 1.0


@pytest.mark.parametrize("route", ["factor", "dense"])
def test_correlation_reads_its_index_set_as_a_window(route):
    space = GroundSpace.uniform_cells(0.0, 1.0, 5)
    P = project_span(np.vstack([np.ones(5), space.points]), space)  # diagonal 0.6, 0.3, 0.2, 0.3, 0.6
    D = DppDistribution(P if route == "factor" else KernelOperator.from_counting(space, P.counting))
    assert correlation(D, [0, 0]) == pytest.approx(0.6, abs=1e-14)
    assert correlation(D, [3, 0, 3]) == pytest.approx(correlation(D, [0, 3]), abs=1e-15)
    with pytest.raises(ValueError, match="nonnegative"):
        correlation(D, [-1])
    with pytest.raises(DimensionError):
        correlation(D, [7])


def test_projection_samples_have_exactly_rank_points():
    rng = _rng(12)
    space = GroundSpace.uniform_cells(0.0, 1.0, 6)
    P = project_span(rng.normal(size=(3, 6)), space)
    D = DppDistribution(P)
    assert P.rank == 3
    assert np.all(sample(D, 99, 500).occupancy.sum(axis=1) == 3)


def test_sampler_prefix_reproducibility():
    # replica streams are keyed by (seed, index): longer runs extend shorter ones
    rng = _rng(13)
    D = DppDistribution(_random_contraction(rng, 5))
    short = sample(D, 7, 10)
    long = sample(D, 7, 25)
    assert np.array_equal(short.bitmasks, long.bitmasks[:10])


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
    """The spectral sampler one replica at a time: a Generator, coin flips, then ``choice`` per point.

    A :class:`Projection` keeps every coin and spans its factor.
    """
    out = []
    for replica in range(count):
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, replica], dtype=np.uint64)))
        keep = rng.random(len(D.eigenvalues)) < D.eigenvalues
        V = D.kernel.factor if isinstance(D.kernel, Projection) else D.eigenvectors[:, keep]
        out.append(frozenset(_reference_projection(rng, V) if V.shape[1] else []))
    return out


@st.composite
def sampler_cases(draw):
    """A kernel on 1-12 points: a projection of any rank, a strict contraction or a diagonal kernel.

    From 9 points on, a kept set spans two packed bytes.
    """
    n = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["projection", "contraction", "diagonal"]))
    rng = _rng(draw(st.integers(0, 2**32 - 1)))
    space = GroundSpace(np.cumsum(rng.uniform(0.1, 1.0, n)), rng.uniform(0.5, 1.5, n))
    if kind == "projection":
        rank = draw(st.integers(0, n))
        K = project_span(rng.normal(size=(rank, n)), space) if rank else KernelOperator(space, np.zeros((n, n)))
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
    with mock.patch.object(dpp, "_block_replicas", lambda n, offset, width, k: block):
        drawn = [X.occupied for X in sample(D, seed, count)]
    assert drawn == _reference_sample(D, seed, count)


def test_sampler_matches_reference_across_default_block():
    D = DppDistribution(_random_contraction(_rng(16), 8))
    count = dpp._block_replicas(8, 0, 16, 8) + 3
    assert [X.occupied for X in sample(D, 3, count)] == _reference_sample(D, 3, count)


def test_sampler_matches_reference_with_two_words_of_coins():
    # 100 eigenvector coins per replica pack into two uint64 words.  Eigenvalues 62-66 are 1/2, the
    # ones below 0 and the ones above 1, so the kept sets vary in both words and repeat often.
    n, seed, count = 100, 5, 48
    rng = _rng(26)
    space = GroundSpace(np.cumsum(rng.uniform(0.1, 1.0, n)), rng.uniform(0.5, 1.5, n))
    spectrum = np.repeat([0.0, 0.5, 1.0], [62, 5, 33])
    Q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    D = DppDistribution(KernelOperator.from_counting(space, (Q * spectrum) @ Q.T))
    coins = dpp._stream_uniforms(np.full(count, seed, dtype=np.uint64), np.arange(count, dtype=np.uint64), n)
    kept = dpp._packed_rows((coins < D.eigenvalues[:, None]).T)
    assert len(np.unique(kept[:, 0])) > 1 and len(np.unique(kept[:, 1])) > 1
    assert len({tuple(k) for k in kept.tolist()}) < count  # some replicas share their kept set
    assert [X.occupied for X in sample(D, seed, count)] == _reference_sample(D, seed, count)


def _same_partition(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two labelings of the same items group them alike."""
    return len(set(zip(a.tolist(), b.tolist()))) == len(set(a.tolist())) == len(set(b.tolist()))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data(), kind=st.sampled_from(["bool", "float"]))
def test_group_rows_partitions_rows_as_unique_does(data, kind):
    rng = _rng(data.draw(st.integers(0, 2**32 - 1)))
    count = data.draw(st.integers(0, 60))
    if kind == "bool":
        # 1-130 columns: keys of one to three uint64 words, from few distinct rows
        width = data.draw(st.integers(1, 130))
        patterns = rng.random((data.draw(st.integers(1, 8)), width)) < rng.random()
        rows = patterns[rng.integers(0, len(patterns), count)]
        keys = dpp._packed_rows(rows)
        assert keys.shape == (count, -(-width // 64))
    else:
        rows = keys = rng.integers(-2, 3, size=(count, data.draw(st.integers(1, 4)))).astype(float)
    order, starts, index = dpp._group_rows(keys)
    distinct, inverse = np.unique(rows, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    assert np.count_nonzero(starts) == len(distinct)
    assert np.array_equal(index[order], np.cumsum(starts) - 1)  # runs are numbered in sorted order
    assert _same_partition(index, inverse)
    if kind == "float":  # both sort the rows lexicographically, column 0 first
        assert np.array_equal(index, inverse)
        assert np.array_equal(rows[order[starts]], distinct)


def test_projection_distribution_reads_the_factor():
    space = GroundSpace.uniform_cells(0.0, 1.0, 6)
    P = project_span(_rng(18).normal(size=(2, 6)), space)
    D = DppDistribution(P)
    assert np.array_equal(D.eigenvalues, [0.0, 0.0, 0.0, 0.0, 1.0, 1.0])
    assert D.eigenvectors is None


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    P=factored_projections(max_points=8),
    seed=st.integers(0, 2**64 - 1),
    count=st.integers(0, 40),
    block=st.integers(1, 12),
)
def test_factor_route_matches_dense_route_draw_for_draw(P, seed, count, block):
    # the same projection as a dense KernelOperator is sampled from the eigenvectors of eigh
    dense = DppDistribution(KernelOperator.from_counting(P.space, P.counting))
    with mock.patch.object(dpp, "_block_replicas", lambda n, offset, width, k: block):
        factored = sample(DppDistribution(P), seed, count)
        reference = sample(dense, seed, count)
    assert np.array_equal(factored.occupancy, reference.occupancy)
    assert np.all(factored.occupancy.sum(axis=1) == P.rank)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    D=sampler_cases(),
    seeds=st.lists(st.integers(0, 2**64 - 1), max_size=5),
    count=st.integers(0, 12),
    block=st.integers(1, 12),
)
def test_sample_batches_are_one_seed_samples(D, seeds, count, block):
    # small blocks straddle the batches; each batch is the one-seed draw at the default block size
    with mock.patch.object(dpp, "_block_replicas", lambda n, offset, width, k: block):
        batches = dpp.sample_batches(D, seeds, count)
    assert len(batches) == len(seeds)
    for batch, seed in zip(batches, seeds):
        assert batch.occupancy.shape == (count, D.space.n)
        assert np.array_equal(batch.occupancy, sample(D, seed, count).occupancy)


def _grouped_sample(D, seed, count):
    """The dense route with one chain rule per kept set, over the whole batch."""
    n = D.space.n
    u = dpp._stream_uniforms(np.full(count, seed, dtype=np.uint64), np.arange(count, dtype=np.uint64), 2 * n).T
    return grouped_chain_rule(D.eigenvectors, u[:, n:], u[:, :n] < D.eigenvalues)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    # the kernels sampled from their eigenvectors: contractions, diagonal kernels and the zero kernel
    D=sampler_cases().filter(lambda D: D.eigenvectors is not None),
    seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=3),
    count=st.integers(0, 40),
    block=st.integers(1, 12),
)
def test_dense_route_matches_one_chain_rule_per_kept_set(D, seeds, count, block):
    # every block runs one chain rule, whatever mix of kept sets its replicas hold
    with mock.patch.object(dpp, "_block_replicas", lambda n, offset, width, k: block):
        with mock.patch.object(dpp, "_chain_rule", wraps=dpp._chain_rule) as calls:
            batches = dpp.sample_batches(D, seeds, count)
    assert calls.call_count == -(-len(seeds) * count // block)
    for batch, seed in zip(batches, seeds):
        assert batch.occupancy.shape == (count, D.space.n)
        assert np.array_equal(batch.occupancy, _grouped_sample(D, seed, count))


@pytest.mark.parametrize("count", [0, 7])
@pytest.mark.parametrize("kind", ["zero", "rank-0 projection", "contraction", "projection"])
def test_sampler_output_shape_at_count_and_rank_zero(kind, count):
    space = GroundSpace.uniform_cells(0.0, 1.0, 5)
    K = {
        "zero": KernelOperator(space, np.zeros((space.n, space.n))),
        "rank-0 projection": Projection(space, np.zeros((5, 0))),
        "contraction": _random_contraction(_rng(23), 5),
        "projection": project_span(np.ones((1, 5)), space),
    }[kind]
    with mock.patch.object(dpp, "_chain_rule", wraps=dpp._chain_rule) as calls:
        batches = dpp.sample_batches(DppDistribution(K), [3, 4], count)
    assert calls.call_count == (1 if count else 0)
    for batch in batches:
        assert batch.occupancy.shape == (count, 5)
        if kind in ("zero", "rank-0 projection"):
            assert not batch.occupancy.any()


def test_chain_rule_pads_replicas_with_fewer_kept_columns():
    V = np.linalg.qr(_rng(24).normal(size=(6, 3)))[0]
    u = _rng(25).random((5, 6))
    keep = np.array([[1, 1, 1], [0, 0, 0], [1, 0, 1], [0, 0, 0], [0, 1, 0]], dtype=bool)
    chosen = dpp._chain_rule(V, u.T, keep.T).T
    assert chosen.shape == (5, 3)
    for r, kept in enumerate(keep):
        k = int(kept.sum())
        assert np.array_equal(chosen[r, :k], chain_rule(V[:, kept], u[r : r + 1, :k])[0])
        assert np.all(chosen[r, k:] == -1)
    assert dpp._chain_rule(V, u.T, np.zeros((5, 3), dtype=bool).T).T.shape == (5, 0)
    assert dpp._chain_rule(V, u[:0].T, keep[:0].T).T.shape == (0, 0)
    assert dpp._chain_rule(V[:, :0], u.T).T.shape == (5, 0)
    assert dpp._chain_rule(V, u[:0].T).T.shape == (0, 3)


@pytest.mark.parametrize("bad", [-1, 2**64, 2**70])
def test_seeds_outside_64_bits_raise_before_sampling(bad):
    D = DppDistribution(_random_contraction(_rng(19), 3))
    with mock.patch.object(dpp, "_stream_uniforms", side_effect=AssertionError("stream work began")):
        with pytest.raises(ValueError):
            sample(D, bad, 5)
        with pytest.raises(ValueError):
            dpp.sample_batches(D, [0, 1, bad], 5)


@pytest.mark.parametrize(
    "kind, n, rank",
    [
        pytest.param("contraction", 1, None, id="contraction-1"),
        pytest.param("contraction", 2, None, id="contraction-2"),
        pytest.param("projection", 1, 1, id="projection-1"),
        pytest.param("projection", 2, 1, id="projection-2"),
        # 8 points at rank 2: the chain rule's replicas share their prefixes
        pytest.param("projection", 8, 2, id="projection-8-rank-2"),
    ],
)
def test_sampler_workspace_stays_within_block_budget(kind, n, rank):
    space = GroundSpace.uniform_cells(0.0, 1.0, n)
    if kind == "projection":
        D = DppDistribution(project_span(np.vander(space.points, rank, increasing=True).T, space))
        block = dpp._block_replicas(n, n, rank, rank)
    else:
        D = DppDistribution(_random_contraction(_rng(20), n))
        block = dpp._block_replicas(n, 0, 2 * n, n)
    count = 3 * block  # about three blocks: the workspace must not accumulate
    tracemalloc.start()
    try:
        samples = sample(D, 11, count)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(samples) == count
    assert peak - count * n <= 1.25 * dpp._BLOCK_BYTES


@settings(max_examples=60, deadline=None, derandomize=True)
@given(P=factored_projections(), count=st.integers(0, 3000), seed=st.integers(0, 2**32 - 1))
def test_chain_rule_matches_per_replica_reference(P, count, seed):
    # up to 3000 replicas on at most 10 points: most replicas share their prefixes
    u = _rng(seed).random((count, P.rank))
    assert np.array_equal(dpp._chain_rule(P.factor, u.T).T, chain_rule(P.factor, u))


def test_chain_rule_with_every_prefix_distinct():
    V = np.linalg.qr(_rng(21).normal(size=(4096, 3)))[0]
    u = _rng(22).random((16, 3))
    chosen = dpp._chain_rule(V, u.T).T
    assert len(set(chosen[:, 0].tolist())) == 16  # no two replicas share even their first point
    assert np.array_equal(chosen, chain_rule(V, u))


def _stream_keys(seed, first, count):
    return np.full(count, seed, dtype=np.uint64), np.arange(count, dtype=np.uint64) + np.uint64(first)


@pytest.mark.parametrize("seed", [0, 7, 2**63 + 5, 2**64 - 1])
def test_stream_uniforms_are_generator_random(seed):
    # the sampler's draws are defined by Generator.random on each replica's Philox stream
    got = dpp._stream_uniforms(*_stream_keys(seed, 5, 4), 9).T
    for r in range(4):
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, 5 + r], dtype=np.uint64)))
        assert np.array_equal(got[r], rng.random(9))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    seeds=st.lists(st.integers(0, 2**64 - 1), min_size=0, max_size=6),
    replica=st.integers(0, 2**64 - 1),
    offset=st.integers(0, 12),
    width=st.integers(0, 12),
)
def test_stream_uniforms_from_an_offset(seeds, replica, offset, width):
    # rows of different seeds in one call; the cipher starts at the block holding word `offset`
    replicas = np.full(len(seeds), replica, dtype=np.uint64)
    got = dpp._stream_uniforms(np.array(seeds, dtype=np.uint64), replicas, width, offset=offset).T
    assert got.shape == (len(seeds), width)
    for row, seed in zip(got, seeds):
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, replica], dtype=np.uint64)))
        assert np.array_equal(row, rng.random(offset + width)[offset:])


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**64 - 1),
    first=st.integers(0, 2**63 - 1),
    count=st.integers(0, 50),
    width=st.integers(1, 20),
)
def test_stream_uniforms_match_philox_generators(seed, first, count, width):
    got = dpp._stream_uniforms(*_stream_keys(seed, first, count), width).T
    assert got.shape == (count, width)
    for r in range(count):
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, first + r], dtype=np.uint64)))
        assert np.array_equal(got[r], rng.random(width))


def test_sampler_goodness_of_fit():
    rng = _rng(14)
    D = DppDistribution(_random_contraction(rng, 4))
    samples = sample(D, 2024, 4000)
    expected = brute_force_distribution(D)
    stat, dof, p = chi_square_gof(samples, dict(enumerate(expected)))
    assert p > 1e-3
    emp = np.bincount(samples.bitmasks, minlength=16) / len(samples)
    assert total_variation(emp, expected) < 0.05


def test_intensity_matches_sampled_counts():
    rng = _rng(15)
    D = DppDistribution(_random_contraction(rng, 5))
    xi = intensity(D)
    samples = sample(D, 5, 4000)
    counts = samples.occupancy.mean(axis=0)
    # 4 standard errors of a Bernoulli proportion
    assert xi.shape == (5,)
    se = np.sqrt(np.maximum(xi * (1 - xi), 1e-4) / len(samples))
    assert np.all(np.abs(counts - xi) < 4 * se + 1e-3)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(P=factored_projections(max_points=8), data=st.data())
def test_projection_diagnostics_match_the_dense_forms(P, data):
    dense = KernelOperator.from_counting(P.space, P.counting)
    A = data.draw(st.sets(st.integers(0, P.n - 1)))
    f = WeightFunction(P.space, _rng(data.draw(st.integers(0, 2**32 - 1))).uniform(0.0, 2.0, P.n), role="f")
    D, D_dense = DppDistribution(P), DppDistribution(dense)
    assert correlation(D, A) == pytest.approx(correlation(D_dense, A), abs=1e-12)
    assert np.allclose(intensity(D), intensity(D_dense), rtol=0.0, atol=1e-14)
    assert np.allclose(_weighted_diagonal(P, f), _weighted_diagonal(dense, f), rtol=0.0, atol=1e-14)


def test_projection_diagnostics_do_not_build_the_counting_form():
    # the dense counting form on 2^16 points would take 34 GB
    space = GroundSpace.uniform_cells(0.0, 1.0, 2**16)
    P = project_span(np.vander(space.points, 3, increasing=True).T, space)
    D = DppDistribution(P)
    assert intensity(D).sum() == pytest.approx(3.0, abs=1e-12)
    assert "counting" not in P.__dict__
    assert correlation(D, {5}) == pytest.approx(float(np.sum(P.factor[5] ** 2)), abs=1e-15)
    assert correlation(D, {0, 1, 2, 3}) == pytest.approx(0.0, abs=1e-15)  # more points than the rank
    assert "counting" not in P.__dict__
    f = WeightFunction.constant(space, 2.0, role="f")
    assert _weighted_diagonal(P, f).sum() == pytest.approx(6.0, abs=1e-11)
    assert "counting" not in P.__dict__
    assert tightness_report([P], f, [Window.full(space)]).rows[0].trace == pytest.approx(6.0, abs=1e-11)
    assert "counting" not in P.__dict__
