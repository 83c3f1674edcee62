"""Determinantal probability measures on a finite ground space.

Exact configuration probabilities, a brute-force enumeration oracle,
spectral exact sampling, correlation minors and intensities, all driven
by the counting form of the kernel.  A configuration law is a (2^n,)
array indexed by occupancy bitmask: bit i is set when point i is occupied.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np

from .errors import ContractError, DimensionError, EnumerationSizeError
from .ground import GroundSpace, Window
from .operators import KernelOperator, Projection, counting_diagonal

#: Eigenvalues of the counting form may stray this far outside [0, 1]
#: (machine noise from spectral factorizations of projections).
SPECTRUM_TOLERANCE = 1e-10

#: Fewest expected draws a configuration needs for its own bin in ``chi_square_gof``.
GOF_MIN_EXPECTED = 5.0

#: Identifier of the counter-based random source used by the sampler.
#: Replica i of a batch with seed s reads the uniforms of its own
#: Philox4x64-10 stream (Salmon et al., SC11) under the key (s, i): block
#: j of four 64-bit words is the cipher of the counter (j + 1, 0, 0, 0),
#: and a word w becomes the uniform (w >> 11) * 2^-53.  These are bit for
#: bit the uniforms ``Generator.random`` draws from
#: ``numpy.random.Philox(key=[s, i])``; ``_stream_uniforms`` enciphers
#: them for many replicas at once.  A replica reads n coin uniforms, then
#: one uniform per selected point (see ``sample``).  Every coin of a
#: projection keeps, so for a rank-r projection only words n .. n + r - 1
#: are read, and only their blocks are enciphered.  Merging replicas is
#: therefore order-independent.
RNG_ALGORITHM = "numpy.random.Philox(key=[seed, replica])"

#: Philox4x64-10: the multipliers of words 0 and 2, their 32-bit halves,
#: and the Weyl increments of the two key words.  All are 0-d arrays, not
#: numpy scalars, which cost ufuncs more per call.
_PHILOX_ROUNDS = 10
_LOW32 = np.array(0xFFFFFFFF, dtype=np.uint64)
_SHIFT32 = np.array(32, dtype=np.uint64)
_PHILOX_M = tuple(np.array(m, dtype=np.uint64) for m in (0xD2E7470EE14C6C93, 0xCA5A826395121157))
_PHILOX_M_HALVES = tuple((m & _LOW32, m >> _SHIFT32) for m in _PHILOX_M)
_PHILOX_W = tuple(np.array(w, dtype=np.uint64) for w in (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B))

#: Byte budget of the workspace of one block of replicas in ``sample_batches``;
#: ``_block_replicas`` turns it into a replica count.
_BLOCK_BYTES = 1 << 22

#: Largest ground space accepted by the exhaustive oracle (2^n configurations).
MAX_ENUMERATION_POINTS = 20

#: Most matrices the exhaustive oracle stacks into one determinant call.
_DET_CHUNK = 1 << 14

#: Most (n, r) subset tables the memo of ``_subset_law`` keeps.  It keeps
#: only tables of at most ``_DET_CHUNK`` int64 entries (C(n, r) * (r + 1),
#: subsets and masks together, so 128 KiB), so it never holds more than 4 MiB.
_SUBSET_MEMO_SHAPES = 32


@dataclass(frozen=True, eq=False)
class Configuration:
    """The occupied grid indices of one draw, as ``Samples[r]`` returns them.

    Every computation in the package reads a batch of draws as its
    occupancy array.  This per-draw form remains only as the row type of
    ``Samples``, for callers that still iterate a batch draw by draw.
    """

    space: GroundSpace
    occupied: frozenset[int]

    def __post_init__(self):
        occupied = frozenset(int(i) for i in self.occupied)
        if occupied and (min(occupied) < 0 or max(occupied) >= self.space.n):
            raise DimensionError("occupied indices out of bounds")
        object.__setattr__(self, "occupied", occupied)


@dataclass(frozen=True, eq=False)
class Samples:
    """Draws on a ground space: row r of the read-only (count, n) bool ``occupancy`` marks draw r's points."""

    space: GroundSpace
    occupancy: np.ndarray

    def __post_init__(self):
        occupancy = np.array(self.occupancy, dtype=bool)
        if occupancy.ndim != 2 or occupancy.shape[1] != self.space.n:
            raise DimensionError(f"samples on {self.space.n} points need a (count, {self.space.n}) occupancy array")
        occupancy.flags.writeable = False
        object.__setattr__(self, "occupancy", occupancy)

    def __len__(self) -> int:
        return len(self.occupancy)

    def __getitem__(self, r) -> Configuration:
        return Configuration(self.space, frozenset(np.flatnonzero(self.occupancy[operator.index(r)]).tolist()))

    @property
    def bitmasks(self) -> np.ndarray:
        """The occupancy bitmask of each draw, as an int64 array."""
        _check_law_size(self.space.n)
        return self.occupancy @ (1 << np.arange(self.space.n, dtype=np.int64))


class DppDistribution:
    """Determinantal measure given by a positive-contraction kernel.

    ``eigenvalues`` is the spectrum of the counting form in ascending order,
    clipped to [0, 1], and ``eigenvectors`` holds the matching eigenvectors
    as columns.  A rank-r :class:`Projection` is not factorized again: its
    eigenvalues are exactly 0 on n - r entries and 1 on r, and
    ``eigenvectors`` is None, since the sampler reads the factor.  This is the
    package's one contraction check: any other spectrum outside [0, 1] by more
    than ``SPECTRUM_TOLERANCE`` raises :class:`ContractError`.
    """

    def __init__(self, kernel: KernelOperator | Projection):
        self.kernel = kernel
        if isinstance(kernel, Projection):
            self.eigenvalues = np.zeros(kernel.n)
            self.eigenvalues[kernel.n - kernel.rank :] = 1.0
            self.eigenvectors = None
            return
        eigvals, eigvecs = np.linalg.eigh(kernel.counting)
        if eigvals[0] < -SPECTRUM_TOLERANCE or eigvals[-1] > 1.0 + SPECTRUM_TOLERANCE:
            raise ContractError(
                f"kernel spectrum [{eigvals[0]:.3e}, {eigvals[-1]:.3e}] is not a contraction"
            )
        self.eigenvalues = np.clip(eigvals, 0.0, 1.0)
        self.eigenvectors = eigvecs

    @property
    def space(self) -> GroundSpace:
        return self.kernel.space


def correlation(D: DppDistribution, A) -> float:
    """Inclusion probability rho(A) = P(A subset of X) = det Khat_A; for a :class:`Projection`, det(U_A U_A^T).

    A is checked as a :class:`Window` is: sorted, deduplicated, nonnegative and inside the space.
    """
    window = Window(list(A))
    window.validate(D.space)
    idx = window.index_set
    if not idx.size:
        return 1.0
    K = D.kernel
    if isinstance(K, Projection):
        rows = K.factor[idx]
        block = rows @ rows.T
    else:
        block = K.counting[np.ix_(idx, idx)]
    return float(np.linalg.det(block))


def occupancy_table(n: int) -> np.ndarray:
    """The (2^n, n) 0/1 table whose row ``mask`` lists the points occupied in that bitmask."""
    masks = np.arange(2**n, dtype=np.uint32)
    return (masks[:, None] >> np.arange(n)) & 1


def _law_array(law, n: int) -> np.ndarray:
    """``law`` as a float array, or :class:`DimensionError` unless it has the 2^n entries of a law on n points."""
    law = np.asarray(law, dtype=float)
    if law.shape != (2**n,):
        raise DimensionError(f"a configuration law on {n} points has {2**n} entries")
    return law


def _check_law_size(n: int) -> None:
    if n > MAX_ENUMERATION_POINTS:
        raise EnumerationSizeError(f"{n} points exceed the enumeration limit {MAX_ENUMERATION_POINTS}")


def _subsets(n: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """The (C(n, r), r) array of r-subsets of range(n) in ``combinations`` order and their bitmasks, both read-only."""
    count = math.comb(n, r)
    subsets = np.fromiter(chain.from_iterable(combinations(range(n), r)), dtype=np.intp, count=count * r)
    subsets = subsets.reshape(count, r)
    masks = (1 << subsets).sum(axis=1)
    subsets.flags.writeable = False
    masks.flags.writeable = False
    return subsets, masks


#: ``_subsets`` behind a memo of at most ``_SUBSET_MEMO_SHAPES`` tables; ``_subset_law`` asks it for small ones only.
_memo_subsets = functools.lru_cache(maxsize=_SUBSET_MEMO_SHAPES)(_subsets)


def _subset_law(U: np.ndarray) -> np.ndarray:
    """P(X = S) = det(U_S)^2 on the r-subsets S of a rank-r projection with factor U (n x r), else 0.

    A table of at most ``_DET_CHUNK`` entries comes from the memo, so a
    repeated shape pays only for its determinants; a larger one is built
    per call, where its 2^n law and its determinants dominate.
    """
    n, r = U.shape
    count = math.comb(n, r)
    subsets, masks = (_memo_subsets if count * (r + 1) <= _DET_CHUNK else _subsets)(n, r)
    law = np.zeros(2**n)
    for start in range(0, count, _DET_CHUNK):
        chunk = slice(start, start + _DET_CHUNK)
        law[masks[chunk]] = np.linalg.det(U[subsets[chunk]]) ** 2
    return law


def _block_identity_law(khat: np.ndarray) -> np.ndarray:
    """P(X = S) = (-1)^{n - |S|} det(Khat - I_{S^c}) for all 2^n subsets, in stacked determinant calls."""
    n = len(khat)
    occupancy = occupancy_table(n)
    signs = np.where((n - occupancy.sum(axis=1)) % 2, -1.0, 1.0)
    probs = np.empty(2**n)
    idx = np.arange(n)
    for start in range(0, 2**n, _DET_CHUNK):
        occ = occupancy[start : start + _DET_CHUNK]
        stacked = np.broadcast_to(khat, (len(occ), n, n)).copy()
        stacked[:, idx, idx] -= 1.0 - occ
        probs[start : start + len(occ)] = np.linalg.det(stacked)
    return probs * signs


def brute_force_distribution(D: DppDistribution) -> np.ndarray:
    """Exact probability of every configuration, as a (2^n,) array indexed by occupancy bitmask.

    A rank-r :class:`Projection` kernel with factor U puts its mass on the
    C(n, r) subsets S of size r, where P(X = S) = det(U_S)^2 (Cauchy-Binet);
    every other entry is exactly 0.  Any other kernel uses the block
    identity P(X = S) = (-1)^{n - |S|} det(Khat - I_{S^c}) on all 2^n subsets.
    """
    n = D.space.n
    _check_law_size(n)
    K = D.kernel
    # The LU factorization inside np.linalg.det can raise the divide-by-zero flag at a pivot that is 0
    # or subnormal, yet the determinant it returns is right (0 or the tiny product), so the flag says
    # nothing about the law; the checks below judge it.
    with np.errstate(divide="ignore"):
        probs = _subset_law(K.factor) if isinstance(K, Projection) else _block_identity_law(K.counting)
    if probs.min() < -1e-12:
        raise ContractError(f"negative configuration probability {probs.min():.3e}")
    np.maximum(probs, 0.0, out=probs)
    total = probs.sum()
    if abs(total - 1.0) > 1e-10:
        raise ContractError(f"configuration probabilities sum to {float(total)!r}")
    return probs


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    """Half the l1 distance between two configuration laws indexed by bitmask."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise DimensionError(f"configuration laws of shapes {p.shape} and {q.shape} differ")
    return 0.5 * float(np.abs(p - q).sum())


def _philox_generator(seed: int, stream: int) -> np.random.Generator:
    """A ``Generator`` on the Philox4x64-10 stream keyed (seed, stream), as ``RNG_ALGORITHM`` keys each replica."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))


def _mulhilo(a: np.ndarray, i: int, lo: np.ndarray, scratch: tuple[np.ndarray, np.ndarray, np.ndarray]) -> None:
    """High and low 64-bit words of the 128-bit products of Philox multiplier ``i`` and ``a``.

    The low words go to ``lo`` and the high words overwrite ``a``; the
    three ``scratch`` arrays have the shape of ``a``.  numpy has no 128-bit
    integers, so the high word is assembled from the 32-bit halves of both
    factors, none of whose partial sums overflows.
    """
    m_lo, m_hi = _PHILOX_M_HALVES[i]
    a_lo, t, u = scratch
    np.multiply(a, _PHILOX_M[i], out=lo)
    np.bitwise_and(a, _LOW32, out=a_lo)
    a_hi = np.right_shift(a, _SHIFT32, out=a)
    np.multiply(a_lo, m_lo, out=t)
    t >>= _SHIFT32
    np.multiply(a_hi, m_lo, out=u)
    u += t
    v = np.multiply(a_lo, m_hi, out=a_lo)
    v += np.bitwise_and(u, _LOW32, out=t)
    u >>= _SHIFT32
    v >>= _SHIFT32
    hi = np.multiply(a_hi, m_hi, out=a_hi)
    hi += u
    hi += v


def _stream_uniforms(seeds: np.ndarray, replicas: np.ndarray, width: int, offset: int = 0) -> np.ndarray:
    """Column r holds uniforms ``offset`` .. ``offset + width - 1`` of the stream keyed (seeds[r], replicas[r]).

    The stream is Philox4x64-10 under that key: 64-bit word 4j + i of a
    replica is word i of the cipher of the counter (j + 1, 0, 0, 0), and a
    word w maps to (w >> 11) * 2^-53.  This is bit for bit what
    ``numpy.random.Philox(key=[seeds[r], replicas[r]])`` feeds
    ``Generator.random``: numpy increments the counter before each block.
    ``seeds`` and ``replicas`` are uint64 arrays of one length, so one call
    can serve replicas of several batches.  The (width, count) result holds
    the replicas on its contiguous axis, so row w is word ``offset + w`` of
    every stream.

    Only the blocks holding the requested words are enciphered, from the
    counter offset // 4 + 1 on, all replicas and blocks at once.  Each
    counter word x0 .. x3 and key word k0, k1 is one contiguous
    (blocks * count,) array, block-major, so every ufunc runs on same-shape
    operands and each word of the stream is a contiguous slice.  One round
    is x0, x2 <- hi(M1 x2) ^ x1 ^ k0, hi(M0 x0) ^ x3 ^ k1 and
    x1, x3 <- lo(M1 x2), lo(M0 x0), after which the key is bumped by the
    Weyl increments; the round writes into the arrays it frees and
    allocates none.
    """
    count = len(seeds)
    skip, lead = divmod(offset, 4)
    blocks = -(-(lead + width) // 4)
    size = blocks * count
    k0 = np.tile(np.asarray(seeds, dtype=np.uint64), blocks)
    k1 = np.tile(np.asarray(replicas, dtype=np.uint64), blocks)
    x0 = np.repeat(np.arange(skip + 1, skip + blocks + 1, dtype=np.uint64), count)
    x1, x2, x3, lo0, lo1 = (np.zeros(size, dtype=np.uint64) for _ in range(5))
    scratch = tuple(np.empty(size, dtype=np.uint64) for _ in range(3))
    for _ in range(_PHILOX_ROUNDS):
        _mulhilo(x0, 0, lo0, scratch)
        _mulhilo(x2, 1, lo1, scratch)
        x1 ^= k0
        x1 ^= x2
        x3 ^= k1
        x3 ^= x0
        x0, x1, x2, x3, lo0, lo1 = x1, lo1, x3, lo0, x0, x2
        k0 += _PHILOX_W[0]
        k1 += _PHILOX_W[1]
    words = np.stack([x.reshape(blocks, count) for x in (x0, x1, x2, x3)], axis=1)
    words = words.reshape(4 * blocks, count)[lead : lead + width]
    words >>= np.uint64(11)
    return words * 2.0**-53


def _packed_rows(rows: np.ndarray) -> np.ndarray:
    """The (count, words) uint64 keys of the rows of a (count, n) bool array, equal exactly where the rows are.

    The rows are padded to whole 64-bit words and packed in one ``packbits``
    pass: column j is bit j % 64 of word j // 64.
    """
    count, n = rows.shape
    words = -(-n // 64)
    padded = np.zeros((count, 64 * words), dtype=bool)
    padded[:, :n] = rows
    return np.packbits(padded, bitorder="little").view("<u8").reshape(count, words)


def _group_rows(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group the equal rows of a 2-D key array: its sort order, the starts of its runs, and each row's run.

    ``order`` sorts the rows lexicographically, column 0 first (an ``argsort``
    of one column, else a ``lexsort``), equal rows in any order.  ``starts[i]``
    marks a sorted row unequal (by ``!=``: -0.0 equals 0.0, a NaN equals
    nothing) to the one before it, and ``index[r]`` is row r's run.
    """
    order = np.argsort(keys[:, 0]) if keys.shape[1] == 1 else np.lexsort(keys.T[::-1])
    ranked = keys[order]
    starts = np.ones(len(keys), dtype=bool)
    starts[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    index = np.empty(len(keys), dtype=np.intp)
    index[order] = np.cumsum(starts) - 1
    return order, starts, index


def _chain_rule(V: np.ndarray, u: np.ndarray, keep: np.ndarray | None = None) -> np.ndarray:
    """Points drawn from the projection DPPs onto spans of columns of V (n x m), one column per replica.

    Replica r spans the columns ``keep[:, r]`` of V, and so draws
    k_r = |keep[:, r]| points, point t from ``u[t, r]``.  ``keep`` None is
    one kept set of every column, shared by all replicas (a projection's
    coins all keep), whose intensity is read from V directly.  Column r of
    the returned (max k_r, B) array lists the points in the order drawn,
    padded with -1.  Every per-replica array holds the replicas on its
    contiguous axis.

    Gram-Schmidt form of the chain rule, advanced in lockstep over the
    replicas.  After t steps a replica's conditional intensity depends only
    on its kept set and its prefix, the points it has chosen so far in
    order, so the work is done once per distinct prefix: the table starts
    from one row per distinct kept set K, whose intensity is the diagonal
    of V_K V_K^T.  Row p of ``d`` is prefix p's intensity (the residual
    diagonal), ``C[p]`` holds the Gram-Schmidt columns of its points, each
    (V[j] * K) @ V.T less its projections on the columns before it, and
    ``state[i]`` is the prefix of the i-th replica still drawing.  Step t
    picks point j with probability d_j / (k_p - t) by inverse CDF on
    ``u[t]``, as ``Generator.choice`` does, by one rule for every replica:
    j counts the entries of its prefix's cdf at or below its uniform,
    summed along the points of the cdf's columns gathered by ``state``.
    A replica leaves once it has drawn its k_r points.

    Kept sets are numbered by ``_group_rows``, new prefixes in the order of
    their keys state * n + j, from a presence table.  Once every replica has
    a prefix of its own, row i is the i-th replica's and the gathers by
    ``state`` stop.  Each row runs the arithmetic the replica would run
    alone, so the draws depend neither on sharing nor on numbering.
    """
    n, m = V.shape
    B = u.shape[1]
    live = slice(None)  # the replicas still drawing
    if keep is None:
        sets, state = np.ones((1, m), dtype=bool), np.zeros(B, dtype=np.intp)
        d = np.sum(V**2, axis=1)[None, :]
    else:
        drawing = np.flatnonzero(keep.any(axis=0))
        if len(drawing) < B:
            live = drawing
        order, starts, state = _group_rows(_packed_rows(keep[:, drawing].T))
        sets = keep[:, drawing[order[starts]]].T
        d = np.array([np.sum(V[:, kept] ** 2, axis=1) for kept in sets])
    masks, k = sets.astype(float), np.count_nonzero(sets, axis=1)
    steps = int(k.max(initial=0))  # k holds the points to draw, per prefix
    chosen = np.full((steps, B), -1, dtype=np.intp)
    if not B or not steps:
        return chosen
    kset = np.arange(len(k))  # the kept set of each prefix
    C = np.zeros((len(k), steps - 1, n))  # the last step needs no column
    for t in range(steps):
        cdf = d / (k - t)[:, None]
        cdf /= cdf.sum(axis=1, keepdims=True)
        np.cumsum(cdf, axis=1, out=cdf)
        cdf /= cdf[:, -1:]
        j = np.add.reduce((cdf.T if state is None else np.take(cdf.T, state, axis=1)) <= u[t, live], axis=0)
        chosen[t, live] = j
        if t == steps - 1:
            break
        del cdf  # freed before the prefixes' rows are copied
        if k.min() == t + 1:  # some replicas have drawn all their points
            going = (k if state is None else k[state]) > t + 1
            live, j = np.arange(B)[live][going], j[going]
            state = np.flatnonzero(going) if state is None else state[going]
        if state is None:
            parent, point = None, j
        else:
            keys = state * n + j
            present = np.zeros(len(d) * n, dtype=bool)
            present[keys] = True
            if np.count_nonzero(present) == len(j):
                parent, point, state = state, j, None
            else:
                distinct = np.flatnonzero(present)
                parent, point = np.divmod(distinct, n)
                state = (np.cumsum(present) - 1)[keys]
        rows = np.arange(len(point))
        if parent is not None:
            C, d, k, kset = C[parent], d[parent], k[parent], kset[parent]
        lead = V[point] * masks[kset]
        if len(lead) == 1 and B > 1:
            # matmul runs a lone row as a gemv, whose last bits differ from the gemm rows of a larger block
            lead = np.repeat(lead, 2, axis=0)
        col = (lead @ V.T)[: len(point)]
        col -= np.einsum("bs,bsn->bn", C[rows, :t, point], C[:, :t])
        col /= np.sqrt(d[rows, point])[:, None]
        C[:, t] = col
        d -= np.square(col, out=col)
        d[rows, point] = 0.0
        np.clip(d, 0.0, None, out=d)
    return chosen


def _block_replicas(n: int, offset: int, width: int, k: int) -> int:
    """Replicas per block of ``sample_batches`` whose workspace fits ``_BLOCK_BYTES``.

    A replica owns one column of each per-replica array, whose contiguous
    axis runs over the block's replicas.  Per replica, ``_stream_uniforms``
    enciphers the blocks of four words that hold words ``offset`` ..
    ``offset + width - 1``, at about 128 bytes per block for its eleven word
    arrays and the stacked words, and returns ``width`` floats; the block's
    index arrays take about 64 bytes.  The chain rule holds rows of n floats
    per distinct prefix, so at worst per replica: k - 1 Gram-Schmidt
    columns, twice while the prefixes' rows are copied to their extensions,
    and three working rows.
    """
    blocks = -(-(offset % 4 + width) // 4)
    return max(1, _BLOCK_BYTES // (128 * blocks + 8 * width + 64 + 8 * n * (2 * k + 1)))


def sample_batches(D: DppDistribution, seeds, count: int) -> list[Samples]:
    """Draw one batch of ``count`` exact i.i.d. samples per seed via the spectral algorithm.

    Replica r of the batch with seed s reads the uniforms u_0, u_1, ... of
    the stream keyed (s, r) (see ``RNG_ALGORITHM``).  Eigenvector i is kept
    when u_i < lambda_i, for i < n.  The kept eigenvectors span a
    projection process of k points, drawn one at a time: the m-th point
    takes u_{n+m} and is the least j with u_{n+m} < F_j, where F is the
    cumulative, normalized intensity of the process conditioned on the
    points already drawn.  This fixes every draw, so results are
    reproducible and merge-order free: batch b is ``sample(D, seeds[b], count)``.

    The replicas of all batches are drawn together in blocks, which may
    span batches, and each block enciphers its words and runs one chain
    rule.  A rank-r :class:`Projection` is the kernel whose n coins all
    keep: V is its factor and it reads no coin words, so only words
    n .. n + r - 1 of each stream are enciphered and every replica spans
    the factor.  For any other kernel V holds the eigenvectors and each
    replica spans the ones its n coins keep.  Raises
    ``ValueError`` before any stream work when a seed lies outside
    [0, 2^64).
    """
    seeds = [operator.index(s) for s in seeds]
    if not all(0 <= s < 2**64 for s in seeds):
        raise ValueError("seeds must be integers in [0, 2^64)")
    space = D.space
    n = space.n
    occupancy = np.zeros((len(seeds) * count, n), dtype=bool)
    seed_words = np.array(seeds, dtype=np.uint64)
    # a projection's coins all keep, so its replicas read no coin words
    V, coins = (D.kernel.factor, 0) if isinstance(D.kernel, Projection) else (D.eigenvectors, n)
    m = V.shape[1]
    block = _block_replicas(n, n - coins, coins + m, m)
    for first in range(0, len(occupancy), block):
        rows = np.arange(first, min(first + block, len(occupancy)))
        batch, replica = np.divmod(rows, count)
        u = _stream_uniforms(seed_words[batch], replica, coins + m, offset=n - coins)
        keep = u[:coins] < D.eigenvalues[:, None] if coins else None
        # point j of replica r sets flat entry (n + 1) r + j + 1; a -1 pad marks the row's spare first column
        hits = np.zeros((len(rows), n + 1), dtype=bool)
        np.put(hits, _chain_rule(V, u[coins:], keep) + np.arange(1, (n + 1) * len(rows), n + 1), True)
        occupancy[first : first + len(rows)] = hits[:, 1:]
    return [Samples(space, occupancy[b * count : (b + 1) * count]) for b in range(len(seeds))]


def sample(D: DppDistribution, seed: int, count: int) -> Samples:
    """Draw ``count`` exact i.i.d. samples: ``sample_batches`` with the one seed ``seed``.

    Row r of the returned occupancy array is the draw of the replica keyed
    (seed, r).  A rank-r projection reads only words n .. n + r - 1 of
    each replica's stream.
    """
    return sample_batches(D, [seed], count)[0]


def intensity(D: DppDistribution) -> np.ndarray:
    """First moment measure: the (n,) atoms K(x, x) w_x = Khat(x, x), clipped at 0 (see ``counting_diagonal``)."""
    return np.clip(counting_diagonal(D.kernel), 0.0, None)


def chi_square_gof(samples: Samples, expected: dict[int, float]):
    """Chi-square goodness of fit of sampled configurations against an exact law.

    ``expected`` maps occupancy bitmasks to probabilities; for a law held
    as an array, pass ``dict(enumerate(law))``.  Bitmasks it does not list
    have probability 0.

    Categories with expected count below ``GOF_MIN_EXPECTED`` are pooled into
    a single tail bin.  Returns (statistic, dof, p_value).  A draw of a
    configuration of probability 0 gives statistic inf and p-value 0.  An
    empty batch raises ``ValueError``: no draws give no p-value.
    """
    from scipy import special

    n_samples = len(samples)
    if not n_samples:
        raise ValueError("no samples to test the fit against: the batch is empty")
    observed = np.bincount(samples.bitmasks, minlength=2**samples.space.n).tolist()
    exp_counts, obs_counts = [], []
    tail_exp = tail_obs = 0.0
    possible = 0
    for mask, p in expected.items():
        if not 0 <= mask < len(observed):
            raise DimensionError(f"bitmask {mask} does not fit {samples.space.n} points")
        e = p * n_samples
        o = observed[mask]
        if p > 0:
            possible += o
        if e < GOF_MIN_EXPECTED:
            tail_exp += e
            tail_obs += o
        else:
            exp_counts.append(e)
            obs_counts.append(o)
    if tail_exp > 0:
        exp_counts.append(tail_exp)
        obs_counts.append(tail_obs)
    dof = max(len(exp_counts) - 1, 1)
    if possible < n_samples:
        return math.inf, dof, 0.0
    exp_arr = np.asarray(exp_counts)
    obs_arr = np.asarray(obs_counts)
    exp_arr *= obs_arr.sum() / exp_arr.sum()  # guard tiny truncation of the table
    stat = float(np.sum((obs_arr - exp_arr) ** 2 / exp_arr))
    return stat, dof, float(special.chdtrc(dof, stat))
