"""The projection primitives compute bit for bit what their earlier numpy forms computed.

``dense_reference`` keeps each primitive as it was written before its
numpy calls were cut: norms by ``np.linalg.norm``, the orthonormality
residual against ``np.eye``, the measure scaling by ``np.outer``, the
inducibility norms from ``np.stack`` and the law's rounding noise clipped
by ``np.clip``.  Cases are random weighted spaces of 1-40 points, factors of
rank 0-6, vectors scaled by 2^e for e up to +-600 or zero, weights g with
exact 0s and 1s, and coordinate projections, whose dense block-identity laws
hold -0.0.  ``scaled_norm`` is also checked on strided views and on rows
and columns of C- and Fortran-order arrays, against the ``np.errstate``
form it replaced, and ``induced_kernel``'s Gram-Schmidt steps and factor
against ``gram_schmidt_steps`` on factors of either order, whose columns
it reads as strided or contiguous rows.  Floats are compared by their bytes, so a moved sign of
zero fails too.
"""

import warnings
from itertools import zip_longest

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dense_reference as dense
from dpplab.conditioning import WeightFunction, check_inducibility, induced_kernel
from dpplab.dpp import DppDistribution, _block_identity_law, _subset_law, brute_force_distribution
from dpplab.ground import GroundSpace
from dpplab.operators import (
    KernelOperator,
    Projection,
    _gram_schmidt,
    _measure_entries,
    _orthonormality_residual,
    project_span,
    scaled_norm,
)

_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


def _same(a, b) -> bool:
    """Equal shapes and equal bytes, as float64."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def cases(draw, max_points=40):
    """A space, a rank-r factor (coordinate or random), vectors of extreme scales or zero, and g."""
    n = draw(st.integers(1, max_points))
    r = draw(st.integers(0, min(6, n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    space = GroundSpace(np.cumsum(rng.uniform(0.1, 1.0, n)), rng.uniform(0.5, 1.5, n))
    if draw(st.booleans()):
        basis = np.eye(n)[rng.choice(n, size=r, replace=False)]  # exact 0/1 counting form
    else:
        basis = rng.normal(size=(r, n))
    P = project_span(basis, space)
    count = draw(st.integers(1, 4))
    exponents = draw(st.lists(st.sampled_from([-600, -300, 0, 300, 600]), min_size=count, max_size=count))
    vectors = np.ldexp(rng.normal(size=(count, n)), np.array(exponents)[:, None])
    vectors[np.array(draw(st.lists(st.booleans(), min_size=count, max_size=count)))] = 0.0
    kinds = rng.integers(0, 3, size=n)  # exact 0, exact 1, or uniform in (0, 1)
    g = np.where(kinds == 0, 0.0, np.where(kinds == 1, 1.0, rng.uniform(0.0, 1.0, n)))
    return space, P, vectors, WeightFunction(space, g)


@_SETTINGS
@given(cases())
def test_scaled_norm_and_gram_schmidt_match_the_linalg_norm_forms(case):
    space, P, vectors, _ = case
    hat = vectors * space.sqrt_weights
    for v in hat:
        (got_v, got), (want_v, want) = scaled_norm(v), dense.linalg_scaled_norm(v)
        assert _same(got_v, want_v) and _same(got, want)
    got_rows, want_rows = list(P.factor.T), list(P.factor.T)
    got_steps = _gram_schmidt(got_rows, hat, angles=True)
    want_steps = dense.gram_schmidt_steps(want_rows, hat, angles=True)
    for got, want in zip_longest(got_steps, want_steps):  # each step resumes both, so both append
        (k, ratio, ang), (want_k, want_ratio, want_ang) = got, want
        assert k == want_k and _same(ratio, want_ratio) and _same(ang, want_ang)
        if ratio < 1e-6:  # a caller rejects this vector, so its residual is never appended
            break
    assert len(got_rows) == len(want_rows) and all(map(_same, got_rows, want_rows))


@_SETTINGS
@given(cases(max_points=60), st.booleans())
def test_induced_kernel_factor_matches_the_gram_schmidt_reference_on_its_strided_columns(case, c_order):
    # induced_kernel runs Gram-Schmidt over the columns of sqrt(g) U, strided views when U is held in
    # C order; its factor reads only the residuals, and the steps' ratios read the first norms as well
    space, P, _, g = case
    if c_order:
        P = Projection(space, np.ascontiguousarray(P.factor))
    assume(check_inducibility(g, P).invertible)
    hat = (g.sqrt[:, None] * P.factor).T
    got_steps = _gram_schmidt([], hat, angles=True)
    rows = []
    for got, want in zip_longest(got_steps, dense.gram_schmidt_steps(rows, hat, angles=True)):
        assert got[0] == want[0] and _same(got[1:], want[1:])
    assert _same(induced_kernel(g, P).factor, np.array(rows).reshape(len(rows), P.n).T)


@_SETTINGS
@given(
    st.integers(1, 59),
    st.integers(1, 5),
    st.sampled_from(["strided view", "column of a C array", "row of a Fortran array", "column of a Fortran array"]),
    st.sampled_from([-1000, -600, -300, 0, 300, 600, 1000]),
    st.integers(0, 2**32 - 1),
)
def test_scaled_norm_matches_the_errstate_form_on_any_layout_without_a_warning(n, width, layout, exponent, seed):
    # np.vdot takes the first norm: the bytes of the errstate-guarded ndarray.dot form on every layout,
    # and at the overflow scales (|v|^2 above 2^1024) an inf that raises no RuntimeWarning.  The
    # np.linalg.norm form copies a strided vector first and sums it in another order, so it is the
    # reference on contiguous vectors only.
    rng = np.random.default_rng(seed)
    block = np.ldexp(rng.normal(size=(n, width)), exponent)
    v = {
        "strided view": block.ravel()[::width],
        "column of a C array": block[:, -1],
        "row of a Fortran array": np.asfortranarray(block.T)[-1],
        "column of a Fortran array": np.asfortranarray(block)[:, -1],
    }[layout]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got_v, got = scaled_norm(v)
    want_v, want = dense.errstate_scaled_norm(v)
    assert _same(got_v, want_v) and _same(got, want)
    if v.flags.contiguous:
        want_v, want = dense.linalg_scaled_norm(v)
        assert _same(got_v, want_v) and _same(got, want)


@_SETTINGS
@given(cases(), st.sampled_from([0.0, 1e-13, 1e-11]), st.booleans())
def test_orthonormality_residual_matches_the_eye_form(case, noise, fortran):
    _, P, _, _ = case
    rng = np.random.default_rng(P.n * 7 + P.rank)
    U = P.factor + noise * rng.normal(size=P.factor.shape)
    U = np.asfortranarray(U) if fortran else np.ascontiguousarray(U)
    assert _same(_orthonormality_residual(U), dense.eye_residual(U))


@_SETTINGS
@given(cases())
def test_measure_scaling_matches_the_outer_form(case):
    space, P, _, _ = case
    sw = space.sqrt_weights
    assert _same(_measure_entries(space, P.counting), dense.outer_measure_entries(sw, P.counting))
    assert _same(P.entries, dense.outer_measure_entries(sw, P.counting))
    K = KernelOperator(space, P.entries)
    assert _same(K.counting, dense.outer_counting(sw, K.entries))


@_SETTINGS
@given(cases())
def test_inducibility_and_span_norms_match_the_stack_and_norm_forms(case):
    _, P, _, g = case
    if P.rank:
        # the margin is one minus the second slot of the stacked call
        _, sqrt_norm = dense.stacked_inducibility_norms(g.values, P.factor)
        assert _same(check_inducibility(g, P).margin, 1.0 - sqrt_norm)
    # the span cross-check of sqrtg_subspace_projection: the largest singular value is the 2-norm
    D = np.random.default_rng(P.n).normal(size=(P.n, 3))
    X = D - P.factor @ (P.factor.T @ D)
    assert _same(np.linalg.svd(X, compute_uv=False)[0], np.linalg.norm(X, 2))


@_SETTINGS
@given(cases(max_points=8))
def test_laws_match_the_clip_form(case):
    space, P, _, _ = case
    assert _same(brute_force_distribution(DppDistribution(P)), dense.clipped_law(_subset_law(P.factor)))
    dense_kernel = KernelOperator.from_counting(space, P.counting)
    raw = _block_identity_law(dense_kernel.counting)
    assert _same(brute_force_distribution(DppDistribution(dense_kernel)), dense.clipped_law(raw))


def test_a_coordinate_projection_law_holds_negative_zeros_and_clips_them():
    space = GroundSpace.uniform_cells(0.0, 1.0, 5)
    P = project_span(np.eye(5)[[0, 2]], space)
    raw = _block_identity_law(KernelOperator.from_counting(space, P.counting).counting)
    assert np.signbit(raw[raw == 0.0]).any()
    law = brute_force_distribution(DppDistribution(KernelOperator.from_counting(space, P.counting)))
    assert _same(law, dense.clipped_law(raw)) and not np.signbit(law).any()
