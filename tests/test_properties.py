"""Hypothesis properties of the inner-loop operators and the Hoffman enumeration.

Kernels, draws and the l1-ball projection, then the batched Hoffman bound
against its one-SVD-per-subset reference.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from vrgrad import certificates
from vrgrad.geometry import (
    box_kernel,
    l1_ball_kernel,
    project_box,
    project_l1_ball,
    prox_l1,
    soft_threshold_kernel,
)
from vrgrad.problems import compute_lipschitz_info
from vrgrad.sampling import PROPORTIONAL, UNIFORM, build_distribution, draw, draw_many

from conftest import make_problem
from test_certificates import hoffman_loop

EPS = np.finfo(np.float64).eps
PROPS = settings(max_examples=100, deadline=None)

# vectors with exact ties (small integers), signed zeros and spread-out scales
entries = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    st.integers(-3, 3).map(float),
    st.sampled_from([0.0, -0.0]),
)
vectors = arrays(np.float64, st.integers(1, 24), elements=entries)
radii = st.floats(1e-3, 1e3)


def textbook_l1(v, tau):
    """Sort-and-threshold written out as the solvers ran it before the kernels."""
    mags = np.abs(v)
    if mags.sum() <= tau:
        return v.copy()
    s = np.sort(mags)[::-1]
    csum = np.cumsum(s) - tau
    k = np.nonzero(s > csum / np.arange(1, v.size + 1))[0][-1]
    return np.sign(v) * np.maximum(mags - csum[k] / (k + 1.0), 0.0)


@PROPS
@given(vectors, radii, st.booleans())
def test_l1_kernel_is_byte_equal_to_public_and_textbook(v, tau, inside):
    if inside:  # already in the ball, or on its boundary
        v = v * (tau / max(np.abs(v).sum(), tau))
    out = l1_ball_kernel(v, tau)
    assert out.tobytes() == project_l1_ball(v, tau).tobytes()
    # the kernel keeps the textbook bits while the sums' rounding stays 2**26 below tau
    if tau > np.abs(v).sum() * v.size * 2.0 ** 26 * EPS:
        assert out.tobytes() == textbook_l1(v, tau).tobytes()
    else:
        assert_kkt(v, out, tau)


@PROPS
@given(vectors, st.data())
def test_box_kernel_is_byte_equal_to_public_and_clip(v, data):
    bound = arrays(np.float64, v.size, elements=entries)
    a, b = data.draw(bound), data.draw(bound)
    lower, upper = np.minimum(a, b), np.maximum(a, b)
    out = box_kernel(v, lower, upper)
    assert out.tobytes() == project_box(v, lower, upper).tobytes()
    assert out.tobytes() == np.clip(v, lower, upper).tobytes()


@PROPS
@given(vectors, st.one_of(st.just(0.0), st.floats(0.0, 1e3), st.integers(0, 3).map(float)))
def test_soft_threshold_kernel_matches_public_and_textbook(v, t):
    out = soft_threshold_kernel(v, t)
    assert out.tobytes() == prox_l1(v, t).tobytes()
    textbook = np.sign(v) * np.maximum(np.abs(v) - t, 0.0)
    assert np.array_equal(out, textbook)  # == : a zero's sign may differ
    assert (out + 0.0).tobytes() == (textbook + 0.0).tobytes()


@PROPS
@given(st.integers(0, 2 ** 32), st.sampled_from([UNIFORM, PROPORTIONAL]),
       st.lists(st.integers(0, 40), max_size=8),
       arrays(np.float64, st.integers(1, 6), elements=st.floats(0.1, 10.0)))
def test_draw_many_blocks_match_repeated_draw(seed, mode, blocks, scales):
    info = compute_lipschitz_info(make_problem(np.diag(scales), np.zeros(scales.size)))
    bulk = build_distribution(mode, info, seed=seed)
    single = build_distribution(mode, info, seed=seed)
    got = np.concatenate([draw_many(bulk, b) for b in blocks] + [np.empty(0, np.int64)])
    want = np.array([draw(single) for _ in range(sum(blocks))], dtype=np.int64)
    assert np.array_equal(got, want)
    assert bulk.draw_count == single.draw_count == sum(blocks)
    assert draw(bulk) == draw(single)  # the streams stay in step afterwards


def rounding(v, tau):
    """Error allowed in the projection of v: a few ulps of its scale per sum term."""
    return 4.0 * v.size * v.size * EPS * max(float(np.max(np.abs(v))), tau)


def assert_kkt(v, p, tau):
    """p is the projection of v onto the l1 ball of radius tau, to rounding."""
    tol = rounding(v, tau)
    assert np.all(np.isfinite(p))
    assert np.all(np.abs(p) <= np.abs(v) + tol)
    assert np.all((p == 0.0) | (np.sign(p) == np.sign(v)))
    with np.errstate(over="ignore"):  # at the 1e308 scale the sum is inf
        inside = np.abs(v).sum() <= tau
    if inside:
        assert np.array_equal(p, v)
        return
    assert abs(float(np.abs(p).sum()) - tau) <= tol
    shift = np.abs(v) - np.abs(p)  # one common theta on the support
    on = p != 0.0
    assert on.any()
    theta = float(np.max(shift[on]))
    assert theta - float(np.min(shift[on])) <= tol
    assert np.all(np.abs(v[~on]) <= theta + tol)


huge = st.floats(1e300, 1e308)
scaled_vectors = st.one_of(
    vectors,
    arrays(np.float64, st.integers(1, 24), elements=st.one_of(huge, huge.map(lambda x: -x),
                                                              st.just(0.0))),
)


@PROPS
@given(scaled_vectors, st.one_of(radii, st.floats(1e290, 1e308)))
def test_l1_projection_kkt_and_idempotence(v, tau):
    p = project_l1_ball(v, tau)
    assert_kkt(v, p, tau)
    again = project_l1_ball(p, tau)
    assert np.allclose(again, p, rtol=0.0, atol=rounding(v, tau))


@PROPS
@given(arrays(np.float64, st.integers(1, 24),
              elements=st.one_of(huge, huge.map(lambda x: -x))), radii)
def test_l1_projection_keeps_a_radius_below_the_magnitudes_rounding(v, tau):
    # tau is lost when added to these magnitudes; the result must still sum to it
    p = project_l1_ball(v, tau)
    assert abs(float(np.abs(p).sum()) - tau) <= 4.0 * v.size * EPS * tau
    assert np.all((p == 0.0) | (np.sign(p) == np.sign(v)))


# small integers give duplicated, scaled, zero and dependent rows often
design_entries = st.one_of(st.integers(-2, 2).map(float),
                           st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False))


@PROPS
@given(st.integers(1, 3).flatmap(
           lambda d: st.tuples(arrays(np.float64, st.tuples(st.integers(0, 3), st.just(d)),
                                      elements=design_entries),
                               arrays(np.float64, st.tuples(st.integers(1, 5), st.just(d)),
                                      elements=design_entries))),
       st.integers(1, 8))
def test_hoffman_blocks_equal_the_per_subset_loop(design, block):
    C, X = design
    expected = hoffman_loop(C, X)
    with mock.patch.object(certificates, "_SVD_BLOCK", block):
        if expected == 0.0:  # every row is zero: no basis exists
            with pytest.raises(ValueError, match="no linearly independent"):
                certificates.hoffman_theta_bound(C, np.zeros(len(C)), X)
        else:
            assert certificates.hoffman_theta_bound(C, np.zeros(len(C)), X) == expected
