"""Hypothesis properties of the inner-loop operators, the solvers and the Hoffman enumeration.

Kernels, draws, the l1-ball projection and the positive homogeneity of
the projections and the prox; the side interface (step maps, penalties)
and the full-gradient baseline's two matrix branches; the stochastic
solvers' gradient-evaluation accounting and feasibility; then the batched
Hoffman bound, over extended bases, against its one-SVD-per-subset
reference.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import expit

from vrgrad import certificates, solvers
from vrgrad.certificates import box_rows, l1_ball_rows
from vrgrad.geometry import (
    box_kernel,
    l1_ball_kernel,
    project_box,
    project_l1_ball,
    prox_l1,
    soft_threshold_kernel,
)
from vrgrad.problems import (
    Box,
    L1Ball,
    L1Regularizer,
    compute_lipschitz_info,
    eval_full_grad,
    eval_objective,
    smooth_value,
)
from vrgrad.sampling import PROPORTIONAL, UNIFORM, build_distribution, draw, draw_many
from vrgrad.solvers import (
    SolverConfig,
    run_hybrid_vrpsg2,
    run_projected_sgd,
    run_prox_svrg,
    run_vrpsg,
)

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


# magnitudes from 1e-6 to 1e6: scaled by up to 2**20 either way they stay far
# from overflow and from subnormals, so the scaling itself never rounds
normal_entries = st.one_of(st.floats(1e-6, 1e6), st.floats(-1e6, -1e-6),
                           st.integers(-3, 3).map(float), st.sampled_from([0.0, -0.0]))
powers_of_two = st.integers(-20, 20).map(lambda k: 2.0 ** k)


@PROPS
@given(arrays(np.float64, st.integers(1, 24), elements=normal_entries), radii,
       powers_of_two, st.data())
def test_projections_and_prox_are_positively_homogeneous(v, tau, c, data):
    # every operation in the kernels commutes exactly with a power-of-two
    # scale, so each operator does too, bit for bit (== folds signed zeros)
    assert np.array_equal(project_l1_ball(c * v, c * tau), c * project_l1_ball(v, tau))
    bound = arrays(np.float64, v.size, elements=normal_entries)
    a, b = data.draw(bound), data.draw(bound)
    lower, upper = np.minimum(a, b), np.maximum(a, b)
    assert np.array_equal(project_box(c * v, c * lower, c * upper),
                          c * project_box(v, lower, upper))
    t = data.draw(st.one_of(st.just(0.0), radii))
    assert np.array_equal(prox_l1(c * v, c * t), c * prox_l1(v, t))


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


def sides(d):
    """Every kind of side for vectors of length d, a zero penalty included."""
    bound = arrays(np.float64, d, elements=st.floats(-1e3, 1e3))
    boxes = st.tuples(bound, bound).map(
        lambda ab: Box(lower=np.minimum(*ab), upper=np.maximum(*ab)))
    return st.one_of(radii.map(L1Ball), boxes,
                     st.one_of(st.just(0.0), st.floats(1e-3, 1e3)).map(L1Regularizer))


steps = st.floats(1e-3, 1e3)


@PROPS
@given(st.integers(1, 24).flatmap(
           lambda d: st.tuples(arrays(np.float64, d, elements=entries),
                               arrays(np.float64, d, elements=entries), sides(d))),
       steps)
def test_every_step_map_is_non_expansive(case, s):
    a, b, side = case
    step = side.step_map()
    gap = float(np.linalg.norm(step(a, s) - step(b, s)))
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))), getattr(side, "tau", 0.0))
    assert gap <= float(np.linalg.norm(a - b)) + rounding(np.concatenate([a, b]), scale)


@PROPS
@given(vectors, st.one_of(st.just(0.0), st.floats(1e-3, 1e3)), steps)
def test_prox_meets_its_optimality_condition(v, lam, s):
    # v - P(v) lies in s * lam * (subdifferential of ||.||_1 at P(v))
    p = L1Regularizer(lam).step_map()(v, s)
    t = s * lam
    on = p != 0.0
    assert np.all(np.abs(v[~on]) <= t)
    assert np.all(np.sign(p[on]) == np.sign(v[on]))
    residual = (v[on] - p[on]) - t * np.sign(p[on])
    assert np.all(np.abs(residual) <= 2.0 * EPS * np.maximum(np.abs(v[on]), t))


problem_cases = st.tuples(st.integers(1, 8), st.integers(1, 6)).flatmap(
    lambda nd: st.tuples(
        arrays(np.float64, nd, elements=design_entries),
        arrays(np.float64, nd[0], elements=st.sampled_from([-1.0, 1.0])),
        arrays(np.float64, nd[1], elements=design_entries),
        arrays(np.float64, nd[1], elements=design_entries),
        st.sampled_from(["least_squares", "logistic"]),
        sides(nd[1])))


@PROPS
@given(problem_cases)
def test_objective_is_smooth_value_plus_the_side_penalty(case):
    X, y, q, w, task, side = case
    kind = {"constraint": side} if isinstance(side, (L1Ball, Box)) else {"regularizer": side}
    problem = make_problem(X, y, task=task, q=q, **kind)
    penalty = side.penalty(w)
    assert eval_objective(problem, w) == smooth_value(problem, w) + penalty
    assert penalty == (side.lam * float(np.abs(w).sum()) if kind.get("regularizer") else 0.0)


@PROPS
@given(problem_cases)
def test_full_gradient_baseline_branches(case):
    # the sparse branch is smooth_value / eval_full_grad, the dense branch the
    # textbook formulas on the dense array, bit for bit; the two agree to rounding
    X, y, q, w, task, _ = case
    problem = make_problem(X, y, task=task, q=q)
    with mock.patch.object(solvers, "_DENSE_MAX_ENTRIES", -1):
        sparse_value, sparse_value_grad = solvers._full_grad_ops(problem)
    with mock.patch.object(solvers, "_DENSE_MAX_ENTRIES", X.size):
        dense_value, dense_value_grad = solvers._full_grad_ops(problem)
    # value_grad's value is value's, from the same margins
    (sparse_f, sparse_g), (dense_f, dense_g) = sparse_value_grad(w), dense_value_grad(w)
    assert sparse_f == sparse_value(w) == smooth_value(problem, w)
    assert dense_f == dense_value(w)
    assert sparse_g.tobytes() == eval_full_grad(problem, w).tobytes()
    n, u = y.size, X @ w
    if task == "least_squares":
        value, a = float((u - y) @ (u - y)) / (2.0 * n), u - y
    else:
        value, a = float(np.logaddexp(0.0, -y * u).sum()) / n, -y * expit(-y * u)
    assert dense_f == value + float(q @ w)
    assert dense_g.tobytes() == (X.T @ a / n + q).tobytes()
    # the two sum in different orders: they agree to a few ulps of the terms' size
    size = (1.0 + np.abs(X).max()) * (1.0 + np.abs(w).sum()) + np.abs(q).sum()
    tol = 8.0 * EPS * X.size * size ** 2
    assert abs(dense_f - sparse_f) <= tol
    assert np.all(np.abs(dense_g - sparse_g) <= tol)


solver_cases = st.tuples(st.integers(1, 12), st.integers(1, 5)).flatmap(
    lambda nd: st.tuples(st.just(nd), sides(nd[1]),
                         st.sampled_from(["vrpsg", "vrpsg2", "sgd"]),
                         st.sampled_from(["least_squares", "logistic"]),
                         st.integers(1, 15), st.integers(1, 3),
                         st.sampled_from([UNIFORM, PROPORTIONAL]), st.booleans(),
                         st.integers(0, 2 ** 32 - 1)))


@PROPS
@given(solver_cases)
def test_solvers_count_gradients_exactly_and_stay_feasible(case):
    (n, d), side, algorithm, task, m, epochs, mode, avg, seed = case
    rng = np.random.Generator(np.random.Philox(seed))
    X = rng.standard_normal((n, d))
    y = rng.standard_normal(n)
    if task == "logistic":
        y = np.where(y >= 0.0, 1.0, -1.0)
    if isinstance(side, L1Regularizer):
        algorithm, problem = "prox_svrg", make_problem(X, y, task=task, regularizer=side)
    else:
        problem = make_problem(X, y, task=task, constraint=side)
    eta = 0.25 / float(np.max(np.sum(X * X, axis=1)))  # below 1/L_i for every component
    config = SolverConfig(epochs=epochs, step_size=eta, inner_iterations=m, seed=seed,
                          sgd_initial_step=eta, sampling_mode=mode, average_epoch_output=avg)
    run = {"vrpsg": run_vrpsg, "vrpsg2": run_hybrid_vrpsg2, "sgd": run_projected_sgd,
           "prox_svrg": run_prox_svrg}[algorithm]
    trace = run(problem, config)

    k = list(range(1, epochs + 1))
    if algorithm == "sgd":
        assert trace.grad_evals.tolist() == [j * n for j in k]
    elif algorithm == "vrpsg2":  # row 0 is the warm-start pass
        assert trace.grad_evals.tolist() == [n] + [n + j * (n + 2 * m) for j in k]
        k = [0] + k
    else:
        assert trace.grad_evals.tolist() == [j * (n + 2 * m) for j in k]
    assert trace.epoch.tolist() == k

    w = trace.final_iterate
    sums = (m if avg else 1) * EPS  # an average of m feasible points rounds by about m ulps
    if isinstance(side, L1Ball):
        assert float(np.abs(w).sum()) <= side.tau * (1.0 + 4.0 * d * EPS + sums)
    elif isinstance(side, Box):
        scale = np.maximum(np.abs(side.lower), np.abs(side.upper))
        assert np.all(w >= side.lower - sums * scale)
        assert np.all(w <= side.upper + sums * scale)


def degenerate_rows(d):
    """Rows of length d: random base rows, then copies, scaled copies, zero rows and sums.

    A sum adds a small multiple of another row as well as a plain one, so some
    column subsets sit near the basis test's threshold and its pruning margin.
    """
    base = arrays(np.float64, st.tuples(st.integers(1, 3), st.just(d)), elements=design_entries)
    op = st.tuples(st.sampled_from(["copy", "scale", "zero", "sum"]),
                   st.integers(0, 10), st.integers(0, 10),
                   st.sampled_from([-3.5, -1.0, 0.25, 2.0, 1e-5, 1.5e-10, 1e-11]))

    def build(rows, ops):
        rows = list(rows)
        for kind, i, j, c in ops:
            a, b = rows[i % len(rows)], rows[j % len(rows)]
            rows.append({"copy": a, "scale": c * a, "zero": 0.0 * a, "sum": a + c * b}[kind])
        return np.array(rows)

    return st.builds(build, base, st.lists(op, max_size=5))


def constraint_rows(d):
    """No rows, the box's or the l1 ball's rows, or random rows of design entries."""
    return st.one_of(st.just(None), st.just(box_rows(-np.ones(d), np.ones(d))[0]),
                     st.just(l1_ball_rows(d, 1.0)[0]) if d <= 3 else st.nothing(),
                     arrays(np.float64, st.tuples(st.integers(0, 3), st.just(d)),
                            elements=design_entries))


@PROPS
@given(st.integers(1, 4).flatmap(lambda d: st.tuples(constraint_rows(d), degenerate_rows(d))),
       st.integers(1, 8))
@example(design=(None, np.array([[5e-324]])), block=1)  # 1/sigma_min overflows to inf
def test_hoffman_blocks_equal_the_per_subset_loop(design, block):
    C, X = design
    b = None if C is None else np.zeros(len(C))
    expected = hoffman_loop(C, X)
    with mock.patch.object(certificates, "_SVD_BLOCK", block):
        if expected == 0.0:  # every row is zero: no basis exists
            with pytest.raises(ValueError, match="no linearly independent"):
                certificates.hoffman_theta_bound(C, b, X)
        else:
            assert certificates.hoffman_theta_bound(C, b, X) == expected
