"""Hypothesis properties of the inner-loop operators, the solvers and the Hoffman enumeration.

Kernels, draws, the l1-ball projection and the positive homogeneity of
the projections and the prox; the side interface (step maps, penalties)
and the smooth part's value and gradient; the stochastic
solvers' gradient-evaluation accounting and feasibility; then the batched
Hoffman bound, over extended bases, against its one-SVD-per-subset
reference, the closed-form mu against the 201-point grid it replaced, and
the semi-strong-convexity probe's projections onto the optimal set.  Last,
the compiled libsvm reader against the Python one on messy files.
"""

import builtins
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import expit

from vrgrad import _epoch, certificates, problems, solvers
from vrgrad.certificates import box_rows
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
    LossSpec,
    ProblemSpec,
    SparseDesignMatrix,
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

from conftest import inner_steps, make_problem, read_libsvm_both
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
    # both streams stand at draw sum(blocks), and stay in step afterwards
    assert np.array_equal(draw_many(bulk, 5), draw_many(single, 5))
    assert draw(bulk) == draw(single)


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
def test_smooth_value_and_gradient_match_the_dense_formulas(case):
    # AFG and the reference solve take f and its gradient from _smooth_and_margins and
    # _coef_and_grad, on the CSR products: smooth_value's and eval_full_grad's bits, and
    # the textbook formulas on the dense array to rounding.  Each runs with the drawn q
    # and with a zero q that keeps q's signs (-0.0 entries).
    X, y, q_drawn, w, task, _ = case
    for q in (q_drawn, np.copysign(0.0, q_drawn)):
        problem = make_problem(X, y, task=task, q=q)
        mat, n = problem.matrix, y.size
        f, u = problems._smooth_and_margins(problem, w)
        a, g = problems._coef_and_grad(problem, u)
        assert f == smooth_value(problem, w)
        assert u.tobytes() == mat.matvec(w).tobytes()
        assert a.tobytes() == problems.margin_coefficients(problem, u).tobytes()
        # the gradient has the bits of the formulas it replaced: X' a / n + q, and
        # the snapshot's, which added q only when some entry was nonzero
        snap = mat.rmatvec(a) / n
        assert g.tobytes() == eval_full_grad(problem, w).tobytes() == (snap + q).tobytes()
        assert g.tobytes() == (snap + q if np.any(q) else snap).tobytes()
        u = X @ w
        if task == "least_squares":
            value, a = float((u - y) @ (u - y)) / (2.0 * n), u - y
        else:
            value, a = float(np.logaddexp(0.0, -y * u).sum()) / n, -y * expit(-y * u)
        # the dense products sum in another order: they agree to a few ulps of the terms' size
        size = (1.0 + np.abs(X).max()) * (1.0 + np.abs(w).sum()) + np.abs(q).sum()
        tol = 8.0 * EPS * X.size * size ** 2
        assert abs(value + float(q @ w) - f) <= tol
        assert np.all(np.abs(X.T @ a / n + q - g) <= tol)


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


# ---- the compiled inner steps against the numpy loop, bit for bit

KERNEL = _epoch.library()
needs_kernel = pytest.mark.skipif(KERNEL is None, reason="the compiled kernel does not build here")


def csr_designs(widths=st.integers(1, 8), max_n=6):
    """(n, d, indptr, indices, data) with rows that are full, partial or empty."""
    def rows(nd):
        n, d = nd
        kinds = st.sampled_from(["full", "partial", "empty"])
        cols = kinds.flatmap(lambda k: st.just(list(range(d))) if k == "full" else
                             st.just([]) if k == "empty" else
                             arrays(np.bool_, d).map(lambda keep: np.flatnonzero(keep).tolist()))
        return st.tuples(st.just(n), st.just(d), st.lists(cols, min_size=n, max_size=n),
                         arrays(np.float64, n * d, elements=st.floats(-2.0, 2.0)))
    return st.tuples(st.integers(1, max_n), widths).flatmap(rows)


def kernel_sides(d):
    ball = st.sampled_from([0.5, 3.0, 1e6, 1e-13]).map(lambda tau: L1Ball(tau=tau))
    bounds = st.tuples(arrays(np.float64, d, elements=st.floats(-1.0, 0.5)),
                       arrays(np.float64, d, elements=st.sampled_from([0.0, 0.0, 0.3, 1.0])))
    box = bounds.map(lambda lw: Box(lower=lw[0], upper=lw[0] + lw[1]))
    lam = st.sampled_from([0.0, 0.02, 0.5]).map(lambda lam: L1Regularizer(lam=lam))
    return st.one_of(ball, box, lam)


# rows of 8 entries or more take the block and recursive branches of the pairwise row dot
wide_designs = csr_designs(st.sampled_from([9, 16, 17, 129, 300]), max_n=4)
differential_cases = st.one_of(csr_designs(), wide_designs).flatmap(lambda design: st.tuples(
    st.just(design), kernel_sides(design[1]),
    st.sampled_from(["least_squares", "logistic"]),
    st.sampled_from(["vrpsg", "vrpsg2", "sgd"]), st.booleans(),
    st.sampled_from([1.0, 375.0]),  # 375: margins near the logistic's saturation at 750
    st.booleans(),  # q nonzero
    st.sampled_from([0.03, 0.4, 1e4]),  # 1e4 blows up
    st.integers(1, 7), st.sampled_from([UNIFORM, PROPORTIONAL]), st.integers(0, 2 ** 32 - 1)))


def outcome(run):
    try:
        trace = run()
    except (solvers.DivergenceError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return (trace.epoch.tobytes(), trace.grad_evals.tobytes(), trace.objective.tobytes(),
            (trace.final_iterate + 0.0).tobytes())


@needs_kernel
@PROPS
@given(differential_cases)
@example(((2, 3, [[0, 1, 2], []], [1.0, -1.5, 0.5, 0.0, 0.0, 0.0]), L1Regularizer(lam=0.02),
           "logistic", "vrpsg", True, 375.0, True, 1e4, 5, PROPORTIONAL, 3))  # diverges at epoch 1
def test_compiled_steps_equal_the_numpy_loop(case):
    (n, d, cols, values), side, loss, algorithm, avg, scale, with_q, eta, m, mode, seed = case
    indices = [j for row in cols for j in row]
    data = [values[k] * scale for k in range(len(indices))]
    matrix = SparseDesignMatrix(n, d, np.cumsum([0] + [len(r) for r in cols]), indices, data)
    rng = np.random.Generator(np.random.Philox(seed))
    labels = np.where(rng.random(n) < 0.5, -1.0, 1.0) * (1.0 if loss == "logistic" else 2.0)
    q = 0.3 * rng.standard_normal(d) if with_q else None
    if isinstance(side, L1Regularizer):
        algorithm, where = "prox_svrg", {"regularizer": side}
    else:
        where = {"constraint": side}
    problem = ProblemSpec(matrix=matrix, loss=LossSpec(kind=loss, labels=labels), q=q, **where)
    w0 = 2.0 * rng.standard_normal(d)
    config = SolverConfig(epochs=3, step_size=eta, inner_iterations=m, seed=seed,
                          sgd_initial_step=min(eta, 1.0) * 5.0, sampling_mode=mode,
                          average_epoch_output=avg)
    run = {"vrpsg": run_vrpsg, "vrpsg2": run_hybrid_vrpsg2, "sgd": run_projected_sgd,
           "prox_svrg": run_prox_svrg}[algorithm]
    got = {}
    for loop in ("numpy", "compiled"):
        with mock.patch.object(solvers, "_inner_steps", inner_steps(loop)):
            got[loop] = outcome(lambda: run(problem, config, w0=w0))
    assert got["compiled"] == got["numpy"]


@needs_kernel
@PROPS
@given(vectors, st.one_of(radii, st.just(1e-13), st.floats(1e290, 1e308)))
@example(np.array([1e308, 1e308]), 1.0)  # the l1 sum overflows
@example(np.array([3.0, 3.0, 3.0, -3.0, 1.0, 1.0]), 5.0)  # ties across the threshold
# three magnitudes tie at the threshold, and the rounded test admits them: the
# partial sort alone would stop short, so the guard must send this to the full sort
@example(np.array([0.5629921770044009, 1.43046318141301, -0.5758757359602791,
                   -0.10530144599225422, 0.10530144599225422, -0.10530144599225422,
                   0.06926315598997633, 0.04509221114797176, -0.05515059068711284]),
         2.253426756400927)
# tau is numpy's pairwise l1 sum, which a sequential sum would overshoot
@example(np.array([-1.370340246561741, 2.1755979241438617, -1.387413231554587,
                   -1.0775204968476604, -1.2008631075528253, 1.1103678017586875,
                   -0.8880848611591907, 0.6686564129642129, 0.5875101525212513,
                   0.25967041104814037, -1.3075789066569106, -0.6121063779878204,
                   1.6731149700340762, -1.2907543993826185, -0.8316549603684383,
                   -0.1622465227803788, 0.808990072037372, 0.251639190604869,
                   0.7420441592953383, -1.0672942329719948, 0.9447765939160119]),
         20.418225032147987)
# tau lies between the sorted sequential sum and numpy's pairwise sum, so the
# threshold is negative, and the zero entry must stay zero
@example(np.array([-2.556, 0.0, -0.568, -0.453, -0.216, -2.02, -0.232, -0.865, 3.323, 0.226,
                   -0.353, -0.281, -0.668, -1.055, -0.391, 0.482, -0.239]),
         13.927999999999999)
def test_compiled_step_projects_like_the_l1_ball_kernel(v, tau):
    # one step from w = 0 on an empty row with a zero coefficient is the projection of -g
    problem = ProblemSpec(matrix=SparseDesignMatrix(1, v.size, [0, 0], [], []),
                          loss=LossSpec(kind="least_squares", labels=[0.0]),
                          constraint=L1Ball(tau=tau))
    steps = inner_steps("compiled")(problem)
    w = steps(np.zeros(v.size), np.zeros(1, np.int64), np.zeros(1), np.ones(1), 1.0, -v,
              False, None)
    assert (w + 0.0).tobytes() == (project_l1_ball(v, tau) + 0.0).tobytes()


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
                     st.just(L1Ball(1.0).rows(d)[0]) if d <= 3 else st.nothing(),
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


def mu_on_the_grid(problem):
    """mu as it was computed before its closed form: min sigma'(z)/n on 201 points of [0, z_max]."""
    c = problem.constraint
    if isinstance(c, L1Ball):
        data = problem.matrix.data
        z_max = c.tau * float(np.abs(data).max()) if data.size else 0.0
    else:
        mx = np.maximum(np.abs(c.lower), np.abs(c.upper))
        z_max = float(np.max(np.abs(problem.matrix.toarray()) @ mx))
    sig = expit(np.linspace(0.0, z_max, 201))
    return float(np.min(sig * (1.0 - sig))) / problem.n


@PROPS
@given(arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 4)), elements=design_entries),
       st.one_of(st.floats(1e-300, 1e300), st.just(0.0)), st.booleans())
@example(np.zeros((2, 3)), 1.0, True)  # z_max = 0
@example(np.ones((1, 1)), 37.0, True)  # sigma(z) rounds to 1 beyond about 36.7
@example(np.ones((1, 1)), 745.0, True)  # exp(-z) underflows to 0 near 745
@example(np.ones((1, 1)), 1e308, True)
def test_mu_is_sigma_prime_at_the_largest_margin(X, radius, ball):
    # sigma' is even and decreasing in |z|, so the grid minimum sits at z_max
    d = X.shape[1]
    side = (L1Ball(tau=radius) if ball and radius > 0.0
            else Box(lower=np.full(d, -radius), upper=np.full(d, radius)))
    problem = make_problem(X, np.ones(X.shape[0]), task="logistic", constraint=side)
    assert certificates.mu_estimate(problem) == mu_on_the_grid(problem)


def optimal_set_cases():
    """(problem, probes): small low-rank problems on every side, with q != 0 and lam = 0.

    Each has a minimizer: under lam = 0 the loss is least squares and q lies
    in the row space of X, and under lam > 0 every |q_j| is below lam.  The
    nonzero singular values of X lie in [0.5, 2], so the reference solves
    are short; ``ill_conditioned_case`` is the other kind.
    """
    def build(n, d, rank, seed, kind, logistic, with_q):
        rng = np.random.Generator(np.random.Philox(seed))
        left, right = (np.linalg.qr(rng.standard_normal((k, rank)))[0] for k in (n, d))
        X = (left * rng.uniform(0.5, 2.0, rank)) @ right.T
        y = X @ rng.standard_normal(d) + 0.1 * rng.standard_normal(n)
        task = "logistic" if logistic and kind != "lam = 0" else "least_squares"
        if task == "logistic":
            y = np.where(y >= 0.0, 1.0, -1.0)
        if kind == "ball":
            side, q = {"constraint": L1Ball(rng.uniform(0.1, 3.0))}, rng.standard_normal(d)
        elif kind == "box":
            lower = -rng.uniform(0.0, 1.0, d)  # some lower == upper == 0
            upper = np.where(rng.random(d) < 0.2, lower, rng.uniform(0.0, 1.0, d))
            side, q = {"constraint": Box(lower, upper)}, rng.standard_normal(d)
        elif kind == "lam > 0":
            lam = rng.uniform(0.01, 1.0)
            side, q = {"regularizer": L1Regularizer(lam)}, lam * rng.uniform(-0.9, 0.9, d)
        else:
            side, q = {"regularizer": L1Regularizer(0.0)}, 0.1 * X.T @ rng.standard_normal(n)
        return make_problem(X, y, task=task, q=q if with_q else None, **side), 40

    return st.tuples(st.integers(3, 8), st.integers(2, 5)).flatmap(lambda nd: st.builds(
        build, st.just(nd[0]), st.just(nd[1]), st.integers(1, min(nd)), st.integers(0, 2 ** 32),
        st.sampled_from(["ball", "box", "lam > 0", "lam = 0"]), st.booleans(), st.booleans()))


def whole_ball_case():
    """g* = 0: the optimal set is the part of the line t (1, 0.4, 0.4) in the l1 ball.

    The affine projection of a ball point near e_1 leaves the ball, by up to
    a factor 1.8 / 1.32 = 1.36 in the l1 norm.
    """
    X = np.array([[-0.4, 1.0, 0.0], [-0.4, 0.0, 1.0], [-0.8, 1.0, 1.0]])
    return make_problem(X, np.zeros(3), constraint=L1Ball(1.0)), 40


def ill_conditioned_case():
    """Least squares with lam = 0 and a small eigenvalue of X'X/n (two near-equal columns).

    AFG alone stops at a 1e-12 gradient mapping more than 1e-9 off {X w = r*}
    here, and the probe refused; the face polish of the reference runs puts
    the finals on that set.
    """
    rng = np.random.Generator(np.random.Philox(6))
    X = rng.standard_normal((4, 3))
    X = np.column_stack([X, X[:, 2] + 1e-2 * rng.standard_normal(4)])
    return make_problem(X, rng.standard_normal(4), regularizer=L1Regularizer(0.0)), 40


def probe_projections(problem, probes):
    """Run ssc_probe, recording [X; E], [r*; e] and each point's last (w, G, h, z).

    A point's projection is redone after each cut row, so a repeated w
    replaces its entry; returns the facts, the rows, the entries and the cuts.
    """
    facts = certificates.reference_solution(problem)
    assert facts.certified
    factored, calls, cuts = [], [], []
    projector = certificates._projector

    def recording(A, t):
        factored.append((A, t))
        project = projector(A, t)

        def wrapped(w, G, h):
            z = project(w, G, h)
            if calls and calls[-1][0] is w:
                cuts.append(calls.pop())
            calls.append((w, G, h, z))
            return z
        return wrapped

    with mock.patch.object(certificates, "_projector", recording):
        try:
            certificates.ssc_probe(problem, facts, probes=probes)
        except certificates.CertificateError as err:  # a refusal must be true
            if "every probe landed" in str(err):  # as on a box that is one point
                probes_made = calls[len(facts.reference_solutions):]
                assert all((w - z) @ (w - z) < 1e-16 for w, _, _, z in probes_made)
            else:  # a final the reference solve left more than 1e-9 off W*
                assert "off the optimal set" in str(err)
                u, _, _, z = calls[-1]
                assert np.linalg.norm(u - z) > 1e-9 * (1.0 + np.linalg.norm(u))
                calls.clear()
    return facts, factored[0], calls, len(cuts)


@settings(max_examples=50, deadline=None)
@given(optimal_set_cases())
@example(whole_ball_case())
@example((make_problem(np.ones((3, 2)), np.ones(3), constraint=Box(-np.ones(2), -np.ones(2))),
          40))  # a box of one point: every probe lands on W*, and the probe refuses
@example(ill_conditioned_case())
def test_probe_projections_are_exact(case):
    # z is the projection of w onto W* exactly when z meets every row and
    # (w - z)'(u - z) <= 0 for every u in W*: the reference finals (within
    # 1e-9 of W*) and the other projections
    problem, probes = case
    facts, (A, t), calls, _ = probe_projections(problem, probes)
    n, step = problem.n, problem.side.step_map()
    E, e = A[n:], t[n:]
    points = facts.reference_solutions + [z for *_, z in calls]
    for w, G, h, z in calls:
        assert np.linalg.norm(A[:n] @ z - facts.r_star) <= 1e-9
        assert np.all(np.abs(E @ z - e) <= 1e-12) and np.all(G @ z <= h + 1e-12)
        if problem.is_constrained:  # the side's own projection leaves z in place
            assert np.linalg.norm(step(z, 1.0) - z) <= 1e-12
        for u in points:
            scale = (1.0 + np.linalg.norm(w - z)) * (1.0 + np.linalg.norm(u))
            assert (w - z) @ (u - z) <= 1e-9 * scale


def test_whole_ball_projections_add_sign_rows():
    # g* = 0 leaves the face rows empty; an affine projection outside the
    # ball must be cut back by sign(z)' w <= tau
    *_, calls, cuts = probe_projections(*whole_ball_case())
    assert cuts >= 1
    assert all(np.abs(z).sum() <= 1.0 + 1e-12 for *_, z in calls)


def test_a_repeated_cut_row_ends_the_projection():
    # every cut row is new in exact arithmetic; one handed back again (here
    # forced, in practice only by rounding) must end the loop, not repeat it
    problem, probes = whole_ball_case()
    facts = certificates.reference_solution(problem)
    with mock.patch.object(L1Ball, "cut", lambda self, z: (np.sign(z), self.tau)):
        probe = certificates.ssc_probe(problem, facts, probes=probes)
    assert probe.beta_empirical > 0.0


# ---- the reference run's face polish


def polish_case(n, d, rank, seed, kind, logistic):
    """A small problem with a minimizer, as ``optimal_set_cases`` builds them.

    The nonzero singular values of X lie in [0.5, 2], so plain AFG, the
    control, also reaches the tolerance soon.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    left, right = (np.linalg.qr(rng.standard_normal((k, rank)))[0] for k in (n, d))
    X = (left * rng.uniform(0.5, 2.0, rank)) @ right.T
    y = X @ rng.standard_normal(d) + 0.5 * rng.standard_normal(n)
    task = "logistic" if logistic and kind != "lam = 0" else "least_squares"
    if task == "logistic":
        y = np.where(y >= 0.0, 1.0, -1.0)
    side = {"ball": {"constraint": L1Ball(rng.uniform(0.1, 3.0))},
            "box": {"constraint": Box(-rng.uniform(0.0, 1.0, d), rng.uniform(0.0, 1.0, d))},
            "lam > 0": {"regularizer": L1Regularizer(rng.uniform(0.01, 0.5))},
            "lam = 0": {"regularizer": L1Regularizer(0.0)}}[kind]
    return make_problem(X, y, task=task, **side)


# every side, both losses, designs of every rank
polish_cases = st.tuples(st.integers(3, 12), st.integers(2, 8)).flatmap(lambda nd: st.builds(
    polish_case, st.just(nd[0]), st.just(nd[1]), st.integers(1, min(nd)),
    st.integers(0, 2 ** 32), st.sampled_from(["ball", "box", "lam > 0", "lam = 0"]),
    st.booleans()))


@settings(max_examples=40, deadline=None)
@given(polish_cases)
@example(polish_case(12, 2, 1, 164, "ball", False))  # AFG's final is ulps outside the ball
@example(polish_case(9, 4, 3, 3408961583, "ball", True))  # a polished point ulps outside
def test_reference_run_polish_is_exact_feasible_and_numpy_only(problem):
    # the polished run reaches the tolerance at a point of the set, with the
    # objective of plain AFG, and imports nothing from scipy
    imported, real_import = [], builtins.__import__

    def recording(name, *args, **kwargs):
        imported.append(name)
        return real_import(name, *args, **kwargs)

    with mock.patch.object(builtins, "__import__", recording):
        run = certificates.reference_run(problem)
    with mock.patch.object(certificates, "_face_polish", lambda *args: (None, 0)):
        plain = certificates.reference_run(problem)
    assert run.gradient_mapping <= 1e-12
    side, w = problem.side, run.w
    if isinstance(side, Box):
        assert np.all(side.lower <= w) and np.all(w <= side.upper)
    elif isinstance(side, L1Ball) and w.tobytes() != plain.w.tobytes():
        # the guard refuses a polished point outside the ball; AFG's own final
        # is the projection's, which may round by ulps of a far larger |v|
        assert float(np.abs(w).sum()) <= side.tau
    assert abs(run.objective - plain.objective) <= 1e-12 * max(1.0, abs(plain.objective))
    assert not [m for m in imported if m.split(".")[0] == "scipy"]


# libsvm files: half keep to the spellings the compiled reader takes; the other
# half mix in what it refuses and the Python reader may still take or reject
_plain_numbers = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: f"{x:.17g}"),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: f"{x:.2E}"),
    st.from_regex(r"\A[+-]?0*[0-9]{1,30}(\.[0-9]{0,30})?([eE][+-]?[0-9]{1,3})?\Z"),
    st.sampled_from(["4.9e-324", "2.4703282292062327e-324", "1e-400", "+.5", "1.", "-.0",
                     "2.2250738585072011e-308", "1e400"]),
)
_odd_numbers = st.one_of(
    st.sampled_from(["1_0", "0x1p3", "0X1.8P1", "inf", "-Infinity", "nan", "", "1e", "--1",
                     ".", "1,5", "\u0663", "\u0661.\u0665"]),
    st.text("0123456789+-.eE:", max_size=6),
)


@st.composite
def _libsvm_files(draw):
    clean = draw(st.booleans())
    numbers = _plain_numbers if clean else st.one_of(_plain_numbers, _odd_numbers)
    blanks = st.sampled_from([" ", " ", "  ", "\t", " \t "] + ([] if clean else ["\x0c", "\x0b"]))
    comments = st.text(st.sampled_from("ab #:.1\t\x0c" + ("" if clean else "\u00e9\x00")),
                       max_size=8).map(lambda c: "#" + c)
    ends = st.sampled_from(["\n", "\n", "\r\n"] + ([] if clean else ["\r"]))
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["row", "row", "row", "row and comment", "comment", "blank"]))
        if kind == "comment":
            lines.append(draw(comments))
            continue
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
            continue
        prev, parts = 0, [draw(numbers)]
        for _ in range(draw(st.integers(0, 5))):
            prev += draw(st.integers(1 if clean else 0, 4))  # a step of 0 repeats an index
            spellings = [str(prev), f"00{prev}"] + ([] if clean else [
                f"+{prev}", "1_0", "\u0663", "", "-1", "0", "1" * 19])
            parts.append(f"{draw(st.sampled_from(spellings))}:{draw(numbers)}")
        line = draw(st.sampled_from(["", " ", "\t"])) + draw(blanks).join(parts)
        if kind == "row and comment":
            line += draw(blanks) + draw(comments)
        lines.append(line)
    text = "".join(line + draw(ends) for line in lines)
    if lines and draw(st.booleans()):  # no end to the last line
        text = text.rstrip("\r\n")
    return text.encode() + (b"" if clean else draw(st.sampled_from([b"", b"\xff", b"\xc3"])))


@PROPS
@given(_libsvm_files())
def test_compiled_libsvm_reader_gives_the_python_readers_bits_or_errors(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "property.libsvm"
    path.write_bytes(text)
    try:
        read_libsvm_both(path)
    except ValueError:  # the same error from both readers, ParseError and UnicodeDecodeError too
        pass
