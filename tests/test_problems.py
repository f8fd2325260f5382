"""Objective/gradient consistency, smoothness constants, and spec validation."""

import numpy as np
import pytest

from vrgrad.problems import (
    LOSSES,
    Box,
    L1Ball,
    L1Regularizer,
    LossSpec,
    ProblemSpec,
    SparseDesignMatrix,
    aggregate_lipschitz,
    compute_lipschitz_info,
    eval_full_grad,
    eval_objective,
    gradient_mapping_norm,
    smooth_value,
)

from conftest import make_problem, random_least_squares, random_logistic


def central_difference(fun, w, h=1e-6):
    g = np.zeros_like(w)
    for j in range(w.size):
        e = np.zeros_like(w)
        e[j] = h
        g[j] = (fun(w + e) - fun(w - e)) / (2.0 * h)
    return g


@pytest.mark.parametrize("builder", [random_least_squares, random_logistic])
def test_full_gradient_matches_finite_differences(builder):
    prob = builder(12, 6, seed=1)
    rng = np.random.Generator(np.random.Philox(2))
    for _ in range(5):
        w = rng.standard_normal(prob.d)
        g = eval_full_grad(prob, w)
        fd = central_difference(lambda z: smooth_value(prob, z), w)
        assert np.allclose(g, fd, rtol=1e-5, atol=1e-7)


def component_value(prob, i, w):
    """f_i(w) = loss(x_i' w, y_i) + q' w, from the loss table's mean over one margin."""
    x = prob.matrix.toarray()[i]
    y = prob.loss.labels[i : i + 1]
    return LOSSES[prob.loss.kind].mean(np.array([x @ w]), y) + float(prob.q @ w)


def component_grad(prob, i, w):
    """grad f_i(w) = a_i x_i + q, with a_i from the loss table's scalar form."""
    x = prob.matrix.toarray()[i]
    return LOSSES[prob.loss.kind].scalar(float(x @ w), prob.loss.labels[i]) * x + prob.q


@pytest.mark.parametrize("builder", [random_least_squares, random_logistic])
def test_component_gradient_matches_finite_differences(builder):
    prob = builder(8, 5, seed=3)
    rng = np.random.Generator(np.random.Philox(4))
    w = rng.standard_normal(prob.d)
    for i in range(prob.n):
        g = component_grad(prob, i, w)
        fd = central_difference(lambda z: component_value(prob, i, z), w)
        assert np.allclose(g, fd, rtol=1e-5, atol=1e-7)


def test_component_mean_recovers_full_objective_and_gradient():
    rng = np.random.Generator(np.random.Philox(5))
    q = rng.standard_normal(6)
    X = rng.standard_normal((10, 6))
    y = np.where(rng.standard_normal(10) >= 0, 1.0, -1.0)
    w = rng.standard_normal(6)
    for task in ("least_squares", "logistic"):
        prob = make_problem(X, y, task=task, q=q)
        vals = [component_value(prob, i, w) for i in range(prob.n)]
        assert np.mean(vals) == pytest.approx(smooth_value(prob, w), rel=1e-12)
        grads = np.mean([component_grad(prob, i, w) for i in range(prob.n)], axis=0)
        assert np.allclose(grads, eval_full_grad(prob, w), rtol=1e-12, atol=1e-14)
        # the vector and scalar coefficient forms agree
        loss = LOSSES[task]
        u = X @ w
        assert loss.coef(u, y).tolist() == [loss.scalar(float(u[i]), y[i]) for i in range(10)]


def test_objective_adds_l1_penalty_only_for_regularized():
    rng = np.random.Generator(np.random.Philox(6))
    X = rng.standard_normal((7, 4))
    y = rng.standard_normal(7)
    w = rng.standard_normal(4)
    ball = make_problem(X, y)
    reg = make_problem(X, y, regularizer=L1Regularizer(lam=0.3))
    assert eval_objective(ball, w) == pytest.approx(smooth_value(ball, w))
    assert eval_objective(reg, w) == pytest.approx(
        smooth_value(reg, w) + 0.3 * np.abs(w).sum(), rel=1e-14)


def test_component_lipschitz_values():
    rng = np.random.Generator(np.random.Philox(7))
    X = rng.standard_normal((6, 4))
    X[2] = 0.0  # degenerate row
    y = rng.standard_normal(6)
    ls = compute_lipschitz_info(make_problem(X, y))
    logi = compute_lipschitz_info(
        make_problem(X, np.where(y >= 0, 1.0, -1.0), task="logistic"))
    for i in range(6):
        sq = float(np.dot(X[i], X[i]))
        assert ls.per_component[i] == pytest.approx(sq, rel=1e-14)
        assert logi.per_component[i] == pytest.approx(sq / 4.0, rel=1e-14)
    assert ls.per_component[2] == 0.0
    assert ls.degenerate.tolist() == [i == 2 for i in range(6)]


def test_overflowing_row_norm_names_the_row():
    # 1.34e154 squared is just below the largest double; 1e200 squared is not
    X = np.array([[1.34e154, 0.0], [0.0, 1e200], [0.5, 0.0]])
    for task, y in (("least_squares", [1.0, -1.0, 1.0]), ("logistic", [1.0, -1.0, 1.0])):
        with pytest.raises(ValueError, match=r"^row 1: squared norm overflows a double"):
            compute_lipschitz_info(make_problem(X, y, task=task))


def test_lipschitz_info_ordering():
    # average <= max, across 100 instances; the full-gradient constant below
    # the average is checked where the certificate computes it
    rng = np.random.Generator(np.random.Philox(8))
    for _ in range(100):
        n = int(rng.integers(3, 25))
        d = int(rng.integers(2, 10))
        X = rng.standard_normal((n, d)) * rng.uniform(0.1, 3.0)
        info = compute_lipschitz_info(make_problem(X, rng.standard_normal(n)))
        assert info.avg <= info.max_component * (1.0 + 1e-12)


def test_aggregate_lipschitz_uniform_gives_component_max():
    prob = random_least_squares(30, 8, seed=9)
    info = compute_lipschitz_info(prob)
    p = np.full(30, 1.0 / 30.0)
    assert aggregate_lipschitz(info, p) == pytest.approx(
        info.max_component, rel=1e-14)


def test_aggregate_lipschitz_proportional_gives_component_average():
    prob = random_least_squares(30, 8, seed=10)
    info = compute_lipschitz_info(prob)
    p = info.per_component / info.per_component.sum()
    assert aggregate_lipschitz(info, p) == pytest.approx(info.avg, rel=1e-14)


def test_aggregate_lipschitz_never_below_average():
    # any sampling distribution pays at least the component average
    rng = np.random.Generator(np.random.Philox(11))
    prob = random_least_squares(20, 6, seed=12)
    info = compute_lipschitz_info(prob)
    for _ in range(100):
        p = rng.random(20) + 1e-3
        p /= p.sum()
        assert aggregate_lipschitz(info, p) >= info.avg * (1.0 - 1e-12)


def test_aggregate_lipschitz_validation():
    prob = random_least_squares(5, 3, seed=13)
    info = compute_lipschitz_info(prob)
    with pytest.raises(ValueError):
        aggregate_lipschitz(info, np.full(4, 0.25))
    p = np.zeros(5)
    p[0] = 1.0
    with pytest.raises(ValueError):
        aggregate_lipschitz(info, p)  # zero mass on live components


def test_sparse_matrix_matches_dense_reference():
    rng = np.random.Generator(np.random.Philox(14))
    X = rng.standard_normal((9, 5))
    X[X < 0.3] = 0.0  # sparsify
    mat = SparseDesignMatrix.from_dense(X)
    assert mat.n_rows == 9 and mat.n_cols == 5
    assert np.array_equal(mat.toarray(), X)
    w = rng.standard_normal(5)
    u = rng.standard_normal(9)
    assert np.allclose(mat.matvec(w), X @ w, rtol=1e-14)
    assert np.allclose(mat.rmatvec(u), X.T @ u, rtol=1e-14)
    assert np.allclose(mat.row_sq_norms, (X ** 2).sum(axis=1), rtol=1e-14)
    idx, val = mat.row(3)
    dense_row = np.zeros(5)
    dense_row[idx] = val
    assert np.array_equal(dense_row, X[3])


def test_sparse_matrix_from_csr_arrays():
    X = np.array([[0.0, 2.0, 0.0, -1.0], [0.0, 0.0, 0.0, 0.0], [3.0, -0.0, 0.5, 0.0]])
    mat = SparseDesignMatrix.from_dense(X)
    assert mat.indptr.tolist() == [0, 2, 2, 4]
    assert mat.indices.tolist() == [1, 3, 0, 2]
    assert mat.data.tolist() == [2.0, -1.0, 3.0, 0.5]
    assert mat.indptr.dtype == mat.indices.dtype == np.int64
    again = SparseDesignMatrix(3, 4, [0, 2, 2, 4], [1, 3, 0, 2], [2.0, -1.0, 3.0, 0.5])
    assert np.array_equal(again.toarray(), X)
    assert again.row_sq_norms.tolist() == mat.row_sq_norms.tolist()
    empty = SparseDesignMatrix(2, 3, [0, 0, 0], [], [])
    assert np.array_equal(empty.toarray(), np.zeros((2, 3)))
    # integers of any dtype, floats included, are kept as int64
    cast = SparseDesignMatrix(3, 4, [0.0, 2.0, 2.0, 4.0], np.array([1, 3, 0, 2], np.int32),
                              [2.0, -1.0, 3.0, 0.5])
    assert cast.indptr.dtype == cast.indices.dtype == np.int64
    assert np.array_equal(cast.toarray(), X)


@pytest.mark.parametrize("indptr, indices, data, message", [
    ([0, 1, 3, 4], [0, 2, 2, 5], [1.0, 1.0, 1.0, 1.0], "row 1: column indices"),
    ([0, 1, 3, 4], [0, 2, 1, 0], [1.0, 1.0, 1.0, 1.0], "row 1: column indices"),
    ([0, 1, 3, 4], [0, 1, 2, -1], [1.0, 1.0, 1.0, 1.0], "row 2: column indices"),
    ([0, 1, 3, 4], [0, 1, 2, 4], [1.0, 1.0, 1.0, 1.0], r"row 2: column indices .* \[0, 4\)"),
    ([0, 1, 3, 4], [0, 1, 2, 0], [1.0, np.nan, 1.0, np.inf], "row 1: non-finite value"),
    ([0, 2, 3, 4], [1, 0, 2, 0], [np.inf, 1.0, 1.0, 1.0], "row 0: column indices"),
    ([0, 1, 3], [0, 1, 2], [1.0, 1.0, 1.0], "indptr"),
    ([0, 2, 1, 4], [0, 1, 2, 0], [1.0, 1.0, 1.0, 1.0], "indptr"),
    ([0, 1, 3, 4], [0, 1, 2, 0], [1.0, 1.0, 1.0], "indptr"),
    ([0, 1, 3, 4], [0, 0.7, 2.2, 0], [1.0, 1.0, 1.0, 1.0], "indices must hold integers"),
    ([0, 1, 3, 4], [0, 1, np.nan, 0], [1.0, 1.0, 1.0, 1.0], "indices must hold integers"),
    ([0, 1, 2.5, 4], [0, 1, 2, 0], [1.0, 1.0, 1.0, 1.0], "indptr must hold integers"),
], ids=["repeated", "descending", "negative", "past_n_cols", "non_finite",
        "index_before_value", "short_indptr", "falling_indptr", "short_data",
        "fractional_indices", "nan_index", "fractional_indptr"])
def test_sparse_matrix_validation_names_the_first_bad_row(indptr, indices, data, message):
    # rows 0 to 2: an index out of order or range, or a non-finite value; an index
    # that is not an integer, which an int64 copy would truncate (0.7 to column 0)
    with pytest.raises(ValueError, match=message):
        SparseDesignMatrix(3, 4, indptr, indices, data)


def test_problem_spec_validation():
    rng = np.random.Generator(np.random.Philox(15))
    X = rng.standard_normal((4, 3))
    y = rng.standard_normal(4)
    mat = SparseDesignMatrix.from_dense(X)
    loss = LossSpec(kind="least_squares", labels=y)
    with pytest.raises(ValueError):
        ProblemSpec(matrix=mat, loss=loss)  # neither side
    with pytest.raises(ValueError):
        ProblemSpec(matrix=mat, loss=loss, constraint=L1Ball(tau=1.0),
                    regularizer=L1Regularizer(lam=0.1))  # both sides
    with pytest.raises(ValueError):
        ProblemSpec(matrix=mat, loss=LossSpec(kind="least_squares", labels=y[:3]),
                    constraint=L1Ball(tau=1.0))
    with pytest.raises(ValueError):
        LossSpec(kind="logistic", labels=np.array([1.0, 0.5, -1.0, 1.0]))
    with pytest.raises(ValueError):
        LossSpec(kind="hinge", labels=y)
    with pytest.raises(ValueError):
        ProblemSpec(matrix=mat, loss=loss, q=np.ones(2), constraint=L1Ball(tau=1.0))
    with pytest.raises(ValueError):
        Box(lower=np.array([0.0, 0.0]), upper=np.array([1.0]))
    with pytest.raises(ValueError):
        L1Ball(tau=-2.0)
    with pytest.raises(ValueError):
        L1Regularizer(lam=-0.5)


@pytest.mark.parametrize("side", [
    L1Ball(tau=1.5),
    Box(lower=[-1.0, 0.5, -2.0], upper=[0.5, 3.0, -1.0]),
    L1Regularizer(lam=0.1),
], ids=["l1_ball", "box", "regularizer"])
def test_side_samples_lie_in_the_set_and_bound_its_margins(side):
    rng = np.random.Generator(np.random.Philox(16))
    X = rng.standard_normal((5, 3))
    bound = side.margin_bound(SparseDesignMatrix.from_dense(X))
    draws = np.array([side.sample(rng, 3) for _ in range(200)])
    step = side.step_map()
    assert all(np.array_equal(step(w, 0.0), w) for w in draws)  # a point of the set stays
    assert np.all(np.abs(draws @ X.T) <= bound)
    empty = side.margin_bound(SparseDesignMatrix.from_dense(np.zeros((2, 3))))
    if isinstance(side, L1Regularizer):
        assert bound == empty == np.inf
    else:
        assert 0.0 < bound < np.inf and empty == 0.0
    if isinstance(side, L1Ball):  # attained at a vertex tau * sign(x_ij) e_j
        assert bound == 1.5 * np.abs(X).max()


def test_l1_ball_sample_of_a_zero_direction_is_zero():
    class ZeroDirection:
        def standard_normal(self, d):
            return np.zeros(d)

        def random(self):
            raise AssertionError("drew a radius for a zero direction")

    assert np.array_equal(L1Ball(tau=1.0).sample(ZeroDirection(), 3), np.zeros(3))


def test_gradient_mapping_norm_is_the_unit_step_residual():
    free = random_least_squares(20, 4, seed=17, regularizer=L1Regularizer(lam=0.0))
    w = np.arange(4.0)
    g = eval_full_grad(free, w)
    assert gradient_mapping_norm(free, w, g) == float(np.linalg.norm(g))  # no penalty: g itself
    ball = random_least_squares(20, 4, seed=17, constraint=L1Ball(tau=1.0))
    # from 0, the step to (3, 0, 0, 0) projects to (1, 0, 0, 0)
    assert gradient_mapping_norm(ball, np.zeros(4), np.array([-3.0, 0.0, 0.0, 0.0])) == 1.0
