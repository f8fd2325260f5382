"""Solver contracts: accounting, feasibility, determinism, degenerate cases.

The m = 1 tests pin the inner loop to hand arithmetic: with a single inner
step the variance-reduced direction at the snapshot collapses to the exact
full gradient, so one epoch must equal one projected (or proximal) gradient
step, whatever the sampled index.
"""

import dataclasses
import hashlib
import math

import numpy as np
import pytest

from scipy.special import expit

from vrgrad import certificates, solvers
from vrgrad.data import SyntheticSpec, gen_synthetic
from vrgrad.geometry import project_box, project_l1_ball, prox_l1
from vrgrad.problems import (
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
    margin_coefficients,
)
from vrgrad.sampling import PROPORTIONAL, UNIFORM, build_distribution, draw
from vrgrad.solvers import (
    DivergenceError,
    SolverConfig,
    run_afg,
    run_hybrid_vrpsg2,
    run_projected_sgd,
    run_prox_svrg,
    run_vrpsg,
)

from conftest import make_problem, random_least_squares, random_logistic


def small_ball_problem(seed=50, n=24, d=6, tau=3.0):
    return random_least_squares(n, d, seed=seed, constraint=L1Ball(tau=tau))


def test_vrpsg_gradient_evaluation_accounting():
    prob = small_ball_problem()
    cfg = SolverConfig(epochs=4, step_size=0.01, inner_iterations=10)
    trace = run_vrpsg(prob, cfg)
    expected = np.array([(prob.n + 2 * 10) * k for k in range(1, 5)])
    assert np.array_equal(trace.grad_evals, expected)
    # default inner iteration count is n
    trace_n = run_vrpsg(prob, SolverConfig(epochs=2, step_size=0.01))
    assert np.array_equal(trace_n.grad_evals,
                          [(prob.n + 2 * prob.n), 2 * (prob.n + 2 * prob.n)])


def test_vrpsg_iterates_stay_feasible():
    prob = small_ball_problem(tau=1.5)
    for avg in (True, False):
        cfg = SolverConfig(epochs=6, step_size=0.02, inner_iterations=15,
                           average_epoch_output=avg, seed=3)
        trace = run_vrpsg(prob, cfg)
        assert np.abs(trace.final_iterate).sum() <= 1.5 + 1e-12


def test_vrpsg_single_inner_step_is_projected_gradient():
    prob = small_ball_problem(tau=2.0)
    eta = 0.05
    cfg = SolverConfig(epochs=1, step_size=eta, inner_iterations=1, seed=9)
    trace = run_vrpsg(prob, cfg)
    w0 = np.zeros(prob.d)
    expected = project_l1_ball(w0 - eta * eval_full_grad(prob, w0), 2.0)
    assert np.allclose(trace.final_iterate, expected, rtol=0.0, atol=1e-14)


def test_prox_svrg_single_inner_step_is_proximal_gradient():
    prob = random_least_squares(20, 5, seed=51,
                                regularizer=L1Regularizer(lam=0.2))
    eta = 0.04
    cfg = SolverConfig(epochs=1, step_size=eta, inner_iterations=1, seed=9)
    trace = run_prox_svrg(prob, cfg)
    w0 = np.zeros(prob.d)
    expected = prox_l1(w0 - eta * eval_full_grad(prob, w0), eta * 0.2)
    assert np.allclose(trace.final_iterate, expected, rtol=0.0, atol=1e-14)


def test_prox_svrg_zero_penalty_solves_consistent_system():
    # full-rank consistent least squares, lam = 0: plain variance-reduced
    # descent with a zero optimum, which it reaches to near machine level
    rng = np.random.Generator(np.random.Philox(52))
    X = rng.standard_normal((30, 5))
    w_true = rng.standard_normal(5)
    prob = make_problem(X, X @ w_true, regularizer=L1Regularizer(lam=0.0))
    info = compute_lipschitz_info(prob)
    cfg = SolverConfig(epochs=50, step_size=0.25 / info.max_component,
                       sampling_mode=PROPORTIONAL, seed=1,
                       average_epoch_output=False)
    trace = run_prox_svrg(prob, cfg, f_star=0.0)
    assert trace.gap[-1] <= 1e-10


def test_runs_are_deterministic():
    prob = small_ball_problem()
    cfg = SolverConfig(epochs=3, step_size=0.02, inner_iterations=12, seed=7)
    a = run_vrpsg(prob, cfg)
    b = run_vrpsg(prob, cfg)
    assert np.array_equal(a.objective, b.objective)
    assert np.array_equal(a.final_iterate, b.final_iterate)
    c = run_vrpsg(prob, SolverConfig(epochs=3, step_size=0.02,
                                     inner_iterations=12, seed=8))
    assert not np.array_equal(a.objective, c.objective)


def test_divergence_raises_with_epoch_in_message():
    prob = small_ball_problem(tau=1e9)  # effectively unconstrained
    cfg = SolverConfig(epochs=5, step_size=1e5, inner_iterations=10)
    with pytest.raises(DivergenceError, match="epoch 1"):
        run_vrpsg(prob, cfg)


def test_overflowing_step_on_l1_ball_raises_divergence():
    # the inner points overflow to inf; the unchecked projection turns them
    # into NaN, and the epoch's objective check reports it
    prob = small_ball_problem(tau=1.0)
    cfg = SolverConfig(epochs=3, step_size=1e308, inner_iterations=10)
    with pytest.raises(DivergenceError, match="epoch 1"):
        run_vrpsg(prob, cfg)


def test_huge_finite_step_on_l1_ball_lands_on_vertices():
    # at a step of 1e300 the inner points stay finite but tau sits below
    # their rounding; each projection is exact, a vertex of the ball
    prob = small_ball_problem(tau=1.0)
    cfg = SolverConfig(epochs=2, step_size=1e300, inner_iterations=10,
                       average_epoch_output=False)
    trace = run_vrpsg(prob, cfg)
    assert np.all(np.isfinite(trace.objective))
    assert np.count_nonzero(trace.final_iterate) == 1
    assert np.abs(trace.final_iterate).sum() == 1.0


def test_theory_warning_tracks_step_size_threshold():
    prob = small_ball_problem()
    info = compute_lipschitz_info(prob)
    dist = build_distribution(PROPORTIONAL, info, seed=0)
    l_p = aggregate_lipschitz(info, dist)
    below = run_vrpsg(prob, SolverConfig(
        epochs=1, step_size=0.9 / (4 * l_p), sampling_mode=PROPORTIONAL))
    at = run_vrpsg(prob, SolverConfig(
        epochs=1, step_size=1.0 / (4 * l_p), sampling_mode=PROPORTIONAL))
    assert not below.theory_warning
    assert at.theory_warning


def test_hybrid_with_zero_warm_start_reproduces_vrpsg():
    prob = small_ball_problem()
    base = dict(epochs=3, step_size=0.02, inner_iterations=12, seed=5)
    plain = run_vrpsg(prob, SolverConfig(**base))
    hybrid = run_hybrid_vrpsg2(prob, SolverConfig(sgd_initial_step=0.0, **base))
    # row 0 is the (here inert) warm-start pass costing n evaluations
    assert hybrid.epoch[0] == 0
    assert hybrid.grad_evals[0] == prob.n
    assert np.array_equal(hybrid.objective[1:], plain.objective)
    assert np.array_equal(hybrid.grad_evals[1:], plain.grad_evals + prob.n)
    assert np.array_equal(hybrid.final_iterate, plain.final_iterate)


def test_hybrid_warm_start_changes_first_epoch():
    prob = small_ball_problem()
    cfg = SolverConfig(epochs=2, step_size=0.02, inner_iterations=12,
                       seed=5, sgd_initial_step=0.5)
    hybrid = run_hybrid_vrpsg2(prob, cfg)
    assert hybrid.objective[0] < hybrid.initial_objective


def test_sgd_accounting_and_feasibility():
    prob = small_ball_problem(tau=2.0)
    cfg = SolverConfig(epochs=4, step_size=1.0, sgd_initial_step=0.3, seed=2)
    trace = run_projected_sgd(prob, cfg)
    assert np.array_equal(trace.grad_evals, prob.n * np.arange(1, 5))
    assert np.abs(trace.final_iterate).sum() <= 2.0 + 1e-12
    with pytest.raises(ValueError):
        run_projected_sgd(prob, SolverConfig(epochs=1, step_size=1.0,
                                             sgd_initial_step=0.0))


def test_epoch_output_mode_changes_trace():
    prob = small_ball_problem()
    base = dict(epochs=3, step_size=0.02, inner_iterations=12, seed=4)
    avg = run_vrpsg(prob, SolverConfig(average_epoch_output=True, **base))
    last = run_vrpsg(prob, SolverConfig(average_epoch_output=False, **base))
    assert not np.array_equal(avg.objective, last.objective)


def test_start_point_handling():
    prob = small_ball_problem(tau=1.0)
    loose = SolverConfig(epochs=1, step_size=0.01, inner_iterations=5)
    from_projected = run_vrpsg(prob, loose,
                               w0=project_l1_ball(np.full(prob.d, 1.0), 1.0))
    from_infeasible = run_vrpsg(prob, loose, w0=np.full(prob.d, 1.0))
    assert np.array_equal(from_projected.final_iterate,
                          from_infeasible.final_iterate)
    with pytest.raises(ValueError):
        run_vrpsg(prob, loose, w0=np.ones(prob.d + 1))
    with pytest.raises(ValueError):
        run_vrpsg(prob, loose, w0=np.full(prob.d, np.nan))
    # a penalty's step of size 0 moves nothing, so a regularized run starts at w0
    reg = random_least_squares(24, 6, seed=50, regularizer=L1Regularizer(lam=0.3))
    w0 = np.array([2.0, -0.0, -1.5, 0.25, 0.0, 1e-13])
    assert run_prox_svrg(reg, loose, w0=w0).initial_objective == eval_objective(reg, w0)


def test_solver_problem_kind_guards():
    ball = small_ball_problem()
    reg = random_least_squares(10, 4, seed=53,
                               regularizer=L1Regularizer(lam=0.1))
    cfg = SolverConfig(epochs=1, step_size=0.01)
    with pytest.raises(ValueError):
        run_vrpsg(reg, cfg)
    with pytest.raises(ValueError):
        run_prox_svrg(ball, cfg)
    with pytest.raises(ValueError):
        run_projected_sgd(reg, cfg)
    with pytest.raises(ValueError):
        run_hybrid_vrpsg2(reg, cfg)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(epochs=0, step_size=0.1)
    with pytest.raises(ValueError):
        SolverConfig(epochs=1, step_size=0.0)
    with pytest.raises(ValueError):
        SolverConfig(epochs=1, step_size=np.inf)
    with pytest.raises(ValueError):
        SolverConfig(epochs=1, step_size=0.1, inner_iterations=0)
    with pytest.raises(ValueError):
        SolverConfig(epochs=1, step_size=0.1, sgd_initial_step=-1.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="sgd_initial_step"):
            SolverConfig(epochs=1, step_size=0.1, sgd_initial_step=bad)
    for field in ("epochs", "inner_iterations"):
        for bad in (2.0, 10.5, np.float64(3.0), "4"):
            with pytest.raises(ValueError, match=field):
                SolverConfig(**{"epochs": 1, "step_size": 0.1, field: bad})
        for good in (3, np.int64(3), np.int32(3)):
            SolverConfig(**{"epochs": 1, "step_size": 0.1, field: good})
    # a bool runs as one epoch or escapes from draw_many, a float seed is truncated or
    # escapes from the hybrid's XOR, a string flag averages and a string step escapes
    for field, bad in (("epochs", True), ("inner_iterations", True), ("seed", 1.5),
                       ("seed", True), ("seed", None), ("average_epoch_output", "no"),
                       ("average_epoch_output", 1), ("step_size", "0.1"), ("step_size", True),
                       ("sgd_initial_step", "1.0")):
        with pytest.raises(ValueError, match=field):
            SolverConfig(**{"epochs": 1, "step_size": 0.1, field: bad})
    for field, good in (("seed", np.uint64(2 ** 63)), ("average_epoch_output", np.bool_(False)),
                        ("step_size", np.float32(0.1)), ("step_size", 1)):
        SolverConfig(**{"epochs": 1, "step_size": 0.1, field: good})


def test_config_and_specs_refuse_assignment():
    # their checks run at construction only, so a field set later would escape them
    X = np.arange(6.0).reshape(3, 2)
    box = Box(lower=-np.ones(2), upper=np.ones(2))
    problem = ProblemSpec(matrix=SparseDesignMatrix.from_dense(X),
                          loss=LossSpec(kind="least_squares", labels=np.ones(3)), constraint=box)
    config = SolverConfig(epochs=2, step_size=0.01)
    for obj, name, value in [(config, "epochs", 0), (problem, "q", None),
                             (problem, "regularizer", L1Regularizer(lam=0.1)),
                             (problem.loss, "labels", np.zeros(2)), (box, "lower", 2.0),
                             (SyntheticSpec(n=4, d=3, rank=2), "rank", 9)]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, value)
    assert run_vrpsg(problem, config).epoch.tolist() == [1, 2]


@pytest.mark.parametrize("runner", [run_vrpsg, run_prox_svrg, run_projected_sgd,
                                    run_hybrid_vrpsg2, run_afg])
def test_every_runner_keeps_the_run_trace_contract(runner):
    # the CSV writer passes counts through int(), so a float count would not show there
    if runner is run_prox_svrg:
        prob = random_least_squares(24, 6, seed=50, regularizer=L1Regularizer(lam=0.05))
    else:
        prob = small_ball_problem()
    cfg = SolverConfig(epochs=3, step_size=0.01, inner_iterations=10)
    f_star = 0.1 * eval_objective(prob, np.zeros(prob.d))
    for ref in (None, f_star):
        trace = runner(prob, cfg, f_star=ref)
        counts = [trace.epoch, trace.grad_evals]
        if runner is run_afg:
            counts.append(trace.probe_evals)
        else:
            assert trace.probe_evals is None
        assert all(c.dtype == np.int64 and c.shape == trace.objective.shape for c in counts)
        for column in (trace.objective, trace.gap, trace.wall_ms):
            assert column.dtype == np.float64 and column.shape == (len(trace.epoch),)
        if ref is None:
            assert np.all(np.isnan(trace.gap))
        else:
            assert np.array_equal(trace.gap, trace.objective - f_star)


def test_afg_monotone_on_constrained_problem():
    prob = small_ball_problem(tau=2.0)
    cfg = SolverConfig(epochs=300, step_size=1.0)
    trace = run_afg(prob, cfg)
    diffs = np.diff(trace.objective)
    # monotone up to float-rounding slack in the restart margin
    assert np.all(diffs <= 1e-12 * np.maximum(1.0, np.abs(trace.objective[:-1])))


def test_afg_monotone_on_regularized_problem():
    prob = random_least_squares(20, 6, seed=54,
                                regularizer=L1Regularizer(lam=0.05))
    cfg = SolverConfig(epochs=300, step_size=1.0)
    trace = run_afg(prob, cfg)
    diffs = np.diff(trace.objective)
    assert np.all(diffs <= 1e-12 * np.maximum(1.0, np.abs(trace.objective[:-1])))


def test_afg_probe_accounting_separate_from_gradients():
    prob = small_ball_problem()
    trace = run_afg(prob, SolverConfig(epochs=50, step_size=1.0))
    assert trace.probe_evals is not None
    assert np.all(np.diff(trace.probe_evals) >= 0)
    assert np.all(np.diff(trace.grad_evals) >= 0)
    # every iteration evaluates at least one fresh full gradient
    assert trace.grad_evals[-1] >= 50 * prob.n


def counted_reference_run(problem, monkeypatch):
    """``certificates.reference_run(problem)`` and the number of AFG iterations it took."""
    afg, taken = solvers._afg_iterations, [0]

    def counted(*args):
        for taken[0], item in enumerate(afg(*args)):
            yield item

    monkeypatch.setattr(certificates, "_afg_iterations", counted)
    return certificates.reference_run(problem), taken[0]


def test_afg_reaches_gradient_mapping_tolerance(monkeypatch):
    # with the face polish off, AFG alone reaches the reference tolerance
    prob = small_ball_problem(tau=2.0)
    monkeypatch.setattr(certificates, "_face_polish", lambda *args: (None, 0))
    run, iterations = counted_reference_run(prob, monkeypatch)
    w = run.w
    gm = w - project_l1_ball(w - eval_full_grad(prob, w), 2.0)
    assert np.linalg.norm(gm) <= 1e-12
    # the tolerance stop fired long before the iteration budget
    assert iterations < 100000


def polish_case(kind):
    """A 40 x 10 rank-4 problem on which the reference-tolerance AFG runs 60 to 80 iterations."""
    task = "least_squares" if kind == "ball" else "logistic"
    matrix, y = gen_synthetic(SyntheticSpec(n=40, d=10, rank=4, task=task, noise_std=0.5,
                                            row_scale_spread=2.0, seed=2))
    side = {"box": {"constraint": Box(np.full(10, -0.5), np.full(10, 0.5))},
            "ball": {"constraint": L1Ball(1.0)},
            "penalty": {"regularizer": L1Regularizer(0.02)}}[kind]
    return ProblemSpec(matrix=matrix, loss=LossSpec(task, y), **side)


# SHA-256 of the final iterate of AFG on polish_case(kind) to a 1e-12 gradient
# mapping, as plain AFG gives it: from reference_run with _face_polish
# replaced by one that returns (None, 0)
_AFG_FINALS = {
    "box": "44cffb074baef892c84af10acc593c333a4278294a7907b0670410bb68e13870",
    "ball": "bcf643fdfdf91da1d218c27dad61a71bf3048fa746ff51efb1730b6d2eaa1c0a",
    "penalty": "9fe7ff4346e05789d4d1f8243950b21a2da2dff0b6acfb369d945ddcdeb9596b",
}


@pytest.mark.parametrize("kind", sorted(_AFG_FINALS))
def test_failed_polish_attempts_leave_afg_untouched(kind, monkeypatch):
    # every Newton step refuses, so each attempt (at iterations 10, 20 and 40)
    # fails after its first gradient, and AFG goes on from its own state
    refused = []

    def refuse(*args):
        refused.append(args)
        return None, None

    monkeypatch.setattr(certificates, "_face_step", refuse)
    run = certificates.reference_run(polish_case(kind))
    assert len(refused) == 3
    assert hashlib.sha256(run.w.tobytes()).hexdigest() == _AFG_FINALS[kind]


def test_polish_finishes_the_reference_run_early(monkeypatch):
    # the same problems: an accepted polish ends the run at its attempt
    for kind in _AFG_FINALS:
        problem = polish_case(kind)
        run, iterations = counted_reference_run(problem, monkeypatch)
        assert iterations in (10, 20, 40)
        assert run.gradient_mapping <= 1e-12
        assert run.gradient_mapping == gradient_mapping_norm(
            problem, run.w, eval_full_grad(problem, run.w))
        assert run.objective == eval_objective(problem, run.w)


def test_afg_and_the_reference_run_have_the_same_bytes_at_one_and_two_blas_threads():
    # AFG takes every product from the CSR kernels, which do not thread; the design
    # is drawn with no BLAS product, as gen_synthetic's X@Y product depends on the
    # thread count.  The reference run polishes once, at its third attempt.
    import subprocess
    import sys
    from pathlib import Path

    code = """if True:
        import hashlib
        import numpy as np
        from vrgrad.certificates import reference_run
        from vrgrad.problems import Box, LossSpec, ProblemSpec, SparseDesignMatrix
        from vrgrad.solvers import SolverConfig, run_afg
        rng = np.random.Generator(np.random.Philox(7))
        X = rng.standard_normal((1000, 300)) * np.linspace(0.5, 2.0, 1000)[:, None]
        y = np.where(rng.random(1000) < 0.5, 1.0, -1.0)
        prob = ProblemSpec(matrix=SparseDesignMatrix.from_dense(X), loss=LossSpec("logistic", y),
                           constraint=Box(np.full(300, -1.0), np.full(300, 1.0)))
        trace = run_afg(prob, SolverConfig(epochs=10, step_size=1.0), f_star=0.0)
        run = reference_run(prob)
        h = hashlib.sha256()
        for a in (trace.objective, trace.grad_evals, trace.probe_evals, trace.final_iterate,
                  run.w, np.array([run.objective, run.gradient_mapping])):
            h.update(a.tobytes())
        print(h.hexdigest())
    """
    src = str(Path(solvers.__file__).parents[1])
    digests = [subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True, env={"PYTHONPATH": src, "OPENBLAS_NUM_THREADS": k}
                              ).stdout for k in ("1", "2")]
    assert len(digests[0]) == 65 and digests[0] == digests[1]


def public_step(problem):
    """(v, eta) -> the projection or prox of v, through the public, checked functions."""
    c = problem.constraint
    if isinstance(c, L1Ball):
        return lambda v, eta: project_l1_ball(v, c.tau)
    if isinstance(c, Box):
        return lambda v, eta: project_box(v, c.lower, c.upper)
    return lambda v, eta: prox_l1(v, eta * problem.regularizer.lam)


def public_coef(problem):
    """(i, margin) -> the derivative of loss i at the margin, written out."""
    y = problem.loss.labels
    if problem.loss.kind == "least_squares":
        return lambda i, u: u - y[i]
    return lambda i, u: -y[i] * float(expit(-y[i] * u))


def reference_vr_run(problem, cfg):
    """The variance-reduced loop written plainly, one checked call per step.

    Each step draws its own index, forms eta times the snapshot gradient
    afresh, projects or proxes through the public, validating functions
    and adds to the epoch average; returns (objectives, final iterate).
    """
    X, n, q = problem.matrix, problem.n, problem.q
    dist = build_distribution(cfg.sampling_mode, compute_lipschitz_info(problem), seed=cfg.seed)
    eta, m = cfg.step_size, cfg.inner_iterations
    step, coef = public_step(problem), public_coef(problem)
    w_tilde, objectives = np.zeros(problem.d), []
    for _ in range(cfg.epochs):
        snap_coef = margin_coefficients(problem, X.matvec(w_tilde))
        snap_grad = X.rmatvec(snap_coef) / n
        if np.any(q):
            snap_grad = snap_grad + q
        w, acc = w_tilde.copy(), np.zeros(problem.d)
        for _ in range(m):
            i = draw(dist)
            idx, val = X.row(i)
            a = (coef(i, float((val * w[idx]).sum())) - snap_coef[i]) / (n * dist.p[i])
            v = w - eta * snap_grad
            v[idx] -= (eta * a) * val
            w = step(v, eta)
            acc += w
        w_tilde = acc / m if cfg.average_epoch_output else w
        objectives.append(eval_objective(problem, w_tilde))
    return np.array(objectives), w_tilde


def reference_sgd_run(problem, eta0, passes, seed):
    """Projected SGD written plainly, one checked call per step.

    Each step draws one index from the uniform stream of ``seed``, takes
    the plain stochastic gradient (no sampling weight) at the step size
    eta0/sqrt(k), k counting steps over all passes, and projects through
    the public function; returns (objective after each pass of n steps,
    final iterate).
    """
    X, n, q = problem.matrix, problem.n, problem.q
    dist = build_distribution(UNIFORM, compute_lipschitz_info(problem), seed=seed)
    step, coef = public_step(problem), public_coef(problem)
    w, k, objectives = np.zeros(problem.d), 0, []
    for _ in range(passes):
        for _ in range(n):
            k += 1
            eta = eta0 / math.sqrt(k)
            i = draw(dist)
            idx, val = X.row(i)
            a = coef(i, float((val * w[idx]).sum()))
            v = w - eta * q
            v[idx] -= (eta * a) * val
            w = step(v, eta)
        objectives.append(eval_objective(problem, w))
    return np.array(objectives), w


# the solvers step a row holding every column as a whole vector, and any
# other row through its indices: each design is held to the plain loop
DESIGNS = ("full", "mixed", "sparse")


def thinned(problem, design):
    """The problem with the entries at (i + j) % 3 == 0 of its dense design dropped.

    "sparse" drops them from every row, so no row is full; "mixed" from the
    odd rows only; "full" keeps every row whole.
    """
    X = problem.matrix.toarray()
    i, j = np.indices(X.shape)
    X[((i + j) % 3 == 0) & {"full": False, "mixed": i % 2 == 1, "sparse": True}[design]] = 0.0
    thin = dataclasses.replace(problem, matrix=SparseDesignMatrix.from_dense(X))
    full_rows = np.diff(thin.matrix.indptr) == thin.d
    assert (full_rows.all(), full_rows.any()) == (design == "full", design != "sparse")
    return thin


@pytest.mark.parametrize("side", ["l1", "box", "lam"])
@pytest.mark.parametrize("loss", ["least_squares", "logistic"])
def test_vr_runs_match_the_plain_reference_loop(side, loss):
    kw = {"l1": {"constraint": L1Ball(tau=0.8)},
          "box": {"constraint": Box(lower=np.full(7, -0.2), upper=np.full(7, 0.3))},
          "lam": {"regularizer": L1Regularizer(lam=0.05)}}[side]
    make = random_least_squares if loss == "least_squares" else random_logistic
    run = run_prox_svrg if side == "lam" else run_vrpsg
    for design in DESIGNS:
        prob = thinned(make(40, 7, seed=60, **kw), design)
        for mode, avg in ((UNIFORM, True), (PROPORTIONAL, False)):
            cfg = SolverConfig(epochs=3, step_size=0.05, inner_iterations=25, seed=4,
                               sampling_mode=mode, average_epoch_output=avg)
            objectives, w = reference_vr_run(prob, cfg)
            trace = run(prob, cfg)
            assert trace.objective.tobytes() == objectives.tobytes(), design
            assert np.array_equal(trace.final_iterate, w), design  # a prox zero's sign may differ


def odd_size_problem(side, loss, with_q):
    """n = 49, where n * (1/n) rounds below 1: a stray uniform weight 1/(n p_i) shows."""
    n, d = 49, 7
    assert n * (1.0 / n) != 1.0
    rng = np.random.Generator(np.random.Philox(61))
    X = rng.standard_normal((n, d)) * np.linspace(0.5, 2.0, n)[:, None]
    w = rng.standard_normal(d)
    if loss == "least_squares":
        y = X @ w + 0.2 * rng.standard_normal(n)
    else:
        y = np.where(X @ w + 0.3 * rng.standard_normal(n) >= 0, 1.0, -1.0)
    q = 0.5 * rng.standard_normal(d) if with_q else None
    side = {"l1": L1Ball(tau=0.8), "box": Box(lower=np.full(d, -0.2), upper=np.full(d, 0.3))}[side]
    return make_problem(X, y, task=loss, q=q, constraint=side)


@pytest.mark.parametrize("with_q", [False, True])
@pytest.mark.parametrize("side", ["l1", "box"])
@pytest.mark.parametrize("loss", ["least_squares", "logistic"])
def test_sgd_matches_the_plain_reference_loop(loss, side, with_q):
    for design in DESIGNS:
        prob = thinned(odd_size_problem(side, loss, with_q), design)
        trace = run_projected_sgd(prob, SolverConfig(epochs=3, step_size=1.0,
                                                     sgd_initial_step=0.4, seed=6))
        objectives, w = reference_sgd_run(prob, 0.4, 3, seed=6)
        assert trace.objective.tobytes() == objectives.tobytes(), design
        assert trace.final_iterate.tobytes() == w.tobytes(), design


@pytest.mark.parametrize("with_q", [False, True])
@pytest.mark.parametrize("side", ["l1", "box"])
def test_hybrid_warm_start_is_one_reference_sgd_pass(side, with_q):
    # row 0 is one SGD pass on the stream of the derived seed; the
    # variance-reduced epochs then continue from its last iterate
    prob = odd_size_problem(side, "least_squares", with_q)
    cfg = SolverConfig(epochs=2, step_size=0.02, inner_iterations=12, seed=5,
                       sgd_initial_step=0.4)
    hybrid = run_hybrid_vrpsg2(prob, cfg)
    objectives, w = reference_sgd_run(prob, 0.4, 1, seed=5 ^ 0x7A5C9D1B)
    assert hybrid.objective[:1].tobytes() == objectives.tobytes()
    plain = run_vrpsg(prob, cfg, w0=w)
    assert hybrid.objective[1:].tobytes() == plain.objective.tobytes()
    assert hybrid.final_iterate.tobytes() == plain.final_iterate.tobytes()
