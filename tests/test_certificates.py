"""Certificate constants against frozen values and independent re-derivations.

The Hoffman-bound oracle here re-derives sigma_min through eigvalsh on the
Gram matrix and uses matrix_rank for the independence filter, so agreement
with the library's SVD enumeration is two routes to the same quantity.
"""

import dataclasses
import itertools
from pathlib import Path

import numpy as np
import pytest

from vrgrad import certificates, problems
from vrgrad.certificates import (
    CertificateError,
    EnumerationBudgetError,
    beta_from_constants,
    bounded_gap_M,
    box_rows,
    build_certificate,
    hoffman_theta_bound,
    l1_ball_rows,
    mu_estimate,
    rate_grid_search,
    reference_solution,
    ssc_probe,
    theoretical_rate,
    variance_diagnostic,
)
from vrgrad.data import SyntheticSpec, gen_synthetic
from vrgrad.geometry import project_l1_ball
from vrgrad.problems import (
    LOSSES,
    Box,
    L1Ball,
    L1Regularizer,
    LossSpec,
    ProblemSpec,
    SparseDesignMatrix,
    compute_lipschitz_info,
    eval_objective,
)
from vrgrad.sampling import PROPORTIONAL, build_distribution

from conftest import make_problem, random_least_squares, random_logistic


def hoffman_oracle(C, X):
    """Brute-force 1/sigma_min over independent column subsets of [C', X']."""
    cols = np.vstack([C, X]).T
    d, total = cols.shape
    best = 0.0
    for k in range(1, min(d, total) + 1):
        for combo in itertools.combinations(range(total), k):
            D = cols[:, combo]
            if np.linalg.matrix_rank(D, tol=1e-9) < k:
                continue
            smallest = np.sqrt(max(np.linalg.eigvalsh(D.T @ D)[0], 0.0))
            best = max(best, 1.0 / smallest)
    return best


def hoffman_loop(C, X):
    """The enumeration as one SVD per subset, kept as the reference."""
    cols = np.vstack([np.empty((0, X.shape[1])) if C is None else C, X]).T
    d, total = cols.shape
    best = 0.0
    for k in range(1, min(d, total) + 1):
        for combo in itertools.combinations(range(total), k):
            s = np.linalg.svd(cols[:, combo], compute_uv=False)
            if s[0] <= 0.0 or s[-1] <= 1e-10 * s[0]:
                continue  # dependent subset; not a basis
            with np.errstate(over="ignore"):  # a subnormal sigma_min
                best = max(best, 1.0 / s[-1])
    return best


def degenerate_design(rng, n, d):
    """Random rows with duplicated, scaled, zero and dependent rows mixed in."""
    X = rng.standard_normal((n, d))
    X[1] = X[0]
    X[2] = -3.5 * X[0]
    X[3] = 0.0
    X[4] = X[0] + 0.25 * X[5]
    return X[rng.permutation(n)]


def stacked_identity_problem():
    """Tiny well-conditioned box instance whose certificate is contractive."""
    X = np.array([[1.0, 0], [0, 1.0], [2.0, 0], [0, 2.0], [1.0, 0], [0, 1.0]])
    w = np.array([0.3, -0.2])
    box = Box(lower=np.full(2, -1.0), upper=np.full(2, 1.0))
    return make_problem(X, X @ w, constraint=box)


def rank_deficient_ball_problem():
    spec = SyntheticSpec(n=30, d=8, rank=4, noise_std=0.2,
                         row_scale_spread=2.0, seed=17)
    matrix, y = gen_synthetic(spec)
    return ProblemSpec(matrix=matrix,
                       loss=LossSpec(kind="least_squares", labels=y),
                       constraint=L1Ball(tau=4.0))


def test_rate_formula_frozen_anchor():
    # eta = 0.1/L_P and m = 100 L_P/beta, in units L_P = beta = 1:
    # 0.4 * 101 / (0.6 * 100) + 1 / (0.1 * 0.6 * 100) = 0.84 exactly
    res = theoretical_rate(eta=0.1, m=100, l_p=1.0, beta=1.0)
    assert res.rho == pytest.approx(0.84, abs=1e-12)
    assert res.contractive
    # large-m limit of the same step fraction
    tail = theoretical_rate(eta=0.1, m=10 ** 9, l_p=1.0, beta=1.0)
    assert tail.rho == pytest.approx(2.0 / 3.0, rel=1e-6)


def test_rate_formula_monotone_in_m_and_validation():
    rhos = [theoretical_rate(0.1, m, 1.0, 1.0).rho for m in (1, 10, 100, 1000)]
    assert all(a > b for a, b in zip(rhos, rhos[1:]))
    with pytest.raises(ValueError):
        theoretical_rate(0.3, 10, 1.0, 1.0)  # eta past 1/(4 L_P)
    with pytest.raises(ValueError):
        theoretical_rate(0.1, 0, 1.0, 1.0)
    with pytest.raises(ValueError):
        theoretical_rate(0.1, 10, -1.0, 1.0)
    with pytest.raises(ValueError):
        theoretical_rate(0.1, 10, 1.0, 0.0)
    with pytest.raises(ValueError, match="m must be an integer >= 1, not 10.5"):
        theoretical_rate(0.1, 10.5, 1.0, 1.0)


def test_rate_grid_search_returns_grid_minimum():
    eta, m, res = rate_grid_search(l_p=2.0, beta=0.05,
                                   eta_fractions=(0.05, 0.1),
                                   m_values=(10, 1000))
    manual = min(
        theoretical_rate(f / 2.0, mm, 2.0, 0.05).rho
        for f in (0.05, 0.1) for mm in (10, 1000)
    )
    assert res.rho == pytest.approx(manual, rel=1e-14)
    assert eta in (0.025, 0.05) and m in (10, 1000)


def test_rate_grid_search_reports_the_m_it_rates():
    # the reported m is the m whose rate is reported, so a fractional m is refused
    with pytest.raises(ValueError, match="m must be an integer"):
        rate_grid_search(1.0, 0.5, (0.02,), (10.5,))
    eta, m, res = rate_grid_search(1.0, 0.5, (0.02,), (10.0,))
    assert m == 10 and res == theoretical_rate(0.02, 10, 1.0, 0.5)


def test_beta_from_constants_frozen_value():
    # theta = 2, mu = 0.5, M = 1, g = 1: beta = 1/(4 (3/0.5 + 1)) = 1/28
    assert beta_from_constants(2.0, 0.5, 1.0, 1.0) == pytest.approx(1.0 / 28.0, rel=1e-14)
    with pytest.raises(ValueError):
        beta_from_constants(0.0, 0.5, 1.0, 1.0)
    with pytest.raises(ValueError):
        beta_from_constants(1.0, -0.5, 1.0, 1.0)


def test_hoffman_bound_identity_is_one():
    C, b = box_rows(np.full(2, -1.0), np.full(2, 1.0))
    assert hoffman_theta_bound(C, b, np.eye(2)) == pytest.approx(1.0, rel=1e-12)


def test_hoffman_bound_matches_brute_force_oracle():
    rng = np.random.Generator(np.random.Philox(23))
    for _ in range(10):
        d = int(rng.integers(2, 4))
        n = int(rng.integers(2, 5))
        X = rng.standard_normal((n, d))
        C, b = box_rows(-np.ones(d), np.ones(d))
        got = hoffman_theta_bound(C, b, X)
        assert got == pytest.approx(hoffman_oracle(C, X), rel=1e-9)


def test_hoffman_bound_scaling():
    # shrinking the rows inflates the constant proportionally
    X = np.array([[0.5, 0.0], [0.0, 0.5]])
    assert hoffman_theta_bound(None, None, X) == pytest.approx(2.0, rel=1e-12)


def test_hoffman_bound_budget_and_validation():
    with pytest.raises(EnumerationBudgetError):
        hoffman_theta_bound(None, None, np.eye(30))
    with pytest.raises(ValueError):
        hoffman_theta_bound(np.eye(3), np.ones(3), np.eye(2))
    with pytest.raises(ValueError):
        hoffman_theta_bound(np.eye(2), np.ones(3), np.eye(2))
    with pytest.raises(ValueError):
        hoffman_theta_bound(None, None, np.zeros((2, 2)))


def test_hoffman_bound_equals_reference_loop_exactly():
    rng = np.random.Generator(np.random.Philox(29))
    for trial in range(12):
        d = int(rng.integers(2, 5))
        X = degenerate_design(rng, int(rng.integers(6, 9)), d)
        if trial % 3 == 0:
            C, b = None, None
        elif trial % 3 == 1:
            C, b = box_rows(-np.ones(d), np.ones(d))
        else:
            C = degenerate_design(rng, 6, d)
            b = np.zeros(6)
        assert hoffman_theta_bound(C, b, X) == hoffman_loop(C, X)


@pytest.mark.parametrize("block", [27, 28, 29, certificates._SVD_BLOCK])
def test_hoffman_bound_exact_across_block_boundaries(monkeypatch, block):
    # 8 columns in d = 3: 8, 28 and 56 subsets of sizes 1, 2 and 3, so
    # these blocks fall below, on and one past a block's end
    monkeypatch.setattr(certificates, "_SVD_BLOCK", block)
    rng = np.random.Generator(np.random.Philox(30))
    X = degenerate_design(rng, 8, 3)
    assert hoffman_theta_bound(None, None, X) == hoffman_loop(None, X)
    C, b = box_rows(-np.ones(3), np.ones(3))
    assert hoffman_theta_bound(C, b, X[:2]) == hoffman_loop(C, X[:2])


def count_svd_subsets(monkeypatch):
    """Patch np.linalg.svd to record the number of matrices in each call."""
    counted = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        counted.append(a.shape[0])
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(certificates.np.linalg, "svd", counting)
    return counted


def test_hoffman_bound_designed_instance_at_budget_is_one(monkeypatch):
    # [I6; 2 I6] under a box: 24 columns, 190 050 subsets, theta exactly 1.
    # Each direction appears four times, so 15 624 subsets are independent;
    # decomposing those and their one-column extensions takes 46 116 SVDs.
    counted = count_svd_subsets(monkeypatch)
    C, b = box_rows(-np.ones(6), np.ones(6))
    X = np.vstack([np.eye(6), 2.0 * np.eye(6)])
    assert hoffman_theta_bound(C, b, X) == 1.0
    assert sum(counted) == 46_116
    assert max(counted) == certificates._SVD_BLOCK


def test_hoffman_extension_keeps_every_basis_reachable(monkeypatch):
    # column 1 duplicates column 0, and column 2 is e1 + 1.5e-10 e2: the pairs
    # {0, 2} and {1, 2} have sigma_min/sigma_max about 7.5e-11, not bases at
    # the rank tolerance 1e-10 but above half of it, so they are still
    # extended; the dependent pair {0, 1} is not, which skips {0, 1, 2} and
    # {0, 1, 3}
    X = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.5e-10, 0.0], [0.0, 0.0, 1.0]])
    s = np.linalg.svd(X[[0, 2]].T, compute_uv=False)
    assert 0.5e-10 < s[-1] / s[0] <= 1e-10
    expected = hoffman_loop(None, X)
    counted = count_svd_subsets(monkeypatch)
    assert hoffman_theta_bound(None, None, X) == expected
    assert counted == [4, 6, 2]  # the closed-form count is 4 + 6 + 4

    # the pair {0, 1} is a basis with ratio 5e-6, far below 1, and only its
    # extension {0, 1, 2} reaches the smallest sigma_min, so the bound needs it
    X = np.array([[1.0, 0.0, 0.0], [1.0, 1e-5, 0.0], [0.0, 1e-5, 1.0]])
    s = np.linalg.svd(X.T, compute_uv=False)
    assert hoffman_theta_bound(None, None, X) == 1.0 / s[-1] == hoffman_loop(None, X)
    assert s[-1] < np.linalg.svd(X[:2].T, compute_uv=False)[-1]


def test_hoffman_bound_rejects_non_finite_input():
    C, b = box_rows(-np.ones(2), np.ones(2))
    with pytest.raises(ValueError, match="X has a non-finite"):
        hoffman_theta_bound(C, b, np.array([[1.0, 0.0], [np.inf, 1.0]]))
    with pytest.raises(ValueError, match="X has a non-finite"):
        hoffman_theta_bound(None, None, np.array([[np.nan, 0.0], [0.0, 1.0]]))
    C[0, 1] = -np.inf
    with pytest.raises(ValueError, match="C has a non-finite"):
        hoffman_theta_bound(C, b, np.eye(2))


def test_hoffman_budget_refuses_before_any_svd(monkeypatch):
    def no_svd(*args, **kwargs):
        raise AssertionError("SVD ran before the budget check")

    monkeypatch.setattr(certificates.np.linalg, "svd", no_svd)
    # 16 box rows and 8 rows of X: 24 columns, the cap, but 1 271 625 subsets
    C, b = box_rows(-np.ones(8), np.ones(8))
    with pytest.raises(EnumerationBudgetError,
                       match="1271625 column subsets exceed the budget of 200000"):
        hoffman_theta_bound(C, b, np.eye(8))
    with pytest.raises(EnumerationBudgetError, match="25 columns; enumeration capped at 24"):
        hoffman_theta_bound(C, b, np.vstack([np.eye(8), np.ones((1, 8))]))


def test_hoffman_budget_refuses_before_densifying(monkeypatch):
    from vrgrad.problems import SparseDesignMatrix

    def no_toarray(self):
        raise AssertionError("X was densified before the budget check")

    monkeypatch.setattr(SparseDesignMatrix, "toarray", no_toarray)
    rng = np.random.Generator(np.random.Philox(31))
    X = rng.standard_normal((40, 500))
    X[rng.random(X.shape) < 0.9] = 0.0
    sparse = SparseDesignMatrix.from_dense(X)
    with pytest.raises(EnumerationBudgetError, match="40 columns"):
        hoffman_theta_bound(None, None, sparse)
    C, b = box_rows(-np.ones(8), np.ones(8))
    with pytest.raises(EnumerationBudgetError,
                       match="1271625 column subsets exceed the budget of 200000"):
        hoffman_theta_bound(C, b, SparseDesignMatrix.from_dense(np.eye(8)))


def test_constraint_row_descriptions_define_the_sets():
    rng = np.random.Generator(np.random.Philox(24))
    C, b = l1_ball_rows(3, 1.5)
    assert C.shape == (8, 3)
    for _ in range(200):
        w = rng.uniform(-2.0, 2.0, 3)
        assert (np.abs(w).sum() <= 1.5) == bool(np.all(C @ w <= b + 1e-12))
    lo, hi = np.array([-1.0, 0.0]), np.array([0.5, 2.0])
    C2, b2 = box_rows(lo, hi)
    for _ in range(200):
        w = rng.uniform(-2.0, 3.0, 2)
        inside = bool(np.all((w >= lo) & (w <= hi)))
        assert inside == bool(np.all(C2 @ w <= b2 + 1e-12))
    with pytest.raises(EnumerationBudgetError):
        l1_ball_rows(5, 1.0)
    # the rows of Face.rows() for the whole box, bounds at +-0 and +-1e300 included
    lo, hi = np.array([-0.0, 0.0, -1e300, 2.0]), np.array([0.0, -0.0, 1e300, 3.0])
    C3, b3 = box_rows(lo, hi)
    assert C3.tobytes() == np.vstack([np.eye(4), -np.eye(4)]).tobytes()
    assert b3.tobytes() == np.concatenate([hi, -lo]).tobytes()
    # an empty box, a NaN bound and an infinite tau are refused, as Box and L1Ball do
    for bad in (([1.0], [0.0]), ([np.nan], [1.0]), ([0.0], [np.inf])):
        with pytest.raises(ValueError):
            box_rows(*bad)
    for tau in (np.inf, np.nan, 0.0):
        with pytest.raises(ValueError):
            l1_ball_rows(2, tau)


def test_mu_estimate_values(monkeypatch):
    ls = rank_deficient_ball_problem()
    assert mu_estimate(ls) == 1.0 / 30.0
    rng = np.random.Generator(np.random.Philox(25))
    X = rng.standard_normal((12, 3))
    logi = make_problem(X, np.where(rng.random(12) < 0.5, -1.0, 1.0),
                        task="logistic", constraint=L1Ball(tau=2.0))
    assert 0.0 < mu_estimate(logi) <= 0.25 / 12
    reg = make_problem(X, rng.standard_normal(12),
                       regularizer=L1Regularizer(lam=0.1))
    with pytest.raises(ValueError):
        mu_estimate(reg)
    # a least-squares box needs no margin bound, so its X is never densified
    box = make_problem(X, rng.standard_normal(12), constraint=Box(-np.ones(3), np.ones(3)))

    def no_toarray(self):
        raise AssertionError("X was densified")

    monkeypatch.setattr(SparseDesignMatrix, "toarray", no_toarray)
    assert mu_estimate(box) == 1.0 / 12


def test_reference_solution_certifies_and_invariants_agree():
    prob = rank_deficient_ball_problem()
    facts = reference_solution(prob, seed=0)
    assert facts.certified
    assert facts.tolerance_achieved <= 1e-12
    # (X w*, q' w*) invariant across all starts, here and under a different
    # draw of random starting points
    other = reference_solution(prob, seed=1)
    assert np.linalg.norm(other.r_star - facts.r_star) <= 1e-6
    linear = [float(prob.q @ w) for w in facts.reference_solutions + other.reference_solutions]
    assert max(linear) - min(linear) <= 1e-6
    assert other.f_star == pytest.approx(facts.f_star, abs=1e-12)
    for w in facts.reference_solutions:
        assert np.abs(w).sum() <= 4.0 + 1e-9
        assert np.linalg.norm(prob.matrix.matvec(w) - facts.r_star) <= 1e-6


def duplicated_column_problem():
    """X = [a, a, b] under lam = 0.05 with q = (0.1, 0, 0): the optimum is a segment.

    Along it w1 and w2 trade off, so q' w and lam ||w||_1 vary while their
    sum stays constant.
    """
    rng = np.random.Generator(np.random.Philox(3))
    a, b = rng.standard_normal((2, 20))
    X = np.column_stack([a, a, b])
    y = X @ np.array([1.0, 0.5, -1.0]) + 0.1 * rng.standard_normal(20)
    return make_problem(X, y, q=np.array([0.1, 0.0, 0.0]),
                        regularizer=L1Regularizer(lam=0.05))


def test_reference_solution_compares_the_invariant_sum_across_starts():
    prob = duplicated_column_problem()
    facts = reference_solution(prob)
    assert facts.certified
    linear = [float(prob.q @ w) for w in facts.reference_solutions]
    penalty = [prob.side.penalty(w) for w in facts.reference_solutions]
    assert max(linear) - min(linear) > 1e-3  # each part differs between the finals
    assert max(penalty) - min(penalty) > 1e-3
    sums = [s + p for s, p in zip(linear, penalty)]
    assert max(sums) - min(sums) <= 1e-12
    assert eval_objective(prob, facts.reference_solutions[0]) == pytest.approx(
        facts.f_star, abs=1e-12)


def test_ssc_probe_handles_a_regularized_problem_with_q():
    # the optimal set is a segment along which q' w and lam ||w||_1 trade off;
    # the face of -g* (w1 <= 0 <= w2, w3 <= 0 here) holds all of it
    prob = duplicated_column_problem()
    probe = ssc_probe(prob, reference_solution(prob), probes=100, seed=0)
    assert probe.beta_empirical > 0.0
    assert probe.ratios_used + probe.on_set == 100


def test_bounded_gap_dominates_sampled_gaps():
    prob = rank_deficient_ball_problem()
    facts = reference_solution(prob)
    g = float(np.linalg.norm(problems._coef_and_grad(prob, facts.r_star)[1]))
    M = bounded_gap_M(prob, g, np.linalg.norm(prob.matrix.toarray(), 2) ** 2 / prob.n)
    rng = np.random.Generator(np.random.Philox(26))
    for _ in range(300):
        w = rng.standard_normal(prob.d) * 3.0
        w = project_l1_ball(w, 4.0)
        assert eval_objective(prob, w) - facts.f_star <= M
    reg = make_problem(np.eye(3), np.zeros(3),
                       regularizer=L1Regularizer(lam=0.1))
    with pytest.raises(ValueError, match="positive finite feasible diameter, not inf"):
        bounded_gap_M(reg, 0.0, 1.0)


def test_ssc_probe_positive_on_rank_deficient_instance():
    prob = rank_deficient_ball_problem()
    facts = reference_solution(prob)
    probe = ssc_probe(prob, facts, probes=100, seed=0)
    assert probe.beta_empirical > 0.0
    assert probe.ratios_used > 0
    assert probe.ratios_used + probe.on_set == 100  # no probe is skipped


@pytest.mark.parametrize("task", ["least_squares", "logistic"])
def test_ssc_probe_on_a_face_of_the_l1_ball(task):
    # the optimal set meets the ball only on a face, where alternating
    # projections crept: 20 probes took over 4 s; exact projections take ms
    matrix, y = gen_synthetic(SyntheticSpec(n=30, d=8, rank=4, task=task, seed=7))
    prob = ProblemSpec(matrix=matrix, loss=LossSpec(kind=task, labels=y),
                       constraint=L1Ball(tau=2.0))
    probe = ssc_probe(prob, reference_solution(prob), probes=200, seed=0)
    assert probe.beta_empirical > 0.0
    assert probe.ratios_used + probe.on_set == 200


def test_probe_on_a_full_column_rank_box_imports_no_scipy_optimize_or_linalg():
    # X has full column rank, so the optimal set is one point and no
    # least-distance program is solved; where the compiled library loads, the
    # products and the sigmoid need no scipy either, so no scipy module loads
    import subprocess
    import sys

    code = """if True:
        import sys
        import numpy as np
        from vrgrad import problems
        from vrgrad.certificates import box_rows, build_certificate
        from vrgrad.problems import Box, LossSpec, ProblemSpec, SparseDesignMatrix
        X = np.array([[1.0, 0], [0, 1.0], [2.0, 0], [0, 2.0], [1.0, 0], [0, 1.0]])
        box = Box(lower=np.full(2, -1.0), upper=np.full(2, 1.0))
        prob = ProblemSpec(matrix=SparseDesignMatrix.from_dense(X), constraint=box,
                           loss=LossSpec("least_squares", X @ np.array([0.3, -0.2])))
        report = build_certificate(prob, *box_rows(box.lower, box.upper), probe=True, probes=60)
        assert report.beta_empirical > 0.0
        print(getattr(problems._kernels().sigmoid, "__module__", None) == problems.__name__)
        print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
    """
    src = str(Path(certificates.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={"PYTHONPATH": src})
    compiled, modules = out.stdout.split("\n")[:2]
    assert "scipy.optimize" not in modules and "scipy.linalg" not in modules
    if compiled == "True":
        assert modules == "[]"


def strongly_convex_control(**side):
    """Least squares on a full-rank 40 x 4 design, and its modulus lam_min(X'X)/n."""
    rng = np.random.Generator(np.random.Philox(27))
    X = rng.standard_normal((40, 4)) + 0.5
    w = rng.standard_normal(4)
    y = X @ w + 0.1 * rng.standard_normal(40)
    return make_problem(X, y, **side), float(np.linalg.eigvalsh(X.T @ X)[0]) / 40.0


def test_ssc_probe_meets_strong_convexity_on_control():
    # full-rank control: f is mu-strongly convex with mu = lam_min(X'X)/n,
    # so the empirical worst ratio can only sit above that modulus
    box = Box(lower=np.full(4, -2.0), upper=np.full(4, 2.0))
    prob, mu_tilde = strongly_convex_control(constraint=box)
    facts = reference_solution(prob)
    probe = ssc_probe(prob, facts, probes=100, seed=0)
    assert probe.beta_empirical >= mu_tilde - 1e-6


@pytest.mark.parametrize("lam", [0.0, 0.01, 0.05, 0.5])
def test_regularized_ssc_probe_meets_strong_convexity_on_control(lam):
    # the optimal set is the single point w*: lam = 0 gives no face rows and
    # X alone pins it; every probe lies off it and is used
    prob, mu_tilde = strongly_convex_control(regularizer=L1Regularizer(lam=lam))
    probe = ssc_probe(prob, reference_solution(prob), probes=100, seed=0)
    assert probe.ratios_used == 100 and probe.on_set == 0
    assert probe.beta_empirical >= mu_tilde - 1e-6


def test_ssc_probe_accepts_an_unregularized_design_with_a_tiny_eigenvalue(monkeypatch):
    # 4 x 4 Gaussian X and y from Philox(583), lam = 0: X'X/n has smallest
    # eigenvalue 7e-7.  AFG alone stops at a 1e-12 gradient mapping up to
    # 1e-12 / 7e-7 off the optimal set {X w = r*}, past the probe's 1e-9
    # check; the face polish's Newton step puts each final on the set.  The
    # instance came from a seeded search over 4 x 5, 4 x 4 and 7 x 5 designs.
    rng = np.random.Generator(np.random.Philox(583))
    prob = make_problem(rng.standard_normal((4, 4)), rng.standard_normal(4),
                        regularizer=L1Regularizer(0.0))
    probe = ssc_probe(prob, reference_solution(prob), probes=40, seed=0)
    assert probe.beta_empirical > 0.0 and probe.ratios_used == 40

    monkeypatch.setattr(certificates, "_face_polish", lambda *args: (None, 0))  # plain AFG
    facts = reference_solution(prob)
    assert facts.certified
    with pytest.raises(CertificateError, match="off the optimal set"):
        ssc_probe(prob, facts, probes=40, seed=0)


def test_ssc_probe_requires_certified_facts():
    prob = rank_deficient_ball_problem()
    facts = reference_solution(prob)
    broken = dataclasses.replace(facts, certified=False)
    with pytest.raises(CertificateError):
        ssc_probe(prob, broken, probes=10)


def test_variance_reduced_direction_moments():
    # on an l1 ball at random points, and under an l1 penalty at the optimum and
    # near it, where the bound holds only with the penalty in the objective
    ball = rank_deficient_ball_problem()
    rng = np.random.Generator(np.random.Philox(28))
    penalized = random_least_squares(60, 8, 3, regularizer=L1Regularizer(0.5))
    facts = reference_solution(penalized)
    w_star = min(facts.reference_solutions, key=lambda w: eval_objective(penalized, w))
    cases = [(ball, project_l1_ball(rng.standard_normal(ball.d), 4.0),
              project_l1_ball(rng.standard_normal(ball.d), 4.0)),
             (penalized, w_star, w_star), (penalized, w_star + 1e-3, w_star - 1e-3)]
    for prob, w, snap in cases:
        dist = build_distribution(PROPORTIONAL, compute_lipschitz_info(prob), seed=3)
        diag = variance_diagnostic(prob, dist, w, snap, reference_solution(prob).f_star)
        # unbiasedness, coordinatewise, within 5 standard errors
        assert np.all(np.abs(diag.mean_grad - diag.full_grad)
                      <= 5.0 * diag.mean_se + 1e-12)
        # the exact second moment honors the theoretical bound outright,
        # and the Monte-Carlo estimate within sampling slack
        assert 0.0 <= diag.variance_exact <= diag.bound * (1.0 + 1e-12)
        assert diag.variance_mc <= diag.bound + 3.0 * diag.variance_se
        assert abs(diag.variance_mc - diag.variance_exact) <= 5.0 * diag.variance_se


def test_certificate_pipeline_contractive_on_designed_instance():
    prob = stacked_identity_problem()
    C, b = box_rows(prob.constraint.lower, prob.constraint.upper)
    report = build_certificate(prob, C, b, probe=True, probes=60)
    assert report.theta_bound == pytest.approx(1.0, rel=1e-9)
    assert report.mu == np.nextafter(1.0 / 6.0, 0.0)  # a lower bound, rounded down
    assert report.contractive and report.rho < 1.0
    assert report.reference_certified
    assert report.beta_empirical is not None and report.beta_empirical > 0.0
    assert report.beta > 0.0
    # the empirical modulus can only beat the certified lower bound
    assert report.beta_empirical >= report.beta - 1e-12
    assert set(report.to_dict()) >= {"l_p", "theta_bound", "mu", "beta", "rho", "f_star"}


def test_certificate_rate_consistent_with_rate_formula():
    prob = stacked_identity_problem()
    C, b = box_rows(prob.constraint.lower, prob.constraint.upper)
    report = build_certificate(prob, C, b)
    res = theoretical_rate(report.eta, report.m, report.l_p, report.beta)
    assert res.rho == pytest.approx(report.rho, rel=1e-12)


def test_certificate_global_constant_is_the_dense_top_singular_value():
    # L = sigma_max(X)^2 / n (over 4 for logistic) from one SVD, rounded up by one
    # ulp, never above the row average
    for k, (n, d) in enumerate([(4, 2), (7, 3), (10, 3), (12, 2)]):
        box = Box(lower=np.full(d, -1.0), upper=np.full(d, 0.5))
        for make in (random_least_squares, random_logistic):
            prob = make(n, d, seed=40 + k, constraint=box)
            C, b = box_rows(box.lower, box.upper)
            report = build_certificate(prob, C, b, seed=k)
            X = prob.matrix.toarray()
            scale = LOSSES[prob.loss.kind].lipschitz_scale
            L = scale * np.linalg.svd(X, compute_uv=False)[0] ** 2 / n
            assert report.l_global == np.nextafter(L, np.inf)
            assert report.l_global <= report.l_avg * (1.0 + 1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_certificate_is_exact_on_the_stacked_identity_design(seed):
    # X = [I6; 2 I6] over the box [-1, 1]^6 with f* = 0: X'X = 5 I, so L = 5/12;
    # theta = 1, mu = 1/12, g = 0, M = (L/2) R^2 = 5 and beta = 1/(1/mu + M)
    d = 6
    X = np.vstack([np.eye(d), 2.0 * np.eye(d)])
    n = X.shape[0]
    w = np.random.Generator(np.random.Philox(seed)).uniform(-0.5, 0.5, d)
    lower, upper = -np.ones(d), np.ones(d)
    prob = make_problem(X, X @ w, constraint=Box(lower=lower, upper=upper))
    report = build_certificate(prob, *box_rows(lower, upper), seed=seed)

    L = np.linalg.norm(X, 2) ** 2 / n
    R = float(np.linalg.norm(upper - lower))
    M = 0.5 * L * R * R
    mu = 1.0 / n
    beta = 1.0 / (1.0 / mu + M)
    l_p = float(np.mean(np.sum(X * X, axis=1)))
    best = None
    for frac, m in itertools.product((0.02, 0.05, 0.1, 0.2), (10, 100, 1000, 10 ** 4, 10 ** 5,
                                                              10 ** 6, 10 ** 7)):
        eta = frac / l_p
        x = 4.0 * l_p * eta
        rho = x * (m + 1.0) / ((1.0 - x) * m) + 1.0 / (beta * eta * (1.0 - x) * m)
        if best is None or rho < best[1]:
            best = (m, rho)
    assert report.l_global.hex() == np.nextafter(L, np.inf).hex()  # rounded up
    assert report.gap_bound == pytest.approx(M, rel=1e-14)
    assert report.beta == pytest.approx(beta, rel=1e-14)
    assert report.rho == pytest.approx(best[1], rel=1e-14)
    assert report.m == best[0]


@pytest.mark.parametrize("fn, keyword", [
    ("solvers.SolverConfig", "strict_feasibility"), ("solvers.SolverConfig", "divergence_factor"),
    ("solvers.run_afg", "max_halvings"), ("solvers.run_afg", "grad_mapping_tol"),
    ("solvers.run_afg", "record_every"),
    ("certificates.reference_solution", "max_iterations"),
    ("certificates.reference_solution", "starts"), ("certificates.reference_solution", "tol"),
    ("certificates.build_certificate", "reference_tol"),
    ("problems.compute_lipschitz_info", "power_iterations"),
    ("problems.compute_lipschitz_info", "tol"),
    ("certificates.hoffman_theta_bound", "rank_tol"),
    ("certificates.hoffman_theta_bound", "max_columns"),
    ("certificates.hoffman_theta_bound", "max_subsets"),
    ("certificates.bounded_gap_M", "radius"),
    ("certificates.mu_estimate", "facts"), ("certificates.mu_estimate", "grid"),
    ("certificates.ssc_probe", "max_sweeps"), ("certificates.ssc_probe", "move_tol"),
    ("certificates.ssc_probe", "tol"),
    ("certificates.variance_diagnostic", "draws"),
    ("cli.cmd_solve", "seed"),
])
def test_fixed_values_are_not_keywords(fn, keyword):
    # each of these had one value in use; it is a module constant now
    import vrgrad.cli

    module, name = fn.split(".")
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{keyword}'"):
        getattr(getattr(vrgrad, module), name)(**{keyword: None})
