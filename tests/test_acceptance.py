"""Acceptance battery: ten end-to-end checks with one printed verdict each.

Each test prints `criterion NN: PASS/FAIL - measured values` (visible under
pytest -s; the -v test names carry the same numbering) and then asserts.
Instances, step sizes, and budgets follow the benchmark protocol; the free
generator seeds were fixed once by a conditioning scan and are not tuned
per run.  Everything here is deterministic given the pinned seeds.
"""

import numpy as np
import pytest

from vrgrad.certificates import (
    beta_from_constants,
    bounded_gap_M,
    box_rows,
    hoffman_theta_bound,
    mu_estimate,
    rate_grid_search,
    reference_solution,
    ssc_probe,
    theoretical_rate,
    variance_diagnostic,
)
from vrgrad.cli import cmd_solve
from vrgrad.data import SyntheticSpec, gen_synthetic
from vrgrad.geometry import project_l1_ball
from vrgrad.problems import (
    Box,
    L1Ball,
    L1Regularizer,
    LossSpec,
    ProblemSpec,
    aggregate_lipschitz,
    compute_lipschitz_info,
)
from vrgrad.sampling import PROPORTIONAL, UNIFORM, build_distribution
from vrgrad.solvers import (
    SolverConfig,
    run_hybrid_vrpsg2,
    run_projected_sgd,
    run_prox_svrg,
    run_vrpsg,
)

from conftest import make_problem
from test_geometry import l1_project_bisection, random_case


def report(num, ok, detail):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def contraction_ratios(gaps, first=5, last=40):
    """Per-epoch gap ratios over the epoch window [first, last].

    gaps[i] is the gap after epoch i+1.  A gap that has already collapsed
    to zero contributes a 0 ratio (it contracted to the floor) and stops
    contributing afterwards.
    """
    out = []
    for e in range(first + 1, last + 1):
        prev, cur = gaps[e - 2], gaps[e - 1]
        if prev <= 0.0:
            continue
        out.append(max(cur, 0.0) / prev)
    return out


def synthetic_problem(seed, noise_std, spread, constraint=None, regularizer=None):
    spec = SyntheticSpec(n=200, d=50, rank=20, task="least_squares",
                         noise_std=noise_std, row_scale_spread=spread,
                         seed=seed)
    matrix, y = gen_synthetic(spec)
    return ProblemSpec(matrix=matrix,
                       loss=LossSpec(kind="least_squares", labels=y),
                       constraint=constraint, regularizer=regularizer)


@pytest.fixture(scope="module")
def primary():
    """Rank-deficient l1-ball instance shared by the budget comparisons."""
    prob = synthetic_problem(seed=34, noise_std=0.25, spread=3.0,
                             constraint=L1Ball(tau=10.0))
    facts = reference_solution(prob, tol=1e-12)
    assert facts.certified
    info = compute_lipschitz_info(prob)
    l_p = aggregate_lipschitz(info, build_distribution(PROPORTIONAL, info, seed=0))
    return prob, facts, info, l_p


def test_criterion_01_rate_formula_anchor():
    # eta = 0.1/L_P with m = 100 L_P/beta, in units where L_P = beta = 1
    rho = theoretical_rate(eta=0.1, m=100, l_p=1.0, beta=1.0).rho
    ok = abs(rho - 0.84) <= 1e-12 and abs(rho - 5.0 / 6.0) <= 0.01 * (5.0 / 6.0)
    report(1, ok, f"rho(m=100) = {rho:.10f}, vs 5/6 = {5/6:.10f} "
                  f"({abs(rho - 5/6) / (5/6) * 100:.2f}% off)")


def test_criterion_02_sampling_constant_identities(primary):
    _, _, info, _ = primary
    lu = aggregate_lipschitz(info, np.full(200, 1.0 / 200.0))
    lp = aggregate_lipschitz(info, info.per_component / info.per_component.sum())
    ok_u = lu == pytest.approx(info.max_component, rel=1e-14)
    ok_p = lp == pytest.approx(info.avg, rel=1e-14)
    report(2, ok_u and ok_p,
           f"uniform L_P = {lu:.12g} (L_max {info.max_component:.12g}), "
           f"proportional L_P = {lp:.12g} (L_avg {info.avg:.12g})")


def test_criterion_03_linear_convergence_without_strong_convexity(primary):
    prob, facts, info, l_p = primary
    ratios = []
    finals = []
    for seed in range(10):
        cfg = SolverConfig(epochs=60, step_size=0.1 / l_p, inner_iterations=200,
                           sampling_mode=PROPORTIONAL, seed=seed,
                           average_epoch_output=False)
        trace = run_vrpsg(prob, cfg, f_star=facts.f_star, info=info)
        ratios.extend(contraction_ratios(trace.gap))
        finals.append(trace.gap[-1])
    med = float(np.median(ratios))
    worst = float(max(finals))
    ok = med <= 0.9 and worst <= 1e-10
    report(3, ok, f"median per-epoch contraction {med:.3f} (<= 0.9), "
                  f"worst final gap over 10 seeds {worst:.3e} (<= 1e-10)")


def test_criterion_04_fixed_budget_comparison(primary):
    prob, facts, info, l_p = primary
    budget = 30 * prob.n

    vr_cfg = SolverConfig(epochs=5, step_size=0.24 / l_p, inner_iterations=500,
                          sampling_mode=PROPORTIONAL, seed=0,
                          average_epoch_output=False)
    vr = run_vrpsg(prob, vr_cfg, f_star=facts.f_star, info=info)
    assert vr.grad_evals[-1] <= budget

    sgd_best = np.inf
    for eta0 in (5.0, 1.0, 0.2, 0.04):
        cfg = SolverConfig(epochs=30, step_size=1.0, sgd_initial_step=eta0, seed=0)
        tr = run_projected_sgd(prob, cfg, f_star=facts.f_star)
        assert tr.grad_evals[-1] <= budget
        sgd_best = min(sgd_best, tr.gap[-1])

    hy_cfg = SolverConfig(epochs=5, step_size=0.24 / l_p, inner_iterations=480,
                          sampling_mode=PROPORTIONAL, seed=0,
                          sgd_initial_step=1.0, average_epoch_output=False)
    hy = run_hybrid_vrpsg2(prob, hy_cfg, f_star=facts.f_star, info=info)
    assert hy.grad_evals[-1] <= budget

    ok = vr.gap[-1] <= 1e-8 and sgd_best >= 1e-4 and hy.gap[-1] <= 3.0 * vr.gap[-1]
    report(4, ok, f"30-pass gaps: variance-reduced {vr.gap[-1]:.3e} (<= 1e-8), "
                  f"best SGD {sgd_best:.3e} (>= 1e-4), "
                  f"hybrid {hy.gap[-1]:.3e} (<= 3x)")


def test_criterion_05_sampling_mode_separation():
    prob = synthetic_problem(seed=0, noise_std=0.25, spread=10.0,
                             constraint=L1Ball(tau=10.0))
    facts = reference_solution(prob, tol=1e-12)
    assert facts.certified
    info = compute_lipschitz_info(prob)
    gaps = {}
    for mode in (UNIFORM, PROPORTIONAL):
        l_p = aggregate_lipschitz(info, build_distribution(mode, info, seed=0))
        per_seed = []
        for seed in range(10):
            cfg = SolverConfig(epochs=6, step_size=0.1 / l_p,
                               inner_iterations=200, sampling_mode=mode,
                               seed=seed, average_epoch_output=False)
            tr = run_vrpsg(prob, cfg, f_star=facts.f_star, info=info)
            assert tr.grad_evals[-1] <= 20 * prob.n
            per_seed.append(tr.gap[-1])
        gaps[mode] = np.array(per_seed)
    ratios = gaps[UNIFORM] / gaps[PROPORTIONAL]
    wins = int(np.sum(ratios >= 10.0))
    ok = wins >= 8
    report(5, ok, f"non-uniform beats uniform 10x on {wins}/10 seeds "
                  f"(ratio range {ratios.min():.1f}..{ratios.max():.1f})")


def test_criterion_06_regularized_linear_convergence():
    prob = synthetic_problem(seed=6, noise_std=0.0, spread=3.0,
                             regularizer=L1Regularizer(lam=1e-3))
    facts = reference_solution(prob, tol=1e-12)
    assert facts.certified
    info = compute_lipschitz_info(prob)
    l_p = aggregate_lipschitz(info, build_distribution(PROPORTIONAL, info, seed=0))
    cfg = SolverConfig(epochs=60, step_size=0.1 / l_p, inner_iterations=8000,
                       sampling_mode=PROPORTIONAL, seed=0,
                       average_epoch_output=False)
    trace = run_prox_svrg(prob, cfg, f_star=facts.f_star, info=info)
    med = float(np.median(contraction_ratios(trace.gap)))
    ok = med <= 0.9 and trace.gap[-1] <= 1e-10
    report(6, ok, f"proximal run: median contraction {med:.3f} (<= 0.9), "
                  f"final gap {trace.gap[-1]:.3e} (<= 1e-10)")


def test_criterion_07_supporting_diagnostics_battery():
    rng = np.random.Generator(np.random.Philox(70))
    spec = SyntheticSpec(n=30, d=8, rank=4, noise_std=0.2,
                         row_scale_spread=2.0, seed=17)
    matrix, y = gen_synthetic(spec)
    prob = ProblemSpec(matrix=matrix,
                       loss=LossSpec(kind="least_squares", labels=y),
                       constraint=L1Ball(tau=4.0))
    info = compute_lipschitz_info(prob)

    # (a) aggregate-constant ordering: any p pays at least the average
    ordering = all(
        aggregate_lipschitz(info, (p := rng.random(30) + 1e-3) / p.sum())
        >= info.avg * (1.0 - 1e-12)
        for _ in range(100)
    )

    # (b) semi-strong convexity over 50 probe points
    facts = reference_solution(prob, tol=1e-12)
    probe = ssc_probe(prob, facts, probes=50, seed=0)
    ssc_ok = probe.beta_empirical > 0.0

    # (c) optimal-set invariants agree across starts
    uniq = facts.certified
    for w in facts.reference_solutions:
        uniq &= bool(np.linalg.norm(prob.matrix.matvec(w) - facts.r_star) <= 1e-6)

    # (d) variance-reduced direction: unbiased mean, bounded second moment
    dist = build_distribution(PROPORTIONAL, info, seed=3)
    w = project_l1_ball(rng.standard_normal(8), 4.0)
    snap = project_l1_ball(rng.standard_normal(8), 4.0)
    diag = variance_diagnostic(prob, dist, w, snap, facts.f_star)
    unbiased = bool(np.all(np.abs(diag.mean_grad - diag.full_grad)
                           <= 5.0 * diag.mean_se + 1e-12))
    var_ok = diag.variance_mc <= diag.bound + 3.0 * diag.variance_se

    ok = ordering and ssc_ok and uniq and unbiased and var_ok
    report(7, ok, f"ordering {ordering}, ssc beta_emp {probe.beta_empirical:.3g}, "
                  f"invariants {uniq}, unbiased {unbiased}, "
                  f"variance {diag.variance_mc:.3g} <= bound {diag.bound:.3g}")


def test_criterion_08_certificate_composition():
    X = np.array([[1.0, 0], [0, 1.0], [2.0, 0], [0, 2.0], [1.0, 0], [0, 1.0]])
    w = np.array([0.3, -0.2])
    box = Box(lower=np.full(2, -1.0), upper=np.full(2, 1.0))
    prob = make_problem(X, X @ w, constraint=box)

    facts = reference_solution(prob, tol=1e-12)
    C, b = box_rows(box.lower, box.upper)
    theta = hoffman_theta_bound(C, b, prob.matrix)
    mu = mu_estimate(prob)
    M = bounded_gap_M(prob, facts)
    g = float(np.linalg.norm(
        prob.matrix.rmatvec(facts.grad_h_at_r_star) + prob.q))
    beta = beta_from_constants(theta, mu.value, M, g)
    info = compute_lipschitz_info(prob)
    l_p = aggregate_lipschitz(info, build_distribution(PROPORTIONAL, info, seed=0))
    eta, m, rate = rate_grid_search(l_p, beta)

    probe = ssc_probe(prob, facts, probes=100, seed=0)

    # strongly convex control: the empirical modulus must clear lam_min/n
    rng = np.random.Generator(np.random.Philox(80))
    Xc = rng.standard_normal((40, 4)) + 0.5
    yc = Xc @ rng.standard_normal(4) + 0.1 * rng.standard_normal(40)
    control = make_problem(Xc, yc, constraint=Box(lower=np.full(4, -2.0),
                                                  upper=np.full(4, 2.0)))
    cfacts = reference_solution(control, tol=1e-12)
    cprobe = ssc_probe(control, cfacts, probes=100, seed=0)
    mu_tilde = float(np.linalg.eigvalsh(Xc.T @ Xc)[0]) / 40.0

    ok = (rate.contractive and probe.beta_empirical > 0.0
          and cprobe.beta_empirical >= mu_tilde - 1e-6)
    report(8, ok, f"certified rho = {rate.rho:.4g} at (eta={eta:.3g}, m={m}); "
                  f"beta_emp {probe.beta_empirical:.3g} > 0; control "
                  f"{cprobe.beta_empirical:.3g} >= mu~ {mu_tilde:.3g}")


def test_criterion_09_projection_oracle_agreement():
    rng = np.random.Generator(np.random.Philox(7))
    worst = 0.0
    for j in range(1000):
        v, tau = random_case(rng, j)
        err = float(np.max(np.abs(project_l1_ball(v, tau)
                                  - l1_project_bisection(v, tau))))
        worst = max(worst, err / max(1.0, tau))
    ok = worst <= 1e-10
    report(9, ok, f"1000 cases incl. ties, worst deviation {worst:.2e} (<= 1e-10)")


def test_criterion_10_trace_determinism(tmp_path):
    cfg = {
        "dataset": {"kind": "synthetic", "n": 40, "d": 10, "rank": 5,
                    "task": "least_squares", "noise_std": 0.2,
                    "row_scale_spread": 2.0, "seed": 3},
        "problem": {"constraint": {"type": "l1_ball", "tau": 4.0}},
        "algorithm": "vrpsg", "epochs": 5, "eta": 0.1, "m": 30,
        "sampling": "proportional",
        "reference": {"compute": False}, "seed": 7,
    }
    stripped = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert cmd_solve(dict(cfg), str(out)) == 0
        lines = (out / "trace.csv").read_text().splitlines()
        cols = lines[0].split(",")
        drop = cols.index("wall_ms")
        stripped.append("\n".join(
            ",".join(c for i, c in enumerate(line.split(",")) if i != drop)
            for line in lines))
    ok = stripped[0] == stripped[1]
    report(10, ok, f"repeated seeded solve: {len(stripped[0])} bytes identical "
                   f"excluding wall_ms")
