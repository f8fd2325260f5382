"""Each output check accepts a correct vrgrad output and rejects a corrupted copy.

    python3 -m pytest benchmark -q
"""

import csv
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import reference as ref  # noqa: E402
from vrgrad import certificates, cli, problems, sampling, solvers  # noqa: E402

SPEC = {"kind": "synthetic", "n": 60, "d": 12, "rank": 5, "task": "least_squares",
        "noise_std": 0.2, "row_scale_spread": 2.0, "seed": 3}
TAU = 4.0
SOLVE = {"dataset": SPEC, "problem": {"constraint": {"type": "l1_ball", "tau": TAU}},
         "algorithm": "vrpsg", "epochs": 12, "eta": 0.2, "m": 60, "sampling": "proportional",
         "average_epoch_output": False, "seed": 1}


def own_objective():
    X, y = ref.synthetic_recipe(SPEC)
    return ref.Objective(X, y, ref.LEAST_SQUARES, ref.Side("l1_ball", tau=TAU))


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    out = tmp_path_factory.mktemp("solve")
    assert cli.cmd_solve(json.loads(json.dumps(SOLVE)), str(out)) == 0
    obj = own_objective()
    f_star, _ = ref.optimal_value(obj)
    manifest = json.loads((out / "manifest.json").read_text())
    return out, obj, f_star, manifest, checks.read_trace_csv(out / "trace.csv")


def test_bisection_projection_matches_sorting():
    rng = np.random.default_rng(0)
    for _ in range(100):
        v = rng.standard_normal(30) * 3 * rng.random()
        tau = 0.05 + 4 * rng.random()
        got = ref.project_l1_ball(v, tau)
        u = np.sort(np.abs(v))[::-1]
        c = np.cumsum(u) - tau
        k = np.nonzero(u > c / np.arange(1, v.size + 1))[0][-1]
        want = np.sign(v) * np.maximum(np.abs(v) - c[k] / (k + 1), 0) if c[-1] > 0 else v
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_f_star_check_rejects_a_shifted_f_star(solved):
    _, _, f_star, manifest, rows = solved
    checks.check_f_star(manifest["reference"]["f_star"], f_star)
    checks.check_objective_floor(rows["objective"], f_star)
    with pytest.raises(checks.CheckFailure):
        checks.check_f_star(manifest["reference"]["f_star"] + 1e-6, f_star)
    shifted = f_star + (rows["objective"][-1] - f_star) + 1e-6
    with pytest.raises(checks.CheckFailure):
        checks.check_objective_floor(rows["objective"], shifted)


def test_gap_checks(solved):
    _, _, f_star, _, rows = solved
    checks.check_final_gap(rows["gap"], 1e-3)
    checks.check_gap_ratios(rows["gap"], f_star)
    with pytest.raises(checks.CheckFailure):
        checks.check_final_gap(rows["gap"], rows["gap"][-1] / 2)
    with pytest.raises(checks.CheckFailure):
        checks.check_gap_ratios(rows["gap"][::-1], f_star)


def test_grad_evals_check_rejects_a_wrong_row(solved):
    _, _, _, _, rows = solved
    checks.check_grad_evals("vrpsg", rows["grad_evals"], 60, 60)
    bad = rows["grad_evals"].copy()
    bad[2] += 2
    with pytest.raises(checks.CheckFailure, match="row 2"):
        checks.check_grad_evals("vrpsg", bad, 60, 60)
    checks.check_grad_evals("sgd", [60, 120, 180], 60, 60)
    with pytest.raises(checks.CheckFailure):
        checks.check_grad_evals("sgd", [60, 121, 180], 60, 60)


def test_vrpsg2_accounting_matches_the_solver(solved):
    problem = cli.build_problem(json.loads(json.dumps(SOLVE)))
    trace = solvers.run_hybrid_vrpsg2(problem, solvers.SolverConfig(
        epochs=3, step_size=0.01, inner_iterations=25))
    checks.check_grad_evals("vrpsg2", trace.grad_evals, 60, 25)
    with pytest.raises(checks.CheckFailure, match="row 0"):
        checks.check_grad_evals("vrpsg2", trace.grad_evals + 60, 60, 25)


def test_iterate_checks_reject_an_infeasible_iterate(solved):
    _, obj, _, _, _ = solved
    problem = cli.build_problem(json.loads(json.dumps(SOLVE)))
    cfg = solvers.SolverConfig(epochs=4, step_size=0.02, inner_iterations=60, seed=1)
    trace = solvers.run_vrpsg(problem, cfg)
    w = trace.final_iterate
    checks.check_feasible(w, obj.side)
    checks.check_objective_recomputed(w, obj, float(trace.objective[-1]))
    outside = w * (1.01 * TAU / np.abs(w).sum())
    with pytest.raises(checks.CheckFailure):
        checks.check_feasible(outside, obj.side)
    with pytest.raises(checks.CheckFailure):
        checks.check_objective_recomputed(outside, obj, float(trace.objective[-1]))
    box = ref.Side("box", lower=-np.ones(3), upper=np.ones(3))
    checks.check_feasible(np.array([1.0, -1.0, 0.0]), box)
    with pytest.raises(checks.CheckFailure):
        checks.check_feasible(np.array([1.0, -1.5, 0.0]), box)


def test_traces_agree_rejects_a_changed_objective(solved):
    _, _, _, manifest, rows = solved
    problem = cli.build_problem(json.loads(json.dumps(SOLVE)))
    info = problems.compute_lipschitz_info(problem)
    dist = sampling.build_distribution("proportional", info, seed=1)
    cfg = solvers.SolverConfig(epochs=12, step_size=0.2 / problems.aggregate_lipschitz(info, dist),
                               inner_iterations=60, seed=1, sampling_mode="proportional",
                               average_epoch_output=False)
    trace = solvers.run_vrpsg(problem, cfg, f_star=manifest["reference"]["f_star"], info=info)
    lib = {"epoch": trace.epoch.astype(float), "grad_evals": trace.grad_evals.astype(float),
           "objective": trace.objective, "gap": trace.gap}
    checks.check_traces_agree(rows, lib)
    lib["objective"] = lib["objective"].copy()
    lib["objective"][-1] = np.nextafter(lib["objective"][-1], 0.0)
    with pytest.raises(checks.CheckFailure, match="objective"):
        checks.check_traces_agree(rows, lib)


def test_aggregate_check_rejects_a_wrong_mean(tmp_path):
    grid = {"datasets": [{"name": "ds", "dataset": SPEC,
                          "problem": {"constraint": {"type": "l1_ball", "tau": TAU}}}],
            "algorithms": [{"name": "vrpsg", "algorithm": "vrpsg", "eta": 0.2}],
            "seeds": [0, 1], "epochs": 3}
    assert cli.cmd_bench(grid, str(tmp_path)) == 0
    cells = {"vrpsg": [checks.read_trace_csv(tmp_path / f"trace_ds_vrpsg_s{s}.csv")
                       for s in (0, 1)]}
    with open(tmp_path / "aggregate_ds.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    checks.check_aggregate(rows, cells)
    with pytest.raises(checks.CheckFailure, match="rows"):
        checks.check_aggregate(rows[:2], cells)
    rows[1]["mean_gap"] = repr(float(rows[1]["mean_gap"]) * (1 + 1e-9))
    with pytest.raises(checks.CheckFailure, match="epoch 2"):
        checks.check_aggregate(rows, cells)


def test_certificate_check_rejects_a_wrong_theta():
    d = 2
    X = np.vstack([np.eye(d), 2 * np.eye(d)])
    lower, upper = -np.ones(d), np.ones(d)
    problem = cli.build_problem({
        "dataset": {"kind": "inline", "X": X.tolist(), "y": (X @ [0.3, -0.2]).tolist()},
        "problem": {"constraint": {"type": "box", "lower": -1.0, "upper": 1.0}}})
    C, b = certificates.box_rows(lower, upper)
    fractions, ms = (0.05, 0.2), (10, 1000, 10 ** 5)
    report = certificates.build_certificate(problem, C, b, eta_fractions=fractions,
                                            m_values=ms, probe=True, probes=20).to_dict()
    expect = checks.certificate_expectations(X, lower, upper, fractions, ms)
    checks.check_certificate(report, expect)
    for key, value in (("theta_bound", 2.0), ("f_star", 1e-6), ("m", 10),
                       ("beta_empirical", report["beta"] / 2)):
        with pytest.raises(checks.CheckFailure):
            checks.check_certificate(dict(report, **{key: value}), expect)
