"""Checks of vrgrad's outputs against the benchmark's own computations.

Each check raises CheckFailure with a message naming what disagreed.  They
take plain values (arrays, dicts, parsed CSV rows) so that tests can feed
them corrupted copies of correct outputs.
"""

from __future__ import annotations

import csv
import itertools
import math
import statistics

import numpy as np


class CheckFailure(AssertionError):
    pass


def f_tol(f_star):
    """Absolute tolerance on objective values near f*."""
    return 1e-9 * max(1.0, abs(f_star))


def read_trace_csv(path):
    """Rows of a trace CSV as dicts of floats; wall_ms is dropped."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise CheckFailure(f"{path}: no rows")
    out = {}
    for key in rows[0]:
        if key != "wall_ms":
            out[key] = np.array([float(r[key]) for r in rows])
    return out


def check_f_star(reported, own):
    if not abs(reported - own) <= f_tol(own):
        raise CheckFailure(f"reference f* {reported!r} differs from independent f* {own!r}")


def check_objective_floor(objectives, own_f_star):
    low = np.asarray(objectives) < own_f_star - f_tol(own_f_star)
    if np.any(low):
        k = int(np.argmax(low))
        raise CheckFailure(f"objective {objectives[k]!r} at row {k} is below f* {own_f_star!r}")


def check_final_gap(gaps, target):
    if not gaps[-1] <= target:
        raise CheckFailure(f"final gap {gaps[-1]:.3e} misses the target {target:.0e}")


def check_gap_ratios(gaps, f_star):
    """Median of gap[k+1]/gap[k] is below 1, over rows whose gap is above float noise."""
    floor = 1e-13 * max(1.0, abs(f_star))
    ratios = [b / a for a, b in zip(gaps[:-1], gaps[1:]) if a > floor]
    if not ratios:
        raise CheckFailure("no gap above float noise to measure a ratio")
    med = statistics.median(ratios)
    if not med < 1.0:
        raise CheckFailure(f"median per-epoch gap ratio {med:.4f} is not below 1")


def expected_grad_evals(algorithm, rows, n, m):
    """Gradient evaluations recorded per trace row, by the documented accounting."""
    k = np.arange(1, rows + 1)
    if algorithm in ("vrpsg", "prox_svrg"):
        return k * (n + 2 * m)
    if algorithm == "vrpsg2":
        return np.concatenate([[n], n + k[:-1] * (n + 2 * m)])
    if algorithm == "sgd":
        return k * n
    raise ValueError(f"no grad_evals accounting for {algorithm!r}")


def check_grad_evals(algorithm, grad_evals, n, m):
    want = expected_grad_evals(algorithm, len(grad_evals), n, m)
    bad = np.nonzero(np.asarray(grad_evals) != want)[0]
    if bad.size:
        k = int(bad[0])
        raise CheckFailure(f"{algorithm} grad_evals row {k} is {grad_evals[k]:.0f}, "
                           f"expected {want[k]}")


def check_feasible(w, side):
    viol = side.violation(np.asarray(w))
    if not viol <= 1e-9:
        raise CheckFailure(f"final iterate lies {viol:.3e} outside the feasible set")


def check_objective_recomputed(w, objective, traced):
    own = objective.value(np.asarray(w))
    if not abs(own - traced) <= f_tol(own):
        raise CheckFailure(f"traced final objective {traced!r} but numpy gives {own!r}")


def check_traces_agree(a, b):
    """Two traces (dicts of columns, wall_ms already dropped) are identical."""
    if sorted(a) != sorted(b):
        raise CheckFailure(f"trace columns differ: {sorted(a)} vs {sorted(b)}")
    for key in a:
        if a[key].shape != b[key].shape or not np.array_equal(a[key], b[key], equal_nan=True):
            raise CheckFailure(f"traces disagree in column {key}")


def check_aggregate(aggregate_rows, cells):
    """aggregate_rows: dicts from aggregate_<ds>.csv; cells: {algorithm: [trace dict, ...]}."""
    seen = 0
    for row in aggregate_rows:
        runs = cells[row["algorithm"]]
        epoch = float(row["epoch"])
        gaps = []
        for tr in runs:
            k = np.nonzero(tr["epoch"] == epoch)[0]
            gaps.append(float(tr["gap"][k[0]]))
        want = math.fsum(gaps) / len(gaps)
        got = float(row["mean_gap"])
        if not math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-300):
            raise CheckFailure(f"aggregate mean_gap {got!r} for {row['algorithm']} epoch "
                               f"{row['epoch']} but the cells average {want!r}")
        seen += 1
    want_rows = sum(min(len(tr["epoch"]) for tr in runs) for runs in cells.values())
    if seen != want_rows:
        raise CheckFailure(f"aggregate has {seen} rows, the cells give {want_rows}")


def hoffman_subsets(total_columns, d):
    return sum(math.comb(total_columns, k) for k in range(1, min(d, total_columns) + 1))


def certificate_expectations(X, lower, upper, eta_fractions, m_values):
    """Closed forms for a least-squares box instance whose X = [I; 2I] and f* = 0."""
    n, d = X.shape
    L = np.linalg.norm(X, 2) ** 2 / n
    R = float(np.linalg.norm(upper - lower))
    mu = 1.0 / n
    theta = 1.0
    M = 0.5 * L * R * R
    beta = 1.0 / (theta ** 2 * (1.0 / mu + M))
    l_p = float(np.mean(np.sum(X * X, axis=1)))  # proportional sampling: the row average
    best = None
    for frac, m in itertools.product(eta_fractions, m_values):
        eta = frac / l_p
        x = 4.0 * l_p * eta
        rho = x * (m + 1.0) / ((1.0 - x) * m) + 1.0 / (beta * eta * (1.0 - x) * m)
        if best is None or rho < best[2]:
            best = (eta, m, rho)
    return {"theta_bound": theta, "mu": mu, "f_star": 0.0, "gap_bound": M,
            "beta": beta, "l_p": l_p, "eta": best[0], "m": best[1], "rho": best[2]}


def check_certificate(report, expect):
    for key in ("theta_bound", "mu", "gap_bound", "beta", "l_p", "eta", "rho"):
        if not math.isclose(report[key], expect[key], rel_tol=1e-6):
            raise CheckFailure(f"certificate {key} = {report[key]!r}, expected {expect[key]!r}")
    if not abs(report["f_star"]) <= 1e-12:
        raise CheckFailure(f"certificate f_star = {report['f_star']!r}, expected 0")
    if report["m"] != expect["m"]:
        raise CheckFailure(f"certificate m = {report['m']}, expected {expect['m']}")
    if report["contractive"] is not True:
        raise CheckFailure("certificate is not contractive")
    emp = report.get("beta_empirical")
    if emp is None or not emp >= report["beta"]:
        raise CheckFailure(f"beta_empirical {emp!r} undercuts beta {report['beta']!r}")
