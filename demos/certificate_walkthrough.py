"""Build a rate certificate constant by constant, then test it empirically.

The certified contraction factor comes from a chain of desk-checkable
quantities: a Hoffman constant for the polyhedron (feasible set and
optimal-solution rows stacked together), a restricted curvature modulus
for the loss, a bound on the objective gap over the feasible set, and the
error-bound modulus beta assembled from those three.  Random instances
are honest here and usually fail: their Hoffman constants are enormous
and the certified beta is too small to certify contraction at any desk
step size.  A design with orthogonal repeated rows keeps every constant
tame, and the certificate goes through.

The last section runs the solver at the certified (eta, m) and compares
the realized per-epoch contraction against the certified factor rho.
"""

import argparse
import statistics

import numpy as np

from vrgrad import (
    Box,
    LossSpec,
    ProblemSpec,
    SolverConfig,
    SparseDesignMatrix,
    build_certificate,
    run_vrpsg,
    theoretical_rate,
)


def designed_instance():
    # identity rows at two scales: component curvatures differ but every
    # singular direction of X is covered, so the Hoffman constant is 1
    X = np.array([[1.0, 0], [0, 1.0], [2.0, 0], [0, 2.0],
                  [1.0, 0], [0, 1.0]])
    w_true = np.array([0.3, -0.2])
    box = Box(lower=np.full(2, -1.0), upper=np.full(2, 1.0))
    return ProblemSpec(matrix=SparseDesignMatrix.from_dense(X),
                       loss=LossSpec(kind="least_squares", labels=X @ w_true),
                       constraint=box)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probes", type=int, default=100,
                        help="random probe points for the empirical modulus")
    parser.add_argument("--epochs", type=int, default=12)
    args = parser.parse_args()

    problem = designed_instance()
    C, b = problem.constraint.rows(problem.d)
    report = build_certificate(problem, C, b, probe=True, probes=args.probes)

    print("certificate chain")
    print(f"  smoothness      L_P        = {report.l_p:.6g} "
          f"({report.sampling_mode} sampling)")
    print(f"  Hoffman bound   theta      = {report.theta_bound:.6g}")
    print(f"  curvature       mu         = {report.mu:.6g}"
          f"{' (exact for least squares)' if problem.loss.kind == 'least_squares' else ''}")
    print(f"  gap bound       M          = {report.gap_bound:.6g}")
    print(f"  gradient at opt |grad h|   = {report.grad_norm_at_opt:.6g}")
    print(f"  error bound     beta       = {report.beta:.6g}")
    if report.beta_empirical is not None:
        print(f"  probed modulus  beta_emp   = {report.beta_empirical:.6g} "
              f"(must not undercut beta)")
    print(f"  best grid point (eta, m)   = ({report.eta:.6g}, {report.m})")
    print(f"  certified factor rho       = {report.rho:.6g} "
          f"-> contractive: {report.contractive}")

    if not report.contractive:
        print("\nno contractive grid point; nothing to verify empirically")
        return

    # m from the grid search targets the asymptotic factor and can dwarf a
    # desk run, so verify at a desk-sized m and the rho recomputed for it
    m = 2000
    rho = theoretical_rate(report.eta, m, report.l_p, report.beta).rho
    config = SolverConfig(epochs=args.epochs, step_size=report.eta,
                          inner_iterations=m, sampling_mode="proportional",
                          average_epoch_output=False, seed=0)
    trace = run_vrpsg(problem, config, f_star=report.f_star)
    ratios = [b_ / a for a, b_ in zip(trace.gap[1:], trace.gap[2:]) if a > 0]
    measured = statistics.median(ratios) if ratios else float("nan")
    print(f"\nsolver check at (eta, m) = ({report.eta:.6g}, {m})")
    print(f"  certified rho for this m  = {rho:.4f}")
    print(f"  measured median per-epoch = {measured:.4f}")
    print(f"  certificate honored: {measured <= rho}")


if __name__ == "__main__":
    main()
