"""Compare solvers on one constrained least-squares instance at equal budget.

Four ways to spend the same number of component-gradient evaluations:
projected SGD with a decaying step, the variance-reduced epoch scheme with
averaged and with last-iterate epoch outputs, and its warm-started hybrid
variant.  The instance is rank-deficient with skewed row norms, which is
the regime the variance-reduced scheme is built for: no strong convexity
anywhere, yet the gap still contracts linearly per epoch.

Budgets are aligned by reading each trace at the largest recorded budget
not exceeding a shared checkpoint, so the table compares like with like
even though the schemes bank their progress on different schedules.
"""

import argparse

import numpy as np

from vrgrad import (
    L1Ball,
    LossSpec,
    ProblemSpec,
    SolverConfig,
    SyntheticSpec,
    compute_lipschitz_info,
    aggregate_lipschitz,
    gen_synthetic,
    reference_solution,
    run_hybrid_vrpsg2,
    run_projected_sgd,
    run_vrpsg,
)


def gap_at_budget(trace, budget):
    """Gap at the last recorded row whose eval counter is within budget."""
    rows = np.flatnonzero(trace.grad_evals <= budget)
    return float(trace.gap[rows[-1]]) if rows.size else float("nan")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--passes", type=int, default=30,
                        help="total budget in full passes over the data")
    parser.add_argument("--eta", type=float, default=0.2,
                        help="step size as a fraction of 1/L_P")
    args = parser.parse_args()

    spec = SyntheticSpec(n=400, d=80, rank=30, noise_std=0.25,
                         row_scale_spread=3.0, seed=args.seed)
    matrix, y = gen_synthetic(spec)
    sv = np.linalg.svd(matrix.toarray(), compute_uv=False)
    rank = int(np.sum(sv > 1e-8 * sv[0]))  # numerical rank
    problem = ProblemSpec(matrix=matrix,
                          loss=LossSpec(kind="least_squares", labels=y),
                          constraint=L1Ball(tau=10.0))
    n = spec.n
    info = compute_lipschitz_info(problem)
    p = info.per_component / info.per_component.sum()
    l_p = aggregate_lipschitz(info, p)
    print(f"instance: n={n} d={spec.d} numerical rank={rank}, "
          f"l1 ball tau=10, L_P={l_p:.4g} (proportional sampling)")

    facts = reference_solution(problem)
    print(f"reference objective {facts.f_star:.12g} "
          f"(gradient-mapping norm {facts.tolerance_achieved:.2e})")

    budget = args.passes * n
    step = args.eta / l_p
    m = n // 2  # one epoch = n + 2m = 2n evals
    epochs = budget // (2 * n)

    common = dict(step_size=step, inner_iterations=m, seed=args.seed,
                  sampling_mode="proportional")
    runs = {
        "sgd (1/sqrt schedule)": run_projected_sgd(
            problem,
            SolverConfig(epochs=args.passes, step_size=step, seed=args.seed,
                         sampling_mode="proportional", sgd_initial_step=1.0),
            f_star=facts.f_star),
        "vr, averaged epochs": run_vrpsg(
            problem, SolverConfig(epochs=epochs, **common),
            f_star=facts.f_star),
        "vr, last iterate": run_vrpsg(
            problem,
            SolverConfig(epochs=epochs, average_epoch_output=False, **common),
            f_star=facts.f_star),
        "vr, warm-started": run_hybrid_vrpsg2(
            problem,
            SolverConfig(epochs=epochs - 1, average_epoch_output=False,
                         sgd_initial_step=1.0, **common),
            f_star=facts.f_star),
    }
    for name, trace in runs.items():
        used = int(trace.grad_evals[-1])
        assert used <= budget, (name, used, budget)

    checkpoints = [n * k for k in (2, 4, 8, 12, 18, 24, args.passes)]
    width = max(len(k) for k in runs)
    print(f"\n{'optimality gap at budget (passes)':>{width + 35}}")
    header = " ".join(f"{b // n:>10d}" for b in checkpoints)
    print(f"{'':{width}} {header}")
    for name, trace in runs.items():
        cells = " ".join(f"{gap_at_budget(trace, b):>10.3e}"
                         for b in checkpoints)
        print(f"{name:{width}} {cells}")

    vr_final = gap_at_budget(runs["vr, last iterate"], budget)
    sgd_final = gap_at_budget(runs["sgd (1/sqrt schedule)"], budget)
    print(f"\nat {args.passes} passes the variance-reduced gap is "
          f"{sgd_final / vr_final:.1e}x below the SGD gap")


if __name__ == "__main__":
    main()
