"""How the sampling distribution changes the effective smoothness constant.

Uniform sampling pays for the worst row: the variance bound scales with
L_max.  Sampling proportional to the per-component constants replaces that
with the mean L_avg, and the step size budget 1/(4 L_P) grows by the same
factor.  On data with skewed row norms the difference is large; on
uniform-norm data the two modes coincide.
"""

import argparse

import numpy as np

from vrgrad import (
    L1Ball,
    LossSpec,
    ProblemSpec,
    SolverConfig,
    SyntheticSpec,
    aggregate_lipschitz,
    compute_lipschitz_info,
    gen_synthetic,
    reference_solution,
    run_vrpsg,
)


def build(spread, seed):
    spec = SyntheticSpec(n=300, d=60, rank=25, noise_std=0.2,
                         row_scale_spread=spread, seed=seed)
    matrix, y = gen_synthetic(spec)
    return ProblemSpec(matrix=matrix,
                       loss=LossSpec(kind="least_squares", labels=y),
                       constraint=L1Ball(tau=10.0))


def final_gap(problem, mode, l_p, facts, epochs, seed):
    # eta is 0.1/L_P in each mode's own units, so proportional sampling
    # genuinely takes longer steps when the norms are skewed
    config = SolverConfig(epochs=epochs, step_size=0.1 / l_p,
                          inner_iterations=150, seed=seed,
                          sampling_mode=mode, average_epoch_output=False)
    return run_vrpsg(problem, config, f_star=facts.f_star).gap[-1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--epochs", type=int, default=20)
    args = parser.parse_args()

    print(f"{'spread':>7} {'L_max':>9} {'L_avg':>9} {'L ratio':>8} "
          f"{'gap uniform':>12} {'gap prop':>12} {'gap ratio':>10}")
    for spread in (1.0, 3.0, 10.0, 30.0):
        problem = build(spread, args.seed)
        info = compute_lipschitz_info(problem)
        n = problem.n
        l_uniform = aggregate_lipschitz(info, np.full(n, 1.0 / n))
        p = info.per_component / info.per_component.sum()
        l_prop = aggregate_lipschitz(info, p)
        facts = reference_solution(problem)
        gap_u = final_gap(problem, "uniform", l_uniform, facts,
                          args.epochs, args.seed)
        gap_p = final_gap(problem, "proportional", l_prop, facts,
                          args.epochs, args.seed)
        print(f"{spread:>7.1f} {l_uniform:>9.3g} {l_prop:>9.3g} "
              f"{l_uniform / l_prop:>8.2f} {gap_u:>12.3e} {gap_p:>12.3e} "
              f"{gap_u / gap_p:>10.1f}")

    print("\nuniform sampling budgets its step against L_max, proportional "
          "against\nL_avg, so their gap ratio at a fixed epoch count widens "
          "with the spread")


if __name__ == "__main__":
    main()
