"""Support identification of the proximal scheme on an l1-regularized fit.

The planted parameter is sparse.  Each proximal step can zero a
coordinate outright, so once the iterate is close enough the scheme's
support locks onto the right one and stays there; on a noiseless fit the
gap then collapses to exactly zero.  A stray coordinate shrinks by about
eta * lam per inner step, so the identification horizon is roughly
1 / (eta * lam * m) epochs: short epochs creep toward it for the whole
budget while long epochs cross it and finish.  The epoch length matters
here far beyond its role in the rate formula.
"""

import argparse

import numpy as np

from vrgrad import (
    L1Regularizer,
    LossSpec,
    ProblemSpec,
    SolverConfig,
    SyntheticSpec,
    aggregate_lipschitz,
    compute_lipschitz_info,
    gen_synthetic,
    reference_solution,
    run_prox_svrg,
)


def nonzeros(w):
    return int(np.count_nonzero(w))


def run(problem, l_p, f_star, m, epochs, seed):
    config = SolverConfig(epochs=epochs, step_size=0.1 / l_p,
                          inner_iterations=m, seed=seed,
                          sampling_mode="proportional",
                          average_epoch_output=False)
    return run_prox_svrg(problem, config, f_star=f_star)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=6)
    parser.add_argument("--lam", type=float, default=1e-3)
    parser.add_argument("--epochs", type=int, default=60)
    args = parser.parse_args()

    spec = SyntheticSpec(n=200, d=50, rank=20, noise_std=0.0,
                         row_scale_spread=3.0, seed=args.seed)
    matrix, y = gen_synthetic(spec)
    problem = ProblemSpec(matrix=matrix,
                          loss=LossSpec(kind="least_squares", labels=y),
                          regularizer=L1Regularizer(lam=args.lam))
    info = compute_lipschitz_info(problem)
    p = info.per_component / info.per_component.sum()
    l_p = aggregate_lipschitz(info, p)
    facts = reference_solution(problem)
    support_star = nonzeros(facts.reference_solutions[0])
    print(f"noiseless fit, lam = {args.lam:g}, d = {spec.d}, "
          f"optimal support size = {support_star}")

    short = run(problem, l_p, facts.f_star, m=500, epochs=args.epochs,
                seed=args.seed)
    long = run(problem, l_p, facts.f_star, m=8000, epochs=args.epochs,
               seed=args.seed)

    # trace rows are epochs 1..epochs
    print(f"\n{'epoch':>5} {'gap (m=500)':>14} {'gap (m=8000)':>14}")
    for e in range(5, args.epochs + 1, 5):
        print(f"{e:>5} {short.gap[e - 1]:>14.3e} {long.gap[e - 1]:>14.3e}")

    print(f"\nfinal support: m=500 gives {nonzeros(short.final_iterate)} "
          f"nonzeros, m=8000 gives {nonzeros(long.final_iterate)} "
          f"(optimum has {support_star})")
    matched = np.array_equal(np.nonzero(long.final_iterate)[0],
                             np.nonzero(facts.reference_solutions[0])[0])
    print(f"long epochs identified the optimal support: {matched}")


if __name__ == "__main__":
    main()
