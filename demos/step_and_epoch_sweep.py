"""Measured per-epoch contraction across step sizes and epoch lengths.

The guarantee covers steps below 1/(4 L_P) and predicts a contraction
factor that improves as eta grows toward that edge and as the epoch
length m grows.  This sweep measures the realized factor: the median of
consecutive gap ratios over the later epochs of a run.  Cells marked *
use a step at or beyond the edge, where the scheme often still converges
but carries no rate certificate.
"""

import argparse
import statistics

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

ETA_FRACTIONS = (0.02, 0.05, 0.1, 0.2, 0.3)
M_VALUES = (75, 150, 300, 600)


def median_contraction(gaps, skip=4):
    ratios = [b / a for a, b in zip(gaps[skip:], gaps[skip + 1:]) if a > 0]
    return statistics.median(ratios) if ratios else float("nan")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--epochs", type=int, default=15)
    args = parser.parse_args()

    spec = SyntheticSpec(n=300, d=60, rank=25, noise_std=0.2,
                         row_scale_spread=3.0, seed=args.seed)
    matrix, y = gen_synthetic(spec)
    problem = ProblemSpec(matrix=matrix,
                          loss=LossSpec(kind="least_squares", labels=y),
                          constraint=L1Ball(tau=10.0))
    info = compute_lipschitz_info(problem)
    p = info.per_component / info.per_component.sum()
    l_p = aggregate_lipschitz(info, p)
    facts = reference_solution(problem)
    print(f"L_P = {l_p:.4g}; the guarantee edge eta = 1/(4 L_P) sits at "
          f"eta x L_P = 0.25\n")

    header = " ".join(f"{f'm={m}':>9}" for m in M_VALUES)
    print(f"{'eta x L_P':>9} {header}")
    for frac in ETA_FRACTIONS:
        cells = []
        for m in M_VALUES:
            config = SolverConfig(epochs=args.epochs, step_size=frac / l_p,
                                  inner_iterations=m, seed=args.seed,
                                  sampling_mode="proportional",
                                  average_epoch_output=False)
            trace = run_vrpsg(problem, config, f_star=facts.f_star)
            rate = median_contraction(list(trace.gap))
            mark = "*" if trace.theory_warning else " "
            cells.append(f"{rate:>8.3f}{mark}")
        print(f"{frac:>9.2f} " + " ".join(cells))

    print("\nlarger steps and longer epochs both tighten the factor; past "
          "the edge\n(*) the run is on its own")


if __name__ == "__main__":
    main()
