"""Variance-reduced stochastic gradient solvers for constrained and
l1-regularized finite-sum problems, with computable linear-rate certificates.

The library splits into problem definitions (:mod:`vrgrad.problems`),
projections (:mod:`vrgrad.geometry`), seeded sampling
(:mod:`vrgrad.sampling`), the solvers themselves (:mod:`vrgrad.solvers`),
certificate machinery (:mod:`vrgrad.certificates`), and dataset utilities
(:mod:`vrgrad.data`).  The ``vrgrad`` command line wraps the common runs.
The compiled library of ``_epoch.c`` (inner steps, CSR products, sigmoid,
libsvm reader) has one entry point, ``_epoch.library()``, reached at first
use and never at import; where it does not build, each caller falls back
to numpy or scipy with the same bits.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .certificates import (
    CertificateError,
    CertificateReport,
    EnumerationBudgetError,
    OptimalFacts,
    beta_from_constants,
    bounded_gap_M,
    build_certificate,
    hoffman_theta_bound,
    mu_estimate,
    reference_solution,
    ssc_probe,
    theoretical_rate,
    variance_diagnostic,
)
from .data import SyntheticSpec, gen_synthetic, read_libsvm, write_libsvm
from .geometry import project_box, project_l1_ball, prox_l1
from .problems import (
    Box,
    L1Ball,
    L1Regularizer,
    LipschitzInfo,
    LossSpec,
    ProblemSpec,
    SparseDesignMatrix,
    aggregate_lipschitz,
    compute_lipschitz_info,
    eval_full_grad,
    eval_objective,
)
from .sampling import SamplingDistribution, build_distribution, draw, draw_many
from .solvers import (
    DivergenceError,
    LineSearchError,
    RunTrace,
    SolverConfig,
    run_afg,
    run_hybrid_vrpsg2,
    run_projected_sgd,
    run_prox_svrg,
    run_vrpsg,
)

# the names imported above, so that each is listed once
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
