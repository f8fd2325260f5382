"""Executable checks of the constants behind the linear-rate guarantee.

Everything here is desk-scale by design: reference solutions to near
machine precision, an enumerated Hoffman-constant bound, the error-bound
modulus beta assembled from verifiable pieces, the resulting epoch
contraction factor, and empirical probes (semi-strong convexity ratio,
variance-reduction unbiasedness/variance) that cross-check the theory on
instances small enough to certify honestly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional

import numpy as np

from . import sampling
from .geometry import project_l1_ball
from .problems import (
    Box,
    L1Ball,
    LipschitzInfo,
    ProblemSpec,
    aggregate_lipschitz,
    compute_lipschitz_info,
    eval_full_grad,
    eval_objective,
    margin_coefficients,
    smooth_value,
)
from .solvers import SolverConfig, run_afg


# Fixed values, each with one use; the docstrings below say what they govern.
_REFERENCE_STARTS = 3  # reference_solution's accelerated-baseline runs
_REFERENCE_MAX_ITERATIONS = 10 ** 6  # iterations per run at most
_RANK_TOL = 1e-10  # hoffman_theta_bound: a basis has sigma_min/sigma_max above this
_MAX_COLUMNS = 24  # the enumeration's budget: columns of [C', X'] ...
_MAX_SUBSETS = 200_000  # ... and column subsets
_MU_GRID = 201  # mu_estimate: grid points over the logistic margins
_DYKSTRA_MAX_SWEEPS = 10 ** 5  # ssc_probe: a projection still moving after this is skipped
_DYKSTRA_MOVE_TOL = 1e-11  # a sweep moving less than this has converged
_VARIANCE_DRAWS = 10 ** 5  # variance_diagnostic: samples of the direction

# Column subsets per stacked SVD call in hoffman_theta_bound: large enough
# that numpy's per-call overhead is a few percent of the LAPACK work, small
# enough that each block's temporaries stay near 0.1 MB (blocks of 1024 raised
# the peak RSS of a certify run by about 1 MB, at the same speed).
_SVD_BLOCK = 256

# hoffman_theta_bound stops extending a column subset once its computed
# sigma_min/sigma_max is at most this fraction of _RANK_TOL.  Adding a column
# cannot raise that ratio (interlacing), so a superset could still pass the
# basis test only if the SVD erred by 5e-11 relative to sigma_max: far beyond
# gesdd's rounding, a modest multiple of eps for these matrices of at most
# _MAX_COLUMNS columns.
_PRUNE_FRACTION = 0.5


class CertificateError(RuntimeError):
    """A certificate check could not be completed honestly."""


class EnumerationBudgetError(CertificateError):
    """An exact enumeration would exceed its explicit budget."""


@dataclass
class OptimalFacts:
    """High-accuracy reference facts about one problem's optimal set.

    ``r_star`` and ``s_star`` are the margin vector X w* and linear level
    q' w*, constant across the whole optimal set; ``reg_level`` holds the
    penalty level lam*||w*||_1 for regularized problems, which plays the
    same role there.  ``certified`` means every start reached the gradient
    mapping tolerance and all finals agree on (r*, s*) to 1e-6.
    """

    f_star: float
    r_star: np.ndarray
    s_star: float
    grad_h_at_r_star: np.ndarray
    reference_solutions: List[np.ndarray]
    tolerance_achieved: float
    certified: bool
    reg_level: Optional[float] = None


def _random_feasible(problem: ProblemSpec, rng: np.random.Generator) -> np.ndarray:
    c = problem.constraint
    if isinstance(c, L1Ball):
        g = rng.standard_normal(problem.d)
        l1 = np.abs(g).sum()
        if l1 == 0.0:
            return np.zeros(problem.d)
        return (0.9 * c.tau * rng.random() / l1) * g
    if isinstance(c, Box):
        return rng.uniform(c.lower, c.upper)
    return rng.standard_normal(problem.d)


def _grad_mapping_norm(problem: ProblemSpec, w) -> float:
    mapped = problem.side.step_map()(w - eval_full_grad(problem, w), 1.0)
    return float(np.linalg.norm(w - mapped))


def reference_solution(problem: ProblemSpec, tol: float = 1e-12,
                       seed: int = 0) -> OptimalFacts:
    """Solve to gradient-mapping tolerance from three starts; collect facts.

    Each start (zero, then random feasible points) runs the accelerated
    full-gradient baseline until the unit-step gradient mapping norm drops
    below ``tol``, or for 10^6 iterations.  The best final value becomes f*;
    the invariance of (X w*, q' w*) across starts is checked to 1e-6 and
    folded into ``certified``.
    """
    if tol < 1e-14:
        raise ValueError("tol below 1e-14 is not resolvable in double precision")
    rng = np.random.Generator(np.random.Philox(seed))
    start_points = [np.zeros(problem.d)]
    start_points += [_random_feasible(problem, rng) for _ in range(_REFERENCE_STARTS - 1)]

    cfg = SolverConfig(epochs=_REFERENCE_MAX_ITERATIONS, step_size=1.0)
    finals = [run_afg(problem, cfg, w0=w0, grad_mapping_tol=tol,
                      record_every=10 ** 9).final_iterate for w0 in start_points]
    worst_gm = max(_grad_mapping_norm(problem, w) for w in finals)

    values = [eval_objective(problem, w) for w in finals]
    best = int(np.argmin(values))
    w_star = finals[best]
    r_star = problem.matrix.matvec(w_star)
    grad_h = margin_coefficients(problem, r_star) / problem.n
    s_star = float(problem.q @ w_star)
    lam = problem.regularizer.lam if problem.regularizer is not None else None
    reg_level = lam * float(np.abs(w_star).sum()) if lam is not None else None

    unique = all(
        np.linalg.norm(problem.matrix.matvec(w) - r_star) <= 1e-6
        and abs(float(problem.q @ w) - s_star) <= 1e-6
        and (lam is None or abs(lam * float(np.abs(w).sum()) - reg_level) <= 1e-6)
        for w in finals)

    return OptimalFacts(
        f_star=float(min(values)),
        r_star=r_star,
        s_star=s_star,
        grad_h_at_r_star=grad_h,
        reference_solutions=finals,
        tolerance_achieved=worst_gm,
        certified=unique and worst_gm <= tol,
        reg_level=reg_level,
    )


def l1_ball_rows(d: int, tau: float):
    """Explicit inequality description C w <= b of the l1 ball: 2^d sign rows."""
    if d > 4:
        raise EnumerationBudgetError(
            f"explicit l1-ball description has 2^{d} rows; capped at d = 4"
        )
    if tau <= 0:
        raise ValueError("tau must be positive")
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=d)))
    return signs, np.full(signs.shape[0], float(tau))


def box_rows(lower, upper):
    """Explicit inequality description [I; -I] w <= [upper; -lower]."""
    lower = np.asarray(lower, dtype=np.float64).ravel()
    upper = np.asarray(upper, dtype=np.float64).ravel()
    if lower.shape != upper.shape:
        raise ValueError("box bounds must have matching shapes")
    d = lower.size
    eye = np.eye(d)
    return np.vstack([eye, -eye]), np.concatenate([upper, -lower])


def hoffman_theta_bound(C, b, X) -> float:
    """Exact-enumeration upper bound on the polyhedral error-bound constant.

    The bound is the max of 1/sigma_min(D) over all matrices D whose
    columns form a linearly independent subset of the columns of
    [C', X'] (equivalently sigma_max of the pseudoinverse of D').  It
    depends only on the row spaces of C and X; b positions the polyhedron
    but cannot change its conditioning, so only its shape is validated.

    A subset is a basis when its sigma_min/sigma_max exceeds 1e-10
    (``_RANK_TOL``).  Enumeration is exact or refused: more than 24 total
    rows, or more than 200 000 column subsets, raises EnumerationBudgetError
    before X is densified or any SVD runs, rather than silently
    truncating.  A C or X with a NaN or infinite entry raises ValueError
    naming the matrix.

    Only subsets that can be independent are decomposed, size by size: a
    size-k candidate is a surviving size-(k-1) subset plus one column index
    above its last, so each subset is reached once, through its sorted
    prefixes, with its columns in increasing order.  A subset survives
    unless its computed sigma_min/sigma_max is at most 5e-11, half the rank
    tolerance; no superset of a pruned subset can pass the basis test
    (``_PRUNE_FRACTION`` says why).  Each size's candidates go through one
    stacked ``np.linalg.svd`` call per block of at most ``_SVD_BLOCK``.  The stacked call runs the same LAPACK routine on every
    matrix, so the singular values, and the bound, are bit for bit those of
    one call per subset; the block size only caps the stack's memory.
    """
    if not hasattr(X, "toarray"):
        X = np.asarray(X, dtype=np.float64)
    if len(X.shape) != 2:
        raise ValueError("X must be a matrix")
    d = X.shape[1]
    if C is None:
        C = np.empty((0, d))
    C = np.asarray(C, dtype=np.float64)
    if C.ndim != 2 or C.shape[1] != d:
        raise ValueError("C must have the same column count as X")
    b = np.asarray(b, dtype=np.float64).ravel() if b is not None else np.empty(0)
    if b.size != C.shape[0]:
        raise ValueError("b must have one entry per row of C")

    total = C.shape[0] + X.shape[0]
    if total > _MAX_COLUMNS:
        raise EnumerationBudgetError(
            f"[C', X'] has {total} columns; enumeration capped at {_MAX_COLUMNS}"
        )
    max_size = min(d, total)
    n_subsets = sum(math.comb(total, k) for k in range(1, max_size + 1))
    if n_subsets > _MAX_SUBSETS:
        raise EnumerationBudgetError(
            f"{n_subsets} column subsets exceed the budget of {_MAX_SUBSETS}"
        )
    if hasattr(X, "toarray"):
        X = X.toarray()
    if not np.all(np.isfinite(C)):
        raise ValueError("C has a non-finite entry")
    if not np.all(np.isfinite(X)):
        raise ValueError("X has a non-finite entry")
    cols = np.vstack([C, X]).T  # shape (d, total): candidate columns

    best = 0.0  # stays 0 until a basis is found: 1/sigma_min of a basis is positive
    survivors = np.empty((1, 0), dtype=np.intp)  # the empty subset, extended to size 1
    for k in range(1, max_size + 1):
        # extend each survivor by every column after its last one
        last = survivors[:, -1:] if k > 1 else np.full((1, 1), -1)
        rows, new = np.nonzero(np.arange(total) > last)
        subsets = np.column_stack((survivors[rows], new))
        if not len(subsets):
            break
        kept = []
        for start in range(0, len(subsets), _SVD_BLOCK):
            block = subsets[start:start + _SVD_BLOCK]
            stack = cols[:, block].transpose(1, 0, 2)  # (len(block), d, k)
            s = np.linalg.svd(stack, compute_uv=False)
            # dependent subsets are not bases
            basis = (s[:, 0] > 0.0) & (s[:, -1] > _RANK_TOL * s[:, 0])
            if basis.any():
                with np.errstate(over="ignore"):  # sigma_min below 1/DBL_MAX: bound inf
                    best = max(best, float(np.max(1.0 / s[basis, -1])))
            kept.append(block[s[:, -1] > _PRUNE_FRACTION * _RANK_TOL * s[:, 0]])
        survivors = np.concatenate(kept)
    if best == 0.0:
        raise ValueError("no linearly independent column subset (all rows zero?)")
    return best


def beta_from_constants(theta: float, mu: float, gap_bound: float,
                        grad_norm: float) -> float:
    """Error-bound modulus beta = 1 / (theta^2 ((1 + 2 g^2)/mu + M)).

    theta is the Hoffman bound, mu the strong-convexity modulus of the
    link function on the reachable margin set, M the objective-gap bound
    over the feasible set, g the norm of the link gradient at the optimal
    margins.
    """
    if not (theta > 0 and np.isfinite(theta)):
        raise ValueError("theta must be positive and finite")
    if not (mu > 0 and np.isfinite(mu)):
        raise ValueError("mu must be positive and finite")
    if gap_bound < 0 or grad_norm < 0:
        raise ValueError("gap bound and gradient norm must be nonnegative")
    return 1.0 / (theta ** 2 * ((1.0 + 2.0 * grad_norm ** 2) / mu + gap_bound))


class RateResult(NamedTuple):
    rho: float
    contractive: bool


def theoretical_rate(eta: float, m: int, l_p: float, beta: float) -> RateResult:
    """Per-epoch contraction factor of the variance-reduced scheme.

    rho = 4 L_P eta (m+1) / ((1 - 4 L_P eta) m) + 1 / (beta eta (1 - 4 L_P eta) m),
    valid for 0 < eta < 1/(4 L_P).  The first term is driven by the step
    size fraction, the second shrinks like 1/m, so eta = gamma / L_P with
    small gamma and m of order L_P / beta gives rho < 1.
    """
    if not (l_p > 0 and np.isfinite(l_p)):
        raise ValueError("l_p must be positive and finite")
    if not (beta > 0 and np.isfinite(beta)):
        raise ValueError("beta must be positive and finite")
    if m < 1:
        raise ValueError("m must be >= 1")
    if not 0 < eta < 1.0 / (4.0 * l_p):
        raise ValueError(
            f"eta must lie in (0, 1/(4 L_P)) = (0, {1.0 / (4.0 * l_p):g}) for the rate to apply"
        )
    x = 4.0 * l_p * eta
    rho = x * (m + 1.0) / ((1.0 - x) * m) + 1.0 / (beta * eta * (1.0 - x) * m)
    return RateResult(rho=float(rho), contractive=bool(rho < 1.0))


def rate_grid_search(l_p: float, beta: float, eta_fractions=(0.02, 0.05, 0.1, 0.2),
                     m_values=(10, 100, 1000, 10 ** 4, 10 ** 5, 10 ** 6, 10 ** 7)):
    """Smallest rho over a grid of eta = frac/L_P and m values.

    Returns (eta, m, RateResult) at the grid minimum; callers decide what
    to do when even the minimum is not contractive.
    """
    best = None
    for frac in eta_fractions:
        eta = frac / l_p
        for m in m_values:
            res = theoretical_rate(eta, m, l_p, beta)
            if best is None or res.rho < best[2].rho:
                best = (eta, int(m), res)
    if best is None:
        raise ValueError("empty rate grid")
    return best


def bounded_gap_M(problem: ProblemSpec, facts: OptimalFacts) -> float:
    """Bound on max_w f(w) - f* over the feasible set: g R + (L/2) R^2.

    g is the gradient norm at an optimum, R the feasible diameter (2 tau
    for the l1 ball, ||upper - lower|| for a box), L the full-gradient
    smoothness bound.  A regularized problem (infinite diameter) or a
    zero diameter raises ValueError.
    """
    g = float(np.linalg.norm(problem.matrix.rmatvec(facts.grad_h_at_r_star) + problem.q))
    radius = problem.side.diameter
    if not 0.0 < radius < math.inf:
        raise ValueError(f"gap bound needs a positive finite feasible diameter, not {radius:g}")
    L = compute_lipschitz_info(problem).global_bound
    return g * radius + 0.5 * L * radius ** 2


class MuEstimate(NamedTuple):
    value: float
    exact: bool


def mu_estimate(problem: ProblemSpec) -> MuEstimate:
    """Strong-convexity modulus of the link function on reachable margins.

    Least squares: exactly 1/n.  Logistic: the margins x_i' w are bounded
    over the compact feasible set, so sigma'(z)/n is minimized on a grid
    of ``_MU_GRID`` points over [0, z_max] (sigma'(z) is even and decreasing
    in |z|, making the grid minimum the interval minimum up to grid
    resolution); reported as an estimate.  The bound depends only on the
    feasible set.
    """
    if not problem.is_constrained:
        raise ValueError("mu_estimate needs a compact feasible set")
    n = problem.n
    if problem.loss.kind == "least_squares":
        return MuEstimate(1.0 / n, True)
    c = problem.constraint
    if isinstance(c, L1Ball):
        max_entry = float(np.abs(problem.matrix.data).max()) if problem.matrix.data.size else 0.0
        z_max = c.tau * max_entry
    else:
        mx = np.maximum(np.abs(c.lower), np.abs(c.upper))
        absX = problem.matrix.toarray()
        z_max = float(np.max(np.abs(absX) @ mx)) if absX.size else 0.0
    from scipy.special import expit  # only the logistic loss needs scipy.special

    zs = np.linspace(0.0, z_max, _MU_GRID)
    sig = expit(zs)
    return MuEstimate(float(np.min(sig * (1.0 - sig))) / n, False)


@dataclass
class SSCProbe:
    """Result of empirically probing f(w) - f* >= (beta/2) dist(w, W*)^2."""

    beta_empirical: float
    worst_point: np.ndarray
    ratios_used: int
    skipped: int


def _dykstra(start, proj_a, proj_b):
    """Alternating projections with Dykstra's correction terms.

    Returns the limit point, or None when successive sweeps are still
    moving after the budget or the two set projections disagree at the
    claimed limit.
    """
    x = start.copy()
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    for _ in range(_DYKSTRA_MAX_SWEEPS):
        y = proj_a(x + p)
        p = x + p - y
        x_new = proj_b(y + q)
        q = y + q - x_new
        if np.linalg.norm(x_new - x) < _DYKSTRA_MOVE_TOL:
            if np.linalg.norm(x_new - y) > 1e-7 * (1.0 + np.linalg.norm(x_new)):
                return None  # stalled outside the intersection
            return x_new
        x = x_new
    return None


def ssc_probe(problem: ProblemSpec, facts: OptimalFacts, probes: int = 200,
              seed: int = 0) -> SSCProbe:
    """Empirical worst-case ratio 2 (f(w) - f*) / dist(w, W*)^2 over probes.

    The optimal set is the polyhedron {X w = r*, q' w = s*} intersected
    with the feasible set (constrained), or {X w = r*, lam ||w||_1 = s*}
    (regularized; realized as the ball ||w||_1 <= s*/lam, which the
    optimal-value argument forces to hold with equality, checked on each
    limit).  Distances come from Dykstra alternating projections between
    the affine part and the convex part.

    Probes mix random feasible points with perturbations of the reference
    optimum at several scales.  A probe whose projection fails to converge
    is skipped; more than 10% skips, a nonpositive worst ratio, or no
    usable probe at all raises CertificateError.  Probes landing on the
    optimal set (dist^2 < 1e-16) are excluded from the ratio, not counted
    as skips.
    """
    if not facts.certified:
        raise CertificateError("reference facts are not certified; solve tighter first")
    if problem.d > 50:
        raise ValueError("probe is desk-scale only (d <= 50)")
    if probes < 1:
        raise ValueError("need at least one probe")

    rng = np.random.Generator(np.random.Philox(seed))
    Xd = problem.matrix.toarray()
    w_star = facts.reference_solutions[0]

    if problem.is_constrained:
        A = np.vstack([Xd, problem.q[None, :]])
        target = np.concatenate([facts.r_star, [facts.s_star]])
    else:
        A = Xd
        target = facts.r_star
    pinv = np.linalg.pinv(A)

    def proj_affine(v):
        return v - pinv @ (A @ v - target)

    lam = problem.regularizer.lam if problem.regularizer is not None else None
    ball_radius = None
    if problem.is_constrained:
        step = problem.side.step_map()
        proj_set = lambda v: step(v, 1.0)
    elif lam and lam > 0:
        ball_radius = facts.reg_level / lam  # = ||w*||_1
        if ball_radius > 0:
            proj_set = lambda v: project_l1_ball(v, ball_radius)
        else:
            proj_set = lambda v: np.zeros_like(v)
    else:
        proj_set = None  # lam = 0: the optimal set is purely affine

    def probe_point(j):
        scale_cycle = (1e-3, 1e-2, 1e-1, 1.0)
        if problem.is_constrained and j % 2 == 0:
            c = problem.constraint
            if isinstance(c, L1Ball):
                mags = rng.dirichlet(np.ones(problem.d))
                signs = rng.integers(0, 2, problem.d) * 2.0 - 1.0
                return c.tau * rng.random() * signs * mags
            return rng.uniform(c.lower, c.upper)
        w = w_star + scale_cycle[j % 4] * rng.standard_normal(problem.d)
        if problem.is_constrained:
            w = proj_set(w)
        return w

    ratios, worst, skipped = [], None, 0
    for j in range(probes):
        w = probe_point(j)
        gap = eval_objective(problem, w) - facts.f_star
        if proj_set is None:
            z = proj_affine(w)
        else:
            z = _dykstra(w, proj_set, proj_affine)
            if z is None:
                skipped += 1
                continue
            if ball_radius is not None and abs(np.abs(z).sum() - ball_radius) > 1e-7 * (1.0 + ball_radius):
                skipped += 1  # penalty level failed to activate at the limit
                continue
        dist_sq = float(np.dot(w - z, w - z))
        if dist_sq < 1e-16:
            continue
        ratio = 2.0 * gap / dist_sq
        if worst is None or ratio < worst[0]:
            worst = (ratio, w)
        ratios.append(ratio)

    if skipped > 0.1 * probes:
        raise CertificateError(
            f"{skipped}/{probes} probes failed to project onto the optimal set"
        )
    if not ratios:
        raise CertificateError("every probe landed on the optimal set; nothing to certify")
    beta_emp = float(min(ratios))
    if beta_emp <= 0:
        raise CertificateError(
            f"nonpositive empirical ratio {beta_emp:g}; reference accuracy is insufficient"
        )
    return SSCProbe(beta_empirical=beta_emp, worst_point=worst[1],
                    ratios_used=len(ratios), skipped=skipped)


@dataclass
class VarianceDiagnostic:
    """Monte-Carlo check of the variance-reduced direction's moments.

    ``mean_grad`` should match ``full_grad`` coordinatewise within a few
    ``mean_se``; ``variance_mc`` estimates E||v - grad f(w)||^2, which the
    theory bounds by ``bound`` = 4 L_P (f(w) - f* + f(snapshot) - f*).
    """

    mean_grad: np.ndarray
    full_grad: np.ndarray
    mean_se: np.ndarray
    variance_mc: float
    variance_exact: float
    variance_se: float
    bound: float


def variance_diagnostic(problem: ProblemSpec, dist: sampling.SamplingDistribution,
                        w, w_snapshot, f_star: float) -> VarianceDiagnostic:
    """Sample the variance-reduced direction at (w, snapshot) 10^5 times.

    Consumes the distribution's stream.  Desk-scale: densifies the design
    matrix to vectorize the per-component algebra.
    """
    draws = _VARIANCE_DRAWS
    w = np.asarray(w, dtype=np.float64).ravel()
    w_snapshot = np.asarray(w_snapshot, dtype=np.float64).ravel()
    n = problem.n
    Xd = problem.matrix.toarray()

    a_w = margin_coefficients(problem, Xd @ w)
    a_s = margin_coefficients(problem, Xd @ w_snapshot)
    snap_grad = Xd.T @ a_s / n + problem.q
    full_grad = Xd.T @ a_w / n + problem.q
    c = (a_w - a_s) / (n * dist.p)  # per-component scalar in v_i = c_i x_i + snap_grad

    idx = sampling.draw_many(dist, draws)
    counts = np.bincount(idx, minlength=n).astype(np.float64)

    mean_cx = Xd.T @ (counts * c) / draws
    mean_grad = mean_cx + snap_grad
    second = (Xd ** 2).T @ (counts * c ** 2) / draws \
        + 2.0 * snap_grad * mean_cx + snap_grad ** 2
    mean_se = np.sqrt(np.maximum(second - mean_grad ** 2, 0.0) / draws)

    e = snap_grad - full_grad
    # ||c_i x_i + e||^2 expanded over components
    s_i = c ** 2 * problem.matrix.row_sq_norms + 2.0 * c * (Xd @ e) + float(e @ e)
    variance_mc = float(counts @ s_i) / draws
    variance_exact = float(dist.p @ s_i)
    second_s = float(counts @ s_i ** 2) / draws
    variance_se = math.sqrt(max(second_s - variance_mc ** 2, 0.0) / draws)

    info = compute_lipschitz_info(problem)
    l_p = aggregate_lipschitz(info, dist)
    f_w = smooth_value(problem, w)
    f_s = smooth_value(problem, w_snapshot)
    bound = 4.0 * l_p * (f_w - f_star + f_s - f_star)
    return VarianceDiagnostic(
        mean_grad=mean_grad,
        full_grad=full_grad,
        mean_se=mean_se,
        variance_mc=variance_mc,
        variance_exact=variance_exact,
        variance_se=variance_se,
        bound=bound,
    )


@dataclass
class CertificateReport:
    """Everything the certify pipeline computed, JSON-serializable.

    ``provenance`` maps each field to "computed" or "user-supplied" so a
    reader can tell which constants were derived from the instance and
    which were taken on trust.
    """

    l_global: float
    l_avg: float
    l_max: float
    l_p: float
    theta_bound: float
    mu: float
    mu_exact: bool
    grad_norm_at_opt: float
    gap_bound: float
    beta: float
    eta: float
    m: int
    rho: float
    contractive: bool
    f_star: float
    reference_certified: bool
    sampling_mode: str
    beta_empirical: Optional[float] = None
    provenance: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = dict(self.__dict__)
        out["provenance"] = dict(self.provenance)
        return out


def build_certificate(problem: ProblemSpec, C, b, sampling_mode: str = sampling.PROPORTIONAL,
                      eta_fractions=(0.02, 0.05, 0.1, 0.2),
                      m_values=(10, 100, 1000, 10 ** 4, 10 ** 5, 10 ** 6, 10 ** 7),
                      reference_tol: float = 1e-12, probe: bool = False,
                      probes: int = 200, seed: int = 0) -> CertificateReport:
    """Run the whole certificate pipeline on one desk-scale instance.

    Computes the reference solution, Lipschitz constants for the requested
    sampling mode, the Hoffman bound from the explicit constraint rows
    (C, b), mu, M, beta, and then grid-searches (eta, m) for a contractive
    epoch factor.  The report carries the grid minimum even when it is not
    contractive; callers inspect ``contractive``.
    """
    facts = reference_solution(problem, tol=reference_tol, seed=seed)
    if not facts.certified:
        raise CertificateError("reference solve did not certify; cannot ground the constants")
    info = compute_lipschitz_info(problem)
    dist = sampling.build_distribution(sampling_mode, info, seed=seed)
    l_p = aggregate_lipschitz(info, dist)
    theta = hoffman_theta_bound(C, b, problem.matrix)
    mu = mu_estimate(problem)
    gap_bound = bounded_gap_M(problem, facts)
    grad_norm = float(np.linalg.norm(
        problem.matrix.rmatvec(facts.grad_h_at_r_star) + problem.q))
    beta = beta_from_constants(theta, mu.value, gap_bound, grad_norm)
    eta, m, rate = rate_grid_search(l_p, beta, eta_fractions, m_values)

    beta_emp = None
    if probe:
        beta_emp = ssc_probe(problem, facts, probes=probes, seed=seed).beta_empirical

    prov = {k: "computed" for k in (
        "l_global", "l_avg", "l_max", "l_p", "theta_bound", "mu",
        "grad_norm_at_opt", "gap_bound", "beta", "rho", "f_star")}
    return CertificateReport(
        l_global=info.global_bound,
        l_avg=info.avg,
        l_max=info.max_component,
        l_p=l_p,
        theta_bound=theta,
        mu=mu.value,
        mu_exact=mu.exact,
        grad_norm_at_opt=grad_norm,
        gap_bound=gap_bound,
        beta=beta,
        eta=eta,
        m=m,
        rho=rate.rho,
        contractive=rate.contractive,
        f_star=facts.f_star,
        reference_certified=facts.certified,
        sampling_mode=sampling_mode,
        beta_empirical=beta_emp,
        provenance=prov,
    )
