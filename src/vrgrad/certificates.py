"""Executable checks of the constants behind the linear-rate guarantee.

Everything here is desk-scale by design: reference solutions to near
machine precision, an enumerated Hoffman-constant bound, the error-bound
modulus beta assembled from verifiable pieces, the resulting epoch
contraction factor, and empirical probes (semi-strong convexity ratio,
variance-reduction unbiasedness/variance) that cross-check the theory on
instances small enough to certify honestly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, NamedTuple, Optional

import numpy as np

from . import sampling
from .problems import (
    LEAST_SQUARES,
    LOGISTIC,
    LOSSES,
    Box,
    L1Ball,
    ProblemSpec,
    _coef_and_grad,
    aggregate_lipschitz,
    compute_lipschitz_info,
    eval_full_grad,
    eval_objective,
    gradient_mapping_norm,
)
from .solvers import _afg_iterations


# Fixed values, each with one use; the docstrings below say what they govern.
_REFERENCE_STARTS = 3  # reference_solution's accelerated-baseline runs
_REFERENCE_MAX_ITERATIONS = 10 ** 6  # iterations per run at most
_REFERENCE_TOL = 1e-12  # ... stopping once the gradient mapping norm is below this
_CHECK_EVERY = 10  # ... which is checked every this many iterations
_FACE_TOL = 10.0  # _face_polish: |g_j| within this many gradient mappings of a threshold is at it
_POLISH_STEPS = 12  # ... it takes this many Newton steps at most
_POLISH_WORK = 16  # ... its dense work is at most this many times AFG's matrix reads
_POLISH_MIN_STEPS = 4  # ... and it starts only if that covers this many steps
_HESSIAN_ROWS = 256  # rows of X_F dense at once while a face Hessian is formed
_RANK_TOL = 1e-10  # hoffman_theta_bound: a basis has sigma_min/sigma_max above this
_MAX_COLUMNS = 24  # the enumeration's budget: columns of [C', X'] ...
_MAX_SUBSETS = 200_000  # ... and column subsets
_VARIANCE_DRAWS = 10 ** 5  # variance_diagnostic: samples of the direction

# The certificate's defaults, which `vrgrad certify` takes too: the rate grid's
# step fractions eta L_P and epoch lengths m, and the number of ssc_probe probes.
ETA_FRACTIONS = (0.02, 0.05, 0.1, 0.2)
M_VALUES = (10, 100, 1000, 10 ** 4, 10 ** 5, 10 ** 6, 10 ** 7)
PROBES = 200

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

    X w = ``r_star`` all over the optimal set, so the smooth part's gradient,
    ``_coef_and_grad(problem, r_star)``, is constant there and names the
    side's face that holds it (``ssc_probe``).
    ``certified`` means every start reached the gradient mapping tolerance
    and all finals agree on X w and on q' w + penalty(w) to 1e-6.
    """

    f_star: float
    r_star: np.ndarray
    reference_solutions: List[np.ndarray]
    tolerance_achieved: float
    certified: bool


class ReferenceRun(NamedTuple):
    """One accelerated-baseline run to the reference tolerance."""

    w: np.ndarray  # its final iterate
    objective: float
    gradient_mapping: float  # the unit-step gradient mapping norm at w


@np.errstate(over="ignore", invalid="ignore")  # a value that overflows fails the line search
def reference_run(problem: ProblemSpec, w0=None) -> ReferenceRun:
    """Run the accelerated baseline from w0 (zero by default) to the reference tolerance.

    Every 10 iterations ``eval_full_grad`` gives the unit-step gradient
    mapping norm, and the run stops once that is at most 1e-12, or after
    10^6 iterations.  A check whose objective is not finite ends the run
    with gradient mapping inf, so it never certifies.  Checks 1, 2, 4, 8,
    ... that find the norm above 1e-12 try ``_face_polish`` from a copy of
    the iterate, within ``_POLISH_WORK`` times the reads of X counted so
    far: one per AFG function value, two per AFG gradient, one per check or
    polish gradient.  A guard keeps a polished
    point, and ends the run, only if the side's step map leaves it feasible
    to the bit (the l1 ball's projection can round a few ulps of tau
    outside) and its gradient mapping from ``eval_full_grad`` is within the
    tolerance; otherwise AFG goes on, untouched.  ``solve`` and ``bench``
    read f* from one run from zero; ``reference_solution`` makes one per
    start.
    """
    iterations = _afg_iterations(problem, w0, 1.0)
    next(iterations)  # the start point
    extra = 0  # the check and polish gradients so far
    for it, (x, value, grads, probes) in zip(range(1, _REFERENCE_MAX_ITERATIONS + 1), iterations):
        if it % _CHECK_EVERY:
            continue
        if not np.isfinite(value):  # AFG makes no progress from here
            return ReferenceRun(x, value, math.inf)
        extra += 1
        g = eval_full_grad(problem, x)
        gm = gradient_mapping_norm(problem, x, g)
        if gm <= _REFERENCE_TOL:
            break
        check = it // _CHECK_EVERY
        if check & (check - 1):  # a polish is tried at checks 1, 2, 4, 8, ... only
            continue
        reads = ((grads + probes) // problem.n + extra) * problem.matrix.data.size
        z, k = _face_polish(problem, x, g, gm, _REFERENCE_TOL, _POLISH_WORK * reads)
        extra += k
        if z is None:
            continue
        z = problem.side.step_map()(z, 0.0)
        if isinstance(problem.side, L1Ball) and float(np.abs(z).sum()) > problem.side.tau:
            continue
        extra += 1
        gm = gradient_mapping_norm(problem, z, eval_full_grad(problem, z))
        if gm <= _REFERENCE_TOL:
            return ReferenceRun(z, eval_objective(problem, z), gm)
    return ReferenceRun(x, eval_objective(problem, x),
                        gradient_mapping_norm(problem, x, eval_full_grad(problem, x)))


@np.errstate(over="ignore", invalid="ignore")  # a wild step fails the gradient-mapping test
def _face_polish(problem: ProblemSpec, x, g, gm, tol, budget):
    """Newton steps on the face of -g from x.

    Returns a point whose gradient mapping is at most tol, or None, and the
    gradients taken.  X w is the same at every optimum, so the smooth gradient
    is too, and the optimal set lies on the face ``side.face(g*, .)``.  Near
    an optimum the face of -g at x, with |g_j| within ``_FACE_TOL`` gradient
    mappings of a threshold counting as at it, is that face (Wright 1993).
    The polish sets the coordinates the face fixes, then takes Newton steps
    for f + penalty on the rest, F: the penalty is linear on the face, and
    the l1 ball's face adds the row a'w = tau.  A step solves
    (H_FF + delta I) dw = -gradient with dw on the row, where H = X' D X / n
    and D is the loss's curvature at the margins u.  For logistic delta is
    1/100 of the gradient mapping, a regularized Newton step (Li, Fukushima,
    Qi & Yamashita 2004); for least squares it is eps trace(H), a
    rounding-level shift that keeps the solve defined on a singular H, so
    one step is the KKT solve of the face's quadratic.  ``_face_step`` keeps
    the step inside the face's bounds.

    A step's dense work is (n + |F|) |F|^2.  The attempt starts only if
    ``budget`` covers ``_POLISH_MIN_STEPS`` steps on the first F, and it ends
    at the first step that does not lower the gradient mapping, after
    ``_POLISH_STEPS`` steps, or before a step that would take its total work
    past ``budget``.  ``_face_hessian`` densifies X_F a block of rows at a time.
    """
    side, mat, n = problem.side, problem.matrix, problem.n
    loss, logistic = LOSSES[problem.loss.kind], problem.loss.kind == LOGISTIC
    face = side.face(g, _FACE_TOL * gm)
    lower, upper, free = face.lower, face.upper, np.flatnonzero(~face.fixed)
    if budget < _POLISH_MIN_STEPS * (n + free.size) * free.size ** 2:
        return None, 0  # AFG has not yet done the work of a few steps on this face
    z = np.where(face.fixed, face.at, np.clip(x, lower, upper))
    last = math.inf
    for k in range(1, _POLISH_STEPS + 2):
        u = mat.matvec(z)
        g = _coef_and_grad(problem, u)[1]
        gm = gradient_mapping_norm(problem, z, g)
        if gm <= tol:
            return z, k
        budget -= (n + free.size) * free.size ** 2
        if not (gm < last and k <= _POLISH_STEPS and free.size and budget >= 0):
            return None, k
        last = gm
        H = _face_hessian(mat, free, loss.curvature(u) / n)
        delta = np.finfo(np.float64).eps * float(np.trace(H))
        if logistic:
            delta = max(delta, 0.01 * gm)
        H[np.diag_indices_from(H)] += delta
        row = None if face.row is None else (face.row[0][free], face.row[1] - float(face.row[0] @ z))
        w, kept = _face_step(H, delta, g[free] + face.slope[free], z[free], lower[free],
                             upper[free], row)
        if w is None:
            return None, k
        z = z.copy()
        z[free] = w
        free = free[kept]
    return None, k


def _face_hessian(mat, free, weight):
    """X_F' diag(weight) X_F, densifying ``_HESSIAN_ROWS`` rows of the columns F at a time."""
    H = np.zeros((free.size, free.size))
    for start in range(0, mat.n_rows, _HESSIAN_ROWS):
        stop = min(start + _HESSIAN_ROWS, mat.n_rows)
        B = mat.columns(free, start, stop)
        B *= np.sqrt(weight[start:stop])[:, None]
        H += B.T @ B
    return H


def _face_step(H, delta, r, w, lower, upper, row):
    """One face Newton step from w: the new w and a mask of the coordinates it leaves free.

    Minimizes r'dw + dw'H dw / 2 subject to a'dw = res when ``row`` = (a, res);
    H already carries delta on its diagonal.  A coordinate that would leave
    [lower, upper] is set to that bound, and the rest is solved again.  Returns
    (None, None) if no step exists.
    """
    new, free = w.copy(), np.ones(w.size, dtype=bool)
    while free.any():
        H_ff = H if free.all() else H[np.ix_(free, free)]
        rhs = -(r + H @ (new - w))[free]  # the fixed coordinates' moves enter through H
        if row is not None:
            a = row[0][free]
            norm = float(np.linalg.norm(a))
            if norm == 0.0:
                return None, None
            v = a / norm  # dw = v (res / |a|) + (I - v v') y meets the row
            step0 = v * ((row[1] - float(row[0] @ (new - w))) / norm)
            rhs -= H_ff @ step0
            rhs -= v * float(v @ rhs)
            Hv = H_ff @ v
            H_ff = (H_ff - np.outer(v, Hv) - np.outer(Hv, v)
                    + (float(v @ Hv) + delta) * np.outer(v, v))  # P H P + delta I, P = I - v v'
        try:
            dw = np.linalg.solve(H_ff, rhs)
        except np.linalg.LinAlgError:
            return None, None
        if row is not None:
            dw += step0 - v * float(v @ dw)
        cand = w[free] + dw
        out = (cand < lower[free]) | (cand > upper[free])
        if not np.isfinite(cand).all():
            return None, None
        if not out.any():
            new[free] = cand
            return new, free
        idx = np.flatnonzero(free)[out]
        new[idx] = np.where(cand[out] < lower[idx], lower[idx], upper[idx])
        free[idx] = False
    return new, free


@np.errstate(over="ignore", invalid="ignore")  # a run at objective inf fails the agreement check
def reference_solution(problem: ProblemSpec, seed: int = 0) -> OptimalFacts:
    """Solve to gradient-mapping tolerance from three starts; collect facts.

    Each start (zero, then random feasible points drawn from ``seed``) is
    one ``reference_run``.  The best final value becomes f*; the invariance
    of X w* and of q' w* + penalty(w*) across starts is checked to 1e-6 and
    folded into ``certified``.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    start_points = [np.zeros(problem.d)]
    start_points += [problem.side.sample(rng, problem.d) for _ in range(_REFERENCE_STARTS - 1)]
    runs = [reference_run(problem, w0) for w0 in start_points]
    finals = [run.w for run in runs]
    worst_gm = max(run.gradient_mapping for run in runs)

    values = [run.objective for run in runs]
    w_star = finals[int(np.argmin(values))]
    r_star = problem.matrix.matvec(w_star)
    level = float(problem.q @ w_star) + problem.side.penalty(w_star)
    unique = all(
        np.linalg.norm(problem.matrix.matvec(w) - r_star) <= 1e-6
        and abs(float(problem.q @ w) + problem.side.penalty(w) - level) <= 1e-6
        for w in finals)

    return OptimalFacts(
        f_star=float(min(values)),
        r_star=r_star,
        reference_solutions=finals,
        tolerance_achieved=worst_gm,
        certified=unique and worst_gm <= _REFERENCE_TOL,
    )


def box_rows(lower, upper):
    """Explicit inequality description [I; -I] w <= [upper; -lower] of the box
    (``Box.rows``), so ValueError where ``Box`` refuses the bounds."""
    return Box(lower=lower, upper=upper).rows(np.size(lower))


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
    if not (float(m).is_integer() and m >= 1):
        raise ValueError(f"m must be an integer >= 1, not {m!r}")
    if not 0 < eta < 1.0 / (4.0 * l_p):
        raise ValueError(
            f"eta must lie in (0, 1/(4 L_P)) = (0, {1.0 / (4.0 * l_p):g}) for the rate to apply"
        )
    x = 4.0 * l_p * eta
    rho = x * (m + 1.0) / ((1.0 - x) * m) + 1.0 / (beta * eta * (1.0 - x) * m)
    return RateResult(rho=float(rho), contractive=bool(rho < 1.0))


def rate_grid_search(l_p: float, beta: float, eta_fractions=ETA_FRACTIONS, m_values=M_VALUES):
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


def bounded_gap_M(problem: ProblemSpec, grad_norm: float, l_global: float) -> float:
    """Bound on max_w f(w) - f* over the feasible set: g R + (L/2) R^2.

    g = ``grad_norm`` is the gradient norm at an optimum, R the feasible
    diameter (2 tau for the l1 ball, ||upper - lower|| for a box), L =
    ``l_global`` the full-gradient smoothness bound.  R^2 is the side's
    ``diameter_sq``, summed directly rather than squared from R.  A
    regularized problem (infinite diameter) or a zero diameter raises
    ValueError.
    """
    radius_sq = problem.side.diameter_sq
    if not 0.0 < radius_sq < math.inf:
        raise ValueError("gap bound needs a positive finite feasible diameter, "
                         f"not {math.sqrt(radius_sq):g}")
    return grad_norm * math.sqrt(radius_sq) + 0.5 * l_global * radius_sq


def mu_estimate(problem: ProblemSpec) -> float:
    """Strong-convexity modulus of the link function on reachable margins.

    Least squares: exactly 1/n.  Logistic: sigma'(z_max)/n, where z_max =
    ``side.margin_bound(X)`` bounds |x_i' w| over the compact feasible set
    and sigma'(z), the loss's curvature, is even and decreasing in |z|, so
    this is its minimum over every reachable margin.
    """
    if not problem.is_constrained:
        raise ValueError("mu_estimate needs a compact feasible set")
    n = problem.n
    if problem.loss.kind == LEAST_SQUARES:
        return 1.0 / n  # before margin_bound, which would densify a box's X
    curvature = LOSSES[problem.loss.kind].curvature
    return float(curvature(problem.side.margin_bound(problem.matrix))) / n


@dataclass
class SSCProbe:
    """Result of empirically probing f(w) - f* >= (beta/2) dist(w, W*)^2."""

    beta_empirical: float
    ratios_used: int
    on_set: int  # probes within 1e-8 of the optimal set, left out of the ratio


def _projector(A, t):
    """Exact projection (w, G, h) -> z onto {z : A z = t, G z <= h}, A factored once.

    The affine projection p is the answer unless p breaks a row of G and A has
    a null space N; then z = p + N y, y the least-distance solution of
    G (p + N y) <= h by one nonnegative least squares (Lawson & Hanson 1974).
    """
    u, s, vt = np.linalg.svd(A, full_matrices=A.shape[0] < A.shape[1])  # vt spans R^d
    rank = int(np.sum(s > s[0] * max(A.shape) * np.finfo(np.float64).eps))
    pinv, null = vt[:rank].T @ (u[:, :rank].T / s[:rank, None]), vt[rank:].T

    def project(w, G, h):
        p = w - pinv @ (A @ w - t)
        if not null.shape[1] or not np.any(G @ p > h):
            return p
        from scipy.optimize import nnls  # about 0.25 s to import, so only here

        ldp = np.vstack([-(G @ null).T, G @ p - h])  # min ||y|| s.t. -G N y >= G p - h
        e = np.eye(len(ldp))[-1]
        r = ldp @ nnls(ldp, e)[0] - e
        if not r[-1] < 0.0:
            raise CertificateError("the optimal set's face rows have no common point")
        return p - null @ (r[:-1] / r[-1])

    return project


def ssc_probe(problem: ProblemSpec, facts: OptimalFacts, probes: int = PROBES,
              seed: int = 0) -> SSCProbe:
    """Empirical worst-case ratio 2 (f(w) - f*) / dist(w, W*)^2 over probes, exact distances.

    The smooth gradient g* = X' grad_h(r*) + q is constant on the optimal set,
    so W* is {X w = r*} on the face ``side.face(g*, tol)``, tol = 1e-9
    max(1, ||g*||_inf): of the ball or box, or the penalty's sign pattern (q != 0
    and lam = 0 included).  ``_projector`` projects onto W*, adding ``side.cut``
    rows while the result leaves the set (the whole ball, g* = 0).  A reference
    final farther than 1e-9 (1 + ||w||) from W* raises CertificateError.

    Probes mix random feasible points with perturbations of the reference
    optimum at several scales.  Each is within 1e-8 of W* (``on_set``) or
    gives a ratio; a nonpositive worst ratio, or none, raises CertificateError.
    """
    if not facts.certified:
        raise CertificateError("reference facts are not certified; solve tighter first")
    if problem.d > 50:
        raise ValueError("probe is desk-scale only (d <= 50)")
    if probes < 1:
        raise ValueError("need at least one probe")

    rng = np.random.Generator(np.random.Philox(seed))
    side = problem.side
    g_star = _coef_and_grad(problem, facts.r_star)[1]
    Xd = problem.matrix.toarray()
    E, e, G, h = side.face(g_star, 1e-9 * max(1.0, float(np.max(np.abs(g_star))))).rows()
    project = _projector(np.vstack([Xd, E]), np.concatenate([facts.r_star, e]))

    def project_optimal(w):
        rows, rhs = G, h
        z = project(w, rows, rhs)
        # a cut is a new sign vector, so this ends; a repeated one could only be rounding
        while (cut := side.cut(z)) is not None and not (rows == cut[0]).all(1).any():
            rows, rhs = np.vstack([rows, cut[0]]), np.append(rhs, cut[1])
            z = project(w, rows, rhs)
        return z

    for u in facts.reference_solutions:
        if np.linalg.norm(u - project_optimal(u)) > 1e-9 * (1.0 + np.linalg.norm(u)):
            raise CertificateError("a reference final lies off the optimal set; solve tighter")

    step, w_star = side.step_map(), facts.reference_solutions[0]
    ratios = []
    for j in range(probes):
        if problem.is_constrained and j % 2 == 0:
            w = side.sample(rng, problem.d)
        else:
            w = w_star + (1e-3, 1e-2, 1e-1, 1.0)[j % 4] * rng.standard_normal(problem.d)
            if problem.is_constrained:
                w = step(w, 1.0)
        gap = eval_objective(problem, w) - facts.f_star
        off = w - project_optimal(w)
        dist_sq = float(off @ off)
        if dist_sq >= 1e-16:  # else the probe is on the optimal set
            ratios.append(2.0 * gap / dist_sq)

    if not ratios:
        raise CertificateError("every probe landed on the optimal set; nothing to certify")
    beta_emp = float(min(ratios))
    if beta_emp <= 0:
        raise CertificateError(
            f"nonpositive empirical ratio {beta_emp:g}; reference accuracy is insufficient"
        )
    return SSCProbe(beta_emp, ratios_used=len(ratios), on_set=probes - len(ratios))


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

    a_w, full_grad = _coef_and_grad(problem, problem.matrix.matvec(w))
    a_s, snap_grad = _coef_and_grad(problem, problem.matrix.matvec(w_snapshot))
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
    # the composite objective, as f_star is (Xiao & Zhang 2014, Lemma 3)
    bound = 4.0 * l_p * (eval_objective(problem, w) - f_star
                         + eval_objective(problem, w_snapshot) - f_star)
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
    """Everything the certify pipeline computed, JSON-serializable."""

    l_global: float
    l_avg: float
    l_max: float
    l_p: float
    theta_bound: float
    mu: float
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

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def _up(x: float) -> float:
    """The next double above x: an upper bound's last rounding, directed up.

    It covers one rounding of the value, not the roundings of the formula
    before it, so the bound is not proven to the last bit.
    """
    return float(np.nextafter(x, math.inf))


def _down(x: float) -> float:
    """The next double below x: a lower bound's last rounding, directed down (see ``_up``)."""
    return float(np.nextafter(x, -math.inf))


def build_certificate(problem: ProblemSpec, C, b, sampling_mode: str = sampling.PROPORTIONAL,
                      eta_fractions=ETA_FRACTIONS, m_values=M_VALUES,
                      probe: bool = False, probes: int = PROBES,
                      seed: int = 0) -> CertificateReport:
    """Run the whole certificate pipeline on one desk-scale instance.

    Computes the reference solution, Lipschitz constants for the requested
    sampling mode, the Hoffman bound from the explicit constraint rows
    (C, b), mu, the full-gradient constant L = sigma_max(X)^2 / n (over 4
    for logistic) from one SVD of the dense X, M, beta, and then
    grid-searches (eta, m) for a contractive epoch factor.  Each constant
    the rate rests on is moved one ulp to its safe side once it is computed:
    the upper bounds L, M and rho up, the lower bounds mu and beta down, and
    beta and rho are computed from the moved values.  That directs only the
    last rounding of each; the SVD, the squaring and the products before it
    can each be off by a few ulps, which the one ulp does not cover.  The
    report carries
    the grid minimum even when it is not contractive; callers inspect
    ``contractive``.
    """
    theta = hoffman_theta_bound(C, b, problem.matrix)  # refuses over budget before any solve
    facts = reference_solution(problem, seed=seed)
    if not facts.certified:
        raise CertificateError("reference solve did not certify; cannot ground the constants")
    info = compute_lipschitz_info(problem)
    dist = sampling.build_distribution(sampling_mode, info, seed=seed)
    l_p = aggregate_lipschitz(info, dist)
    mu = _down(mu_estimate(problem))
    grad_norm = float(np.linalg.norm(_coef_and_grad(problem, facts.r_star)[1]))
    # sigma_max(X)^2 from one SVD: the Hoffman bound has refused an X past 24 rows
    sigma_max = np.linalg.svd(problem.matrix.toarray(), compute_uv=False)[0]
    l_global = _up(LOSSES[problem.loss.kind].lipschitz_scale * float(sigma_max) ** 2 / problem.n)
    gap_bound = _up(bounded_gap_M(problem, grad_norm, l_global))
    beta = _down(beta_from_constants(theta, mu, gap_bound, grad_norm))
    eta, m, rate = rate_grid_search(l_p, beta, eta_fractions, m_values)
    rho = _up(rate.rho)

    beta_emp = None
    if probe:
        beta_emp = ssc_probe(problem, facts, probes=probes, seed=seed).beta_empirical

    return CertificateReport(
        l_global=l_global,
        l_avg=info.avg,
        l_max=info.max_component,
        l_p=l_p,
        theta_bound=theta,
        mu=mu,
        grad_norm_at_opt=grad_norm,
        gap_bound=gap_bound,
        beta=beta,
        eta=eta,
        m=m,
        rho=rho,
        contractive=rho < 1.0,
        f_star=facts.f_star,
        reference_certified=facts.certified,
        sampling_mode=sampling_mode,
        beta_empirical=beta_emp,
    )
