"""Epoch-based variance-reduced solvers and the baselines they compare against.

All stochastic runs are deterministic given (problem, config): index draws
come from the pinned Philox stream in the sampling module and every
floating-point reduction is sequential.  Work is accounted in component
gradient evaluations: a full-gradient snapshot costs n, an inner step costs
2 (fresh point and snapshot point), so one variance-reduced epoch with m
inner steps adds n + 2m to the counter.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import sampling
from .problems import (
    LOSSES,
    LipschitzInfo,
    ProblemSpec,
    aggregate_lipschitz,
    compute_lipschitz_info,
    eval_objective,
    margin_coefficients,
)


class DivergenceError(RuntimeError):
    """Objective blew up or went non-finite; message names the epoch."""


class LineSearchError(RuntimeError):
    """Backtracking line search halved past its budget without acceptance."""


@dataclass
class SolverConfig:
    """Shared solver knobs.

    ``epochs`` counts outer epochs (or passes for SGD, iterations for the
    accelerated baseline).  ``inner_iterations`` defaults to n at run time.
    ``sgd_initial_step`` is eta_0 in the decaying schedule eta_0/sqrt(k);
    zero is allowed only so the hybrid's SGD warm start can be switched off.
    """

    epochs: int
    step_size: float
    inner_iterations: Optional[int] = None
    sgd_initial_step: float = 1.0
    seed: int = 0
    sampling_mode: str = sampling.UNIFORM
    average_epoch_output: bool = True
    strict_feasibility: bool = False
    divergence_factor: float = 1e3

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not (self.step_size > 0 and np.isfinite(self.step_size)):
            raise ValueError("step_size must be positive and finite")
        if self.inner_iterations is not None and self.inner_iterations < 1:
            raise ValueError("inner_iterations must be >= 1")
        if self.sgd_initial_step < 0:
            raise ValueError("sgd_initial_step must be nonnegative")
        if self.divergence_factor <= 0:
            raise ValueError("divergence_factor must be positive")


@dataclass
class RunTrace:
    """Per-epoch progress rows plus the final iterate.

    ``gap`` is objective minus the supplied reference value, NaN when no
    reference was given.  ``probe_evals`` is only filled by the accelerated
    baseline and counts the extra function evaluations its line search
    spends, kept separate from ``grad_evals`` so budget comparisons stay
    honest.
    """

    algorithm: str
    epoch: np.ndarray
    grad_evals: np.ndarray
    objective: np.ndarray
    gap: np.ndarray
    wall_ms: np.ndarray
    final_iterate: np.ndarray
    initial_objective: float
    theory_warning: bool = False
    probe_evals: Optional[np.ndarray] = None


class _Rows:
    def __init__(self):
        self.epoch = []
        self.grad_evals = []
        self.objective = []
        self.gap = []
        self.wall_ms = []
        self.probe_evals = []

    def add(self, epoch, evals, obj, f_star, t0, probes=None):
        self.epoch.append(epoch)
        self.grad_evals.append(evals)
        self.objective.append(obj)
        self.gap.append(obj - f_star if f_star is not None else np.nan)
        self.wall_ms.append((time.perf_counter() - t0) * 1e3)
        if probes is not None:
            self.probe_evals.append(probes)

    def trace(self, algorithm, w, f0, theory_warning=False, with_probes=False):
        return RunTrace(
            algorithm=algorithm,
            epoch=np.asarray(self.epoch, dtype=np.int64),
            grad_evals=np.asarray(self.grad_evals, dtype=np.int64),
            objective=np.asarray(self.objective),
            gap=np.asarray(self.gap),
            wall_ms=np.asarray(self.wall_ms),
            final_iterate=w,
            initial_objective=f0,
            theory_warning=theory_warning,
            probe_evals=np.asarray(self.probe_evals, dtype=np.int64) if with_probes else None,
        )


def _start_point(problem: ProblemSpec, w0, strict: bool) -> np.ndarray:
    if w0 is None:
        w = np.zeros(problem.d)
    else:
        w = np.asarray(w0, dtype=np.float64).ravel().copy()
        if w.size != problem.d:
            raise ValueError(f"w0 has length {w.size}, expected {problem.d}")
        if not np.all(np.isfinite(w)):
            raise ValueError("w0 must be finite")
    if problem.is_constrained:
        pw = problem.side.step_map()(w, 0.0)
        if not np.allclose(pw, w, rtol=0.0, atol=1e-12):
            if strict:
                raise ValueError("w0 is infeasible and strict_feasibility is set")
            return pw
    return w


def _divergence_threshold(f0: float, factor: float) -> float:
    # "objective exceeds factor x initial" made meaningful for f0 <= 0 too
    return f0 + factor * max(1.0, abs(f0))


@np.errstate(over="ignore", invalid="ignore")  # a blow-up is reported by the epoch check
def _svrg_epochs(problem, config, w_start, f_star, objective, algorithm,
                 eval_offset=0, rows=None, t0=None, info=None):
    """Shared snapshot/inner-loop engine for the variance-reduced solvers.

    Per epoch: full gradient at the snapshot, then m inner steps
        v = (grad f_i(w) - grad f_i(snapshot)) / (n p_i) + snapshot gradient
        w <- step_map(w - eta v)
    and the epoch output is the average of the m inner iterates (or the
    last one when average_epoch_output is off).  An inner step does only
    O(d) vector work: the epoch's indices come from one draw_many call,
    eta times the snapshot gradient is formed once per epoch, and the
    running sum is kept only when averaging.  Nothing is checked per step:
    a NaN iterate stays NaN to the end of its epoch, whose objective check
    raises DivergenceError.
    """
    mat = problem.matrix
    n, d = problem.n, problem.d
    m = config.inner_iterations if config.inner_iterations is not None else n
    if info is None:
        info = compute_lipschitz_info(problem)
    dist = sampling.build_distribution(config.sampling_mode, info, seed=config.seed)
    l_p = aggregate_lipschitz(info, dist)
    theory_warning = l_p > 0 and config.step_size >= 1.0 / (4.0 * l_p)

    eta = config.step_size
    step = problem.side.step_map()
    coef = LOSSES[problem.loss.kind].scalar
    y = problem.loss.labels.tolist()
    q = problem.q
    has_q = bool(np.any(q))
    n_times_p = (n * dist.p).tolist()
    indptr, indices, values = mat.indptr.tolist(), mat.indices, mat.data
    average = config.average_epoch_output

    w_tilde = w_start
    f0 = objective(w_tilde)
    threshold = _divergence_threshold(f0, config.divergence_factor)
    if rows is None:
        rows = _Rows()
    if t0 is None:
        t0 = time.perf_counter()

    for k in range(1, config.epochs + 1):
        snap_margins = mat.matvec(w_tilde)
        snap_coef = margin_coefficients(problem, snap_margins)
        snap_grad = mat.rmatvec(snap_coef) / n
        if has_q:
            snap_grad = snap_grad + q
        eta_snap_grad = eta * snap_grad
        snap_coef = snap_coef.tolist()
        w = w_tilde  # never written in place: each step makes a new vector
        acc = np.zeros(d) if average else None
        for i in sampling.draw_many(dist, m).tolist():
            lo, hi = indptr[i], indptr[i + 1]
            idx = indices[lo:hi]
            val = values[lo:hi]
            c = (coef(float(val @ w[idx]), y[i]) - snap_coef[i]) / n_times_p[i]
            v = w - eta_snap_grad
            v[idx] -= (eta * c) * val
            w = step(v, eta)
            if average:
                acc += w
        w_tilde = acc / m if average else w
        f_val = objective(w_tilde)
        if not np.isfinite(f_val) or f_val > threshold:
            raise DivergenceError(
                f"{algorithm} diverged at epoch {k}: objective {f_val:g} "
                f"(started at {f0:g}); step size {eta:g} is likely too large"
            )
        rows.add(k, eval_offset + k * (n + 2 * m), f_val, f_star, t0)
    return rows.trace(algorithm, w_tilde, f0, theory_warning=theory_warning)


def run_vrpsg(problem: ProblemSpec, config: SolverConfig, w0=None, f_star=None,
              info: LipschitzInfo = None) -> RunTrace:
    """Variance-reduced projected stochastic gradient over a constraint set.

    Parameters
    ----------
    problem : ProblemSpec
        Must be constrained; the regularized variant is run_prox_svrg.
    config : SolverConfig
        Step size must sit below 1/(4 L_P) for the linear-rate guarantee;
        larger steps still run but set ``theory_warning`` on the trace.
    w0 : array, optional
        Start point, projected onto the feasible set when necessary
        (an error instead if ``strict_feasibility``).  Defaults to 0.
    f_star : float, optional
        Reference optimal value; fills the trace's gap column.
    info : LipschitzInfo, optional
        Precomputed constants, to skip the power iteration on repeat runs.

    Returns
    -------
    RunTrace
        One row per epoch; ``grad_evals`` at epoch k is exactly k(n + 2m).
        Every recorded iterate is feasible (averages of projections stay
        inside the convex feasible set).
    """
    if not problem.is_constrained:
        raise ValueError("run_vrpsg requires a constrained problem")
    w_start = _start_point(problem, w0, config.strict_feasibility)
    return _svrg_epochs(problem, config, w_start, f_star,
                        lambda w: eval_objective(problem, w), "vrpsg", info=info)


def run_prox_svrg(problem: ProblemSpec, config: SolverConfig, w0=None, f_star=None,
                  info: LipschitzInfo = None) -> RunTrace:
    """Variance-reduced proximal stochastic gradient for l1-regularized problems.

    Identical inner loop to run_vrpsg with the projection replaced by the
    soft-threshold prox at level eta*lam; the traced objective includes the
    penalty.  With lam = 0 this is plain (unconstrained) variance-reduced
    stochastic gradient descent.
    """
    if problem.regularizer is None:
        raise ValueError("run_prox_svrg requires a regularized problem")
    w_start = _start_point(problem, w0, config.strict_feasibility)
    return _svrg_epochs(problem, config, w_start, f_star,
                        lambda w: eval_objective(problem, w), "prox_svrg", info=info)


def run_projected_sgd(problem: ProblemSpec, config: SolverConfig, w0=None,
                      f_star=None) -> RunTrace:
    """Projected SGD with the decaying schedule eta_k = eta_0 / sqrt(k).

    Uniform index sampling; one trace row per pass of n iterations, so the
    gradient-evaluation column advances by n per row.  The global iteration
    counter k never resets across passes.
    """
    if not problem.is_constrained:
        raise ValueError("run_projected_sgd requires a constrained problem")
    if not config.sgd_initial_step > 0:
        raise ValueError("sgd_initial_step must be positive")
    w = _start_point(problem, w0, config.strict_feasibility)
    _, trace = _sgd_passes(problem, config, w, f_star, config.epochs,
                           _Rows(), time.perf_counter())
    return trace


@np.errstate(over="ignore", invalid="ignore")  # a blow-up is reported by the epoch check
def _sgd_passes(problem, config, w, f_star, passes, rows, t0):
    """Run `passes` passes of decaying-step projected SGD; returns (w, trace)."""
    mat = problem.matrix
    n = problem.n
    step = problem.side.step_map()
    coef = LOSSES[problem.loss.kind].scalar
    y = problem.loss.labels.tolist()
    q = problem.q
    has_q = bool(np.any(q))
    indptr, indices, values = mat.indptr.tolist(), mat.indices, mat.data
    dist = sampling.SamplingDistribution(p=np.full(n, 1.0 / n), seed=int(config.seed))
    eta0 = config.sgd_initial_step

    f0 = eval_objective(problem, w)
    threshold = _divergence_threshold(f0, config.divergence_factor)
    k = 0
    for p in range(1, passes + 1):
        for i in sampling.draw_many(dist, n).tolist():
            k += 1
            if eta0 == 0.0:
                continue
            eta = eta0 / math.sqrt(k)
            lo, hi = indptr[i], indptr[i + 1]
            idx = indices[lo:hi]
            val = values[lo:hi]
            a = coef(float(val @ w[idx]), y[i])
            v = w - eta * q if has_q else w.copy()
            v[idx] -= (eta * a) * val
            w = step(v, eta)
        f_val = eval_objective(problem, w)
        if not np.isfinite(f_val) or f_val > threshold:
            raise DivergenceError(
                f"sgd diverged at pass {p}: objective {f_val:g} (started at {f0:g})"
            )
        rows.add(p, p * n, f_val, f_star, t0)
    return w, rows.trace("sgd", w, f0)


def run_hybrid_vrpsg2(problem: ProblemSpec, config: SolverConfig, w0=None,
                      f_star=None, info: LipschitzInfo = None) -> RunTrace:
    """One decaying-step SGD pass to warm-start, then variance-reduced epochs.

    The SGD pass draws from a stream derived from the seed (seed XOR a fixed
    tag) so the variance-reduced phase sees exactly the stream run_vrpsg
    would; with sgd_initial_step = 0 the warm start is a no-op and the run
    reproduces run_vrpsg from w0, with gradient counters offset by the n
    evaluations the pass spent.  Trace row 0 is the warm-start pass.
    """
    if not problem.is_constrained:
        raise ValueError("run_hybrid_vrpsg2 requires a constrained problem")
    w = _start_point(problem, w0, config.strict_feasibility)
    f0 = eval_objective(problem, w)
    rows = _Rows()
    t0 = time.perf_counter()

    sgd_cfg = SolverConfig(
        epochs=1,
        step_size=config.step_size,
        sgd_initial_step=config.sgd_initial_step,
        seed=(config.seed ^ 0x7A5C9D1B) & 0xFFFFFFFFFFFFFFFF,
        divergence_factor=config.divergence_factor,
    )
    w, _ = _sgd_passes(problem, sgd_cfg, w, f_star, 1, _Rows(), t0)
    rows.add(0, problem.n, eval_objective(problem, w), f_star, t0)

    trace = _svrg_epochs(problem, config, w, f_star,
                         lambda x: eval_objective(problem, x), "vrpsg2",
                         eval_offset=problem.n, rows=rows, t0=t0, info=info)
    trace.initial_objective = f0
    return trace


# Below this many matrix entries the full-gradient baseline multiplies by a
# cached dense array: scipy's sparse matvec carries per-call overhead that
# dominates at small shapes, and the baseline calls it several times per
# iteration.  Larger problems keep the sparse matrix.
_DENSE_MAX_ENTRIES = 500_000


def _full_grad_ops(problem: ProblemSpec):
    """Smooth value and gradient for full-gradient work, on the dense or sparse matrix."""
    mat = problem.matrix
    if mat.n_rows * mat.n_cols > _DENSE_MAX_ENTRIES:
        matvec, rmatvec = mat.matvec, mat.rmatvec
    else:
        Xd = mat.toarray()
        matvec, rmatvec = Xd.__matmul__, Xd.T.__matmul__
    loss = LOSSES[problem.loss.kind]
    y, q, n = problem.loss.labels, problem.q, mat.n_rows

    def value(w):
        return loss.mean(matvec(w), y) + float(q @ w)

    def grad(w):
        return rmatvec(loss.coef(matvec(w), y)) / n + q

    return value, grad


def run_afg(problem: ProblemSpec, config: SolverConfig, w0=None, f_star=None,
            grad_mapping_tol: float = None, record_every: int = 1,
            max_halvings: int = 60) -> RunTrace:
    """Accelerated full-gradient baseline with backtracking and restarts.

    Nesterov-style momentum over the projected / proximal gradient step.
    The step size backtracks by halving until the standard quadratic upper
    bound accepts the candidate, and doubles again between iterations; more
    than ``max_halvings`` consecutive halvings raises LineSearchError.  The
    momentum sequence restarts from the previous iterate whenever the
    objective would increase, which keeps the traced objective monotone
    (non-increasing up to the line search's float rounding allowance).

    Each iteration costs n gradient evaluations; line-search function
    probes are tallied in the trace's separate ``probe_evals`` column.
    With ``grad_mapping_tol`` set, iteration stops once the unit-step
    gradient mapping norm falls below it (checked with a fresh gradient,
    also n evaluations).
    """
    w = _start_point(problem, w0, config.strict_feasibility)
    n = problem.n
    step = problem.side.step_map()
    penalty = problem.side.penalty
    value, grad = _full_grad_ops(problem)

    state = {"grad": 0, "probe": 0}
    eps_slack = 8.0 * np.finfo(np.float64).eps

    def attempt(y, s):
        """Backtrack from y.

        Returns (candidate, its smooth value, accepted step, may_grow):
        may_grow says the acceptance needed no halving AND the composite
        descent it measured stands clear of float noise, so the caller may
        double the step next iteration.  Growing the step on noise-level
        acceptances would let it run away and trap the iterates in a limit
        cycle of radius about sqrt(step * eps * |f|).  The growth gate must
        look at the composite value: near a regularized optimum the smooth
        part keeps dropping resolvably (its gradient is nonzero there) while
        the penalty absorbs the difference, and gating on the smooth part
        alone re-opens the cycle.
        """
        g = grad(y)
        state["grad"] += n
        f_y = value(y)
        state["probe"] += n
        F_y = f_y + penalty(y)
        noise = eps_slack * max(1.0, abs(f_y))
        for halvings in range(max_halvings + 1):
            cand = step(y - s * g, s)
            diff = cand - y
            f_c = value(cand)
            state["probe"] += n
            if f_c <= f_y + float(g @ diff) + float(diff @ diff) / (2.0 * s) + noise:
                drop = F_y - (f_c + penalty(cand))
                may_grow = halvings == 0 and drop > 100.0 * noise
                return cand, f_c, s, may_grow
            s *= 0.5
        raise LineSearchError(
            f"line search stalled after {max_halvings} halvings (step {s:g})"
        )

    rows = _Rows()
    t0 = time.perf_counter()
    x = w
    y = w.copy()
    t = 1.0
    s = config.step_size
    F_x = value(x) + penalty(x)
    state["probe"] += n
    f0 = F_x
    # a restart below this margin would be reacting to float noise and only
    # drags the endgame back to the unaccelerated rate
    restart_margin = 1e-13

    check_every = 10  # gradient-mapping stop cadence
    may_grow = True
    for it in range(1, config.epochs + 1):
        if may_grow:
            s *= 2.0
        base = y
        cand, f_c, s, may_grow = attempt(y, s)
        F_c = f_c + penalty(cand)
        if F_c > F_x + restart_margin * max(1.0, abs(F_x)):
            # momentum overshot; restart with a plain step from x
            t = 1.0
            base = x
            cand, f_c, s, may_grow = attempt(x, s)
            F_c = f_c + penalty(cand)
            # descent now holds up to the line search's rounding allowance,
            # so accepting keeps the trace monotone to float precision
        x_prev, x, F_x = x, cand, F_c
        # scale-free momentum reset: once objective differences sit below
        # float noise, restart instead when the projected step direction
        # opposes the actual move
        if float((base - x) @ (x - x_prev)) > 0.0:
            t = 1.0
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = x + ((t - 1.0) / t_next) * (x - x_prev)
        t = t_next

        done = it == config.epochs
        if grad_mapping_tol is not None and (done or it % check_every == 0):
            g = grad(x)
            state["grad"] += n
            gm = x - step(x - g, 1.0)
            done = done or float(np.linalg.norm(gm)) <= grad_mapping_tol
        if done or it % record_every == 0:
            rows.add(it, state["grad"], F_x, f_star, t0, probes=state["probe"])
        if done:
            break
    return rows.trace("afg", x, f0, with_probes=True)
