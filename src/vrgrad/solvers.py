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


_DIVERGENCE_FACTOR = 1e3  # an epoch objective past f0 + this * max(1, |f0|) diverged
_MAX_HALVINGS = 60  # run_afg's line search gives up after this many in a row


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

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not (self.step_size > 0 and np.isfinite(self.step_size)):
            raise ValueError("step_size must be positive and finite")
        if self.inner_iterations is not None and self.inner_iterations < 1:
            raise ValueError("inner_iterations must be >= 1")
        if self.sgd_initial_step < 0:
            raise ValueError("sgd_initial_step must be nonnegative")


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


def _start_point(problem: ProblemSpec, w0) -> np.ndarray:
    """w0 (zeros by default), projected onto the feasible set if it lies outside."""
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
            return pw
    return w


@np.errstate(over="ignore", invalid="ignore")  # a blow-up is reported by the epoch check
def _epochs(problem, record, w_tilde, dist, labels, step_size, m, sgd=False, average=False):
    """The one epoch loop, in which every stochastic runner takes its inner steps.

    A variance-reduced epoch takes the full gradient at the snapshot, then m steps
        v = (grad f_i(w) - grad f_i(snapshot)) / (n p_i) + snapshot gradient
        w <- step_map(w - eta v)
    and outputs the average of the m inner iterates (the last one without
    ``average``), for n + 2m gradient evaluations.  An ``sgd`` epoch is the
    same step from a zero snapshot, so the snapshot gradient is q, with a
    weight of exactly 1 (n * (1/n) rounds below 1 for n = 49) and eta =
    step_size/sqrt(t) at global step t; it outputs its last iterate, for n
    evaluations.  A step does O(d) vector work: one draw_many call per
    epoch, eta times the snapshot gradient formed once per epoch (per SGD
    step, only when q is nonzero), a running sum only when averaging.
    Nothing is checked per step: ``record(label, cost, output, step_size)``
    checks each epoch's output, and a NaN iterate stays NaN until then.
    """
    mat = problem.matrix
    n, d = problem.n, problem.d
    step = problem.side.step_map()
    coef = LOSSES[problem.loss.kind].scalar
    y = problem.loss.labels.tolist()
    q, has_q = problem.q, bool(np.any(problem.q))
    indptr, indices, values = mat.indptr.tolist(), mat.indices, mat.data
    eta = step_size
    if sgd:
        t, cost = 0, n
        snap_coef, weight = [0.0] * n, [1.0] * n
        eta_snap_grad = np.zeros(d)
    else:
        cost = n + 2 * m
        weight = (n * dist.p).tolist()

    for k in labels:
        if not sgd:
            snap_coef = margin_coefficients(problem, mat.matvec(w_tilde))
            snap_grad = mat.rmatvec(snap_coef) / n
            if has_q:
                snap_grad = snap_grad + q
            eta_snap_grad = eta * snap_grad
            snap_coef = snap_coef.tolist()
        w = w_tilde  # never written in place: each step makes a new vector
        acc = np.zeros(d) if average else None
        for i in sampling.draw_many(dist, m).tolist():
            if sgd:
                t += 1
                eta = step_size / math.sqrt(t)
                if has_q:  # eta times a zero q stays zero
                    eta_snap_grad = eta * q
            lo, hi = indptr[i], indptr[i + 1]
            idx = indices[lo:hi]
            val = values[lo:hi]
            c = (coef(float(val @ w[idx]), y[i]) - snap_coef[i]) / weight[i]
            v = w - eta_snap_grad
            v[idx] -= (eta * c) * val
            w = step(v, eta)
            if average:
                acc += w
        w_tilde = acc / m if average else w
        record(k, cost, w_tilde, step_size)
    return w_tilde


def _stochastic_run(problem, config, w0, f_star, info, algorithm):
    """The set-up every stochastic runner shares, then its epochs.

    ``sgd`` runs SGD epochs of n steps on the seed's uniform stream;
    ``vrpsg2`` runs one as row 0, on a derived seed's stream, before the
    variance-reduced epochs.  An epoch objective that is not finite or
    exceeds f0 + _DIVERGENCE_FACTOR * max(1, |f0|) raises DivergenceError.
    """
    w = _start_point(problem, w0)
    n, theory_warning = problem.n, False
    if algorithm != "sgd":
        if info is None:
            info = compute_lipschitz_info(problem)
        dist = sampling.build_distribution(config.sampling_mode, info, seed=config.seed)
        l_p = aggregate_lipschitz(info, dist)
        theory_warning = l_p > 0 and config.step_size >= 1.0 / (4.0 * l_p)
    f0 = eval_objective(problem, w)
    threshold = f0 + _DIVERGENCE_FACTOR * max(1.0, abs(f0))
    rows, t0 = _Rows(), time.perf_counter()

    def record(k, cost, w_k, step_size):
        f_val = eval_objective(problem, w_k)
        if not np.isfinite(f_val) or f_val > threshold:
            raise DivergenceError(
                f"{algorithm} diverged at epoch {k}: objective {f_val:g} "
                f"(started at {f0:g}); step size {step_size:g} is likely too large"
            )
        rows.add(k, (rows.grad_evals[-1] if rows.grad_evals else 0) + cost, f_val, f_star, t0)

    eta0, epochs = config.sgd_initial_step, range(1, config.epochs + 1)
    if algorithm in ("sgd", "vrpsg2"):
        warm = algorithm == "vrpsg2"  # one epoch, row 0, and no step at all when eta0 = 0
        seed = (config.seed ^ 0x7A5C9D1B) & 0xFFFFFFFFFFFFFFFF if warm else config.seed
        uniform = sampling.SamplingDistribution(p=np.full(n, 1.0 / n), seed=int(seed))
        w = _epochs(problem, record, w, uniform, range(1) if warm else epochs, eta0,
                    n if eta0 > 0 else 0, sgd=True)
    if algorithm != "sgd":
        m = config.inner_iterations if config.inner_iterations is not None else n
        w = _epochs(problem, record, w, dist, epochs, config.step_size, m,
                    average=config.average_epoch_output)
    return rows.trace(algorithm, w, f0, theory_warning=theory_warning)


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
        Start point, projected onto the feasible set when necessary.
        Defaults to 0.
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
    return _stochastic_run(problem, config, w0, f_star, info, "vrpsg")


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
    return _stochastic_run(problem, config, w0, f_star, info, "prox_svrg")


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
    return _stochastic_run(problem, config, w0, f_star, None, "sgd")


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
    return _stochastic_run(problem, config, w0, f_star, info, "vrpsg2")


# Below this many matrix entries the full-gradient baseline multiplies by a
# cached dense array: scipy's sparse matvec carries per-call overhead that
# dominates at small shapes, and the baseline calls it several times per
# iteration.  Larger problems keep the sparse matrix.
_DENSE_MAX_ENTRIES = 500_000


def _full_grad_ops(problem: ProblemSpec):
    """Smooth value, and value with gradient from one matvec, on the dense or sparse matrix."""
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

    def value_grad(w):
        u = matvec(w)
        return loss.mean(u, y) + float(q @ w), rmatvec(loss.coef(u, y)) / n + q

    return value, value_grad


def run_afg(problem: ProblemSpec, config: SolverConfig, w0=None, f_star=None,
            grad_mapping_tol: float = None, record_every: int = 1) -> RunTrace:
    """Accelerated full-gradient baseline with backtracking and restarts.

    Nesterov-style momentum over the projected / proximal gradient step.
    The step size backtracks by halving until the standard quadratic upper
    bound accepts the candidate, and doubles again between iterations; more
    than ``_MAX_HALVINGS`` (60) consecutive halvings raises LineSearchError.
    The momentum sequence restarts from the previous iterate whenever the
    objective would increase, which keeps the traced objective monotone
    (non-increasing up to the line search's float rounding allowance).

    Each iteration costs n gradient evaluations; line-search function
    probes are tallied in the trace's separate ``probe_evals`` column.
    With ``grad_mapping_tol`` set, iteration stops once the unit-step
    gradient mapping norm falls below it (checked with a fresh gradient,
    also n evaluations).
    """
    w = _start_point(problem, w0)
    n = problem.n
    step = problem.side.step_map()
    penalty = problem.side.penalty
    value, value_grad = _full_grad_ops(problem)

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
        f_y, g = value_grad(y)
        state["grad"] += n
        state["probe"] += n
        F_y = f_y + penalty(y)
        noise = eps_slack * max(1.0, abs(f_y))
        for halvings in range(_MAX_HALVINGS + 1):
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
            f"line search stalled after {_MAX_HALVINGS} halvings (step {s:g})"
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
            g = value_grad(x)[1]
            state["grad"] += n
            gm = x - step(x - g, 1.0)
            done = done or float(np.linalg.norm(gm)) <= grad_mapping_tol
        if done or it % record_every == 0:
            rows.add(it, state["grad"], F_x, f_star, t0, probes=state["probe"])
        if done:
            break
    return rows.trace("afg", x, f0, with_probes=True)
