"""Epoch-based variance-reduced solvers and the baselines they compare against.

All stochastic runs are deterministic given (problem, config): index draws
come from the pinned Philox stream in the sampling module and every
floating-point reduction has a fixed order.  Work is accounted in component
gradient evaluations: a full-gradient snapshot costs n, an inner step costs
2 (fresh point and snapshot point), so one variance-reduced epoch with m
inner steps adds n + 2m to the counter.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import sampling
from .problems import (
    LEAST_SQUARES,
    LOGISTIC,
    LOSSES,
    Box,
    L1Ball,
    L1Regularizer,
    LipschitzInfo,
    LossSpec,
    ProblemSpec,
    SparseDesignMatrix,
    _coef_and_grad,
    _dot,
    _smooth_and_margins,
    aggregate_lipschitz,
    compute_lipschitz_info,
    objective_and_margins,
)


class DivergenceError(RuntimeError):
    """Objective blew up or went non-finite; message names the epoch."""


class LineSearchError(RuntimeError):
    """Backtracking line search halved past its budget without acceptance."""


_DIVERGENCE_FACTOR = 1e3  # an epoch objective past f0 + this * max(1, |f0|) diverged
_MAX_HALVINGS = 60  # run_afg's line search gives up after this many in a row


@dataclass(frozen=True)
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
        for name in ("epochs", "inner_iterations", "seed"):  # range, draw_many and Philox take ints
            value = getattr(self, name)
            if value is None and name == "inner_iterations":
                continue
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, not {value!r}")
        for name in ("step_size", "sgd_initial_step"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, not {value!r}")
        flag = self.average_epoch_output
        if not isinstance(flag, (bool, np.bool_)):
            raise ValueError(f"average_epoch_output must be a bool, not {flag!r}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not (self.step_size > 0 and np.isfinite(self.step_size)):
            raise ValueError("step_size must be positive and finite")
        if self.inner_iterations is not None and self.inner_iterations < 1:
            raise ValueError("inner_iterations must be >= 1")
        if not (self.sgd_initial_step >= 0 and np.isfinite(self.sgd_initial_step)):
            raise ValueError("sgd_initial_step must be nonnegative and finite")


@dataclass
class RunTrace:
    """Per-epoch progress rows plus the final iterate.

    ``gap`` is objective minus the supplied reference value, NaN when no
    reference was given.  ``probe_evals`` is only filled by the accelerated
    baseline and counts the extra function evaluations its line search
    spends, kept separate from ``grad_evals`` so budget comparisons stay
    honest.
    """

    epoch: np.ndarray
    grad_evals: np.ndarray
    objective: np.ndarray
    gap: np.ndarray
    wall_ms: np.ndarray
    final_iterate: np.ndarray
    initial_objective: float
    theory_warning: bool = False
    probe_evals: Optional[np.ndarray] = None


def _trace(rows, f_star, w, f0, theory_warning=False) -> RunTrace:
    """The RunTrace of rows (epoch, grad_evals, objective, wall_ms), AFG's with
    probe_evals last; the gap is objective - f_star, or NaN without f_star."""
    epoch, grad_evals, objective, wall_ms, *probe_evals = zip(*rows)
    objective = np.asarray(objective, dtype=np.float64)
    return RunTrace(
        epoch=np.asarray(epoch, dtype=np.int64),
        grad_evals=np.asarray(grad_evals, dtype=np.int64),
        objective=objective,
        gap=objective - f_star if f_star is not None else np.full(objective.size, np.nan),
        wall_ms=np.asarray(wall_ms, dtype=np.float64),
        final_iterate=w,
        initial_objective=f0,
        theory_warning=theory_warning,
        probe_evals=np.asarray(probe_evals[0], dtype=np.int64) if probe_evals else None,
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
    pw = problem.side.step_map()(w, 0.0)  # a penalty's step of size 0 returns w's values
    if not np.allclose(pw, w, rtol=0.0, atol=1e-12):
        return pw
    return w


@np.errstate(over="ignore", invalid="ignore")  # a blow-up is reported by the epoch check
def _epochs(problem, record, w_tilde, dist, labels, step_size, m, sgd=False, average=False,
            steps=None, margins=None):
    """The one epoch loop, in which every stochastic runner takes its inner steps.

    A variance-reduced epoch takes the full gradient at the snapshot, then m steps
        v = (grad f_i(w) - grad f_i(snapshot)) / (n p_i) + snapshot gradient
        w <- step_map(w - eta v)
    and outputs the average of the m inner iterates (the last one without
    ``average``), for n + 2m gradient evaluations.  An ``sgd`` epoch is the
    same step from a zero snapshot, so the snapshot gradient is q, with a
    weight of exactly 1 (n * (1/n) rounds below 1 for n = 49) and eta =
    step_size/sqrt(t) at global step t; it outputs its last iterate, for n
    evaluations.

    The snapshot, one draw_many call and the epoch check stay here; the m
    steps are one call of ``steps``, by default ``_inner_steps(problem)``.
    Nothing is checked per step: ``record(label, cost, output, step_size)``
    checks each epoch's output, and a NaN iterate stays NaN until then.  It
    returns the output's margins X w, or None; a snapshot takes them, or
    ``margins`` for the first w_tilde, rather than multiply again.  The loop
    returns (w, margins): the last epoch's output and what its ``record`` returned.
    """
    mat, n = problem.matrix, problem.n
    steps = steps or _inner_steps(problem)
    if sgd:
        t, cost = 0, n
        snap_coef, weight = np.zeros(n), np.ones(n)
        eta_snap_grad = np.zeros(problem.d)
    else:
        t, cost = None, n + 2 * m
        weight = n * dist.p

    for k in labels:
        if not sgd:
            snap_coef, snap_grad = _coef_and_grad(
                problem, mat.matvec(w_tilde) if margins is None else margins)
            eta_snap_grad = step_size * snap_grad
        w_tilde = steps(w_tilde, sampling.draw_many(dist, m), snap_coef, weight,
                        step_size, eta_snap_grad, average, t)
        if sgd:
            t += m
        margins = record(k, cost, w_tilde, step_size)
    return w_tilde, margins


def _numpy_steps(problem):
    """One epoch's inner steps as a numpy loop: the specification of ``_epoch.c``.

    The returned ``steps(w, draws, snap_coef, weight, eta, eta_snap_grad,
    average, t)`` takes a step from w for each drawn row i, with the
    snapshot coefficient ``snap_coef[i]``, the weight n p_i and
    ``eta_snap_grad``, eta times the snapshot gradient.  With ``t`` set it
    is an SGD epoch instead: its step t' (counted on from t) is
    eta/sqrt(t'), with eta_snap_grad zero, or eta/sqrt(t') times q.  It
    returns the average of the iterates, or the last one.  A step does O(d)
    vector work; a row that holds every column is used whole rather than
    gathered and scattered through its indices.
    """
    mat, d = problem.matrix, problem.d
    step = problem.side.step_map()
    coef = LOSSES[problem.loss.kind].scalar
    y = problem.loss.labels.tolist()
    q, has_q = problem.q, bool(np.any(problem.q))
    indptr, indices, values = mat.indptr.tolist(), mat.indices, mat.data

    @np.errstate(over="ignore", invalid="ignore")
    def steps(w, draws, snap_coef, weight, eta, eta_snap_grad, average, t):
        snap_coef, weight, eta0 = snap_coef.tolist(), weight.tolist(), eta
        acc = np.zeros(d) if average else None
        for i in draws.tolist():
            if t is not None:
                t += 1
                eta = eta0 / math.sqrt(t)
                if has_q:  # eta times a zero q stays zero
                    eta_snap_grad = eta * q
            lo, hi = indptr[i], indptr[i + 1]
            val = values[lo:hi]
            v = w - eta_snap_grad  # w is never written in place: each step makes a new vector
            if hi - lo == d:  # a full row's indices are 0..d-1: no gather or scatter
                c = (coef(_dot(val, w), y[i]) - snap_coef[i]) / weight[i]
                v -= (eta * c) * val
            else:
                idx = indices[lo:hi]
                c = (coef(_dot(val, w[idx]), y[i]) - snap_coef[i]) / weight[i]
                v[idx] -= (eta * c) * val
            w = step(v, eta)
            if average:
                acc += w
        return acc / draws.size if average else w
    return steps


# the loss and side codes of _epoch.c; _IDENTITY is the penalty at lam = 0
_LOSS_CODES = {LEAST_SQUARES: 0, LOGISTIC: 1}
_BALL, _BOX, _PENALTY, _IDENTITY = range(4)


def _side_args(side):
    """(code, radius, lower, upper): the side as ``_epoch.c`` steps it."""
    if isinstance(side, L1Ball):
        return _BALL, side.tau, None, None
    if isinstance(side, Box):
        return _BOX, 0.0, side.lower, side.upper
    return (_PENALTY if side.lam > 0 else _IDENTITY), side.lam, None, None


def _compiled_steps(problem, lib):
    """``_numpy_steps(problem)``'s steps through ``vrgrad_steps`` of ``_epoch.library()``."""
    fn = lib.vrgrad_steps
    mat = problem.matrix
    code, radius, lower, upper = _side_args(problem.side)
    q = problem.q if np.any(problem.q) else None
    fixed = (problem.d, mat.indptr, mat.indices, mat.data, problem.loss.labels,
             _LOSS_CODES[problem.loss.kind], code, radius, lower, upper)
    fixed = [a.ctypes.data if isinstance(a, np.ndarray) else a for a in fixed]
    q_ptr = None if q is None else q.ctypes.data

    def steps(w, draws, snap_coef, weight, eta, eta_snap_grad, average, t):
        w = np.array(w, dtype=np.float64)
        acc = np.zeros(problem.d) if average else None
        draws = np.ascontiguousarray(draws, dtype=np.int64)
        snap_coef = np.ascontiguousarray(snap_coef, dtype=np.float64)
        weight = np.ascontiguousarray(weight, dtype=np.float64)
        eta_snap_grad = np.ascontiguousarray(eta_snap_grad, dtype=np.float64)
        if fn(*fixed, draws.ctypes.data, draws.size, snap_coef.ctypes.data, weight.ctypes.data,
              eta, eta_snap_grad.ctypes.data, -1 if t is None else t, q_ptr, w.ctypes.data,
              None if acc is None else acc.ctypes.data):
            raise MemoryError("no scratch memory for the inner steps")
        return acc / draws.size if average else w
    return steps


def _inner_steps(problem):
    """The C kernel of ``_epoch.c``, or else, quietly, the numpy loop ``_numpy_steps``.

    The kernel runs where the library builds (with the system gcc, for the
    host's vector ISA, cached in this package's ``__pycache__`` under a
    hash of source and flags) and passes ``_probe`` for this side and
    loss.  The two give the same bits:
    the kernel repeats the loop's operations in its order, and sums the row
    dot ``_dot`` and the l1 norm pairwise as numpy does.  Neither calls a
    BLAS, so the bits do not depend on the CPU or the BLAS thread count.
    It saves work only where no bit can move: the l1-ball threshold sorts
    only the support that Michelot's iteration finds from the previous
    step's bound.  Under the l1 penalty, a call that draws a row with fewer
    than d entries steps packed slots, one for each coordinate not at +0 or
    with |eta g_j| above eta lam, in one vectorised pass, then the row's
    coordinates with the row's term, giving a slot to any that leaves +0;
    when more than half the slots hold +0 with |eta g_j| <= eta lam, those
    are dropped.  Such a step costs O(slots + row) instead of O(d).  A call
    whose drawn rows are all full takes the dense loop of the ball and the box.
    """
    from . import _epoch

    lib = _epoch.library()
    if lib is not None and _probe(_side_args(problem.side)[0], problem.loss.kind):
        return _compiled_steps(problem, lib)
    return _numpy_steps(problem)


# row lengths that take every branch of the pairwise sum: a block of eight with and
# without a remainder, and the recursion with one or two blocks after the split
_PROBE_LENGTHS = (8, 9, 16, 129, 137)


def _dot_probe_designs(rng):
    """A full row of each of ``_PROBE_LENGTHS`` entries, one design each, then a gathered
    row of each in one design, under a full row of negative entries.

    At a constant w, the products of entries 16k and 16k + 8, 1e16 times the
    others and of opposite signs, cancel: numpy's pairwise sum adds them in one
    accumulator, exactly, and any other order rounds the terms between them
    differently.  At w = 0 the negative row's products are all -0.0.
    """
    wide = np.zeros((len(_PROBE_LENGTHS) + 1, _PROBE_LENGTHS[-1] + 1))
    wide[0] = -1.0 - rng.random(wide.shape[1])
    designs = []
    for r, length in enumerate(_PROBE_LENGTHS, 1):
        scale = 256.0 / math.sqrt(length)  # margins of about one at w = 1/256
        row = scale * rng.standard_normal(length)
        pairs = np.arange(0, length - 8, 16)
        row[pairs], row[pairs + 8] = 1e16 * scale, -1e16 * scale
        wide[r, np.sort(rng.choice(wide.shape[1], length, replace=False))] = row
        designs.append(row[None, :])
    return designs + [wide]


@functools.lru_cache(maxsize=None)  # once per process, side and loss
def _probe(code, loss):
    """Whether both loops give the same bits on fixed problems with this side and loss.

    A 12 x 7 problem's rows are full, empty and partial, q is nonzero, and it
    runs an SGD epoch (under a constraint) and averaged and last-iterate
    epochs; under the l1 penalty, so does a 12 x 7 problem of full rows, whose
    epochs the kernel steps densely rather than through its slots.  Then each
    row of ``_dot_probe_designs`` takes one step from w = 0 and from
    w = +-1/256, a step that moves w by up to about 0.1: so its row dot must
    come out as numpy's pairwise sum does.  Under the l1 penalty,
    ``_probe_slot_drops`` adds a long epoch on a wide sparse design.
    """
    from . import _epoch

    rng = np.random.Generator(np.random.Philox(0xE90C))
    n, d = 12, 7
    X = rng.standard_normal((n, d)) * (rng.random((n, d)) < 0.6)
    X[0], X[1] = rng.standard_normal(d), 0.0
    y, q = np.where(rng.random(n) < 0.5, -1.0, 1.0), 0.1 * rng.standard_normal(d)
    epoch_designs = [X] + ([rng.standard_normal((n, d))] if code == _PENALTY else [])
    runs = ([], [])
    for k, X in enumerate(epoch_designs + _dot_probe_designs(rng)):
        n, d = X.shape
        if k >= len(epoch_designs):  # margins, not labels, make a least-squares coefficient
            y, q = np.ones(n) if loss == LOGISTIC else np.zeros(n), None
        lower, upper = np.full(d, -0.3), np.full(d, 0.3)
        lower[0] = upper[0] = 0.1
        side = {_BALL: L1Ball(tau=0.5), _BOX: Box(lower=lower, upper=upper),
                _PENALTY: L1Regularizer(lam=0.05), _IDENTITY: L1Regularizer(lam=0.0)}[code]
        problem = ProblemSpec(matrix=SparseDesignMatrix.from_dense(X),
                              loss=LossSpec(kind=loss, labels=y), q=q,
                              **{"constraint" if code < _PENALTY else "regularizer": side})
        for out, steps in zip(runs, (_numpy_steps(problem),
                                     _compiled_steps(problem, _epoch.library()))):
            if k >= len(epoch_designs):
                for i, start in itertools.product(range(n), (0.0, 1.0 / 256, -1.0 / 256)):
                    w = steps(np.full(d, start), np.array([i]), np.zeros(n), np.ones(n),
                              0.1 / np.abs(X[i]).max(), np.zeros(d), False, None)
                    out.append((w + 0.0).tobytes())
                continue

            def record(label, cost, w, step_size):
                out.append((w + 0.0).tobytes())
            w = np.zeros(d)
            dist = sampling.SamplingDistribution(p=np.full(n, 1.0 / n), seed=1)
            if code < _PENALTY:  # SGD runs under a constraint only
                w, _ = _epochs(problem, record, w, dist, range(1), 0.5, n, sgd=True,
                               steps=steps)
            for average in (True, False):
                w, _ = _epochs(problem, record, w, dist, range(2), 0.05, n, average=average,
                               steps=steps)
    if code == _PENALTY:
        _probe_slot_drops(rng, loss, runs)
    return runs[0] == runs[1]


def _probe_slot_drops(rng, loss, runs):
    """Add to each of ``runs`` the bytes of an epoch, averaged and not, of 80 steps on
    a 40 x 400 design of 10 entries a row, from a w with 100 small nonzeros and
    with eta g about half the threshold 0.1: the kernel's penalty slots are made
    in mid-epoch and dropped again many times."""
    from . import _epoch

    n, d = 40, 400
    X = np.zeros((n, d))
    for row in X:
        row[rng.choice(d, 10, replace=False)] = rng.standard_normal(10)
    y = np.where(rng.random(n) < 0.5, -1.0, 1.0) if loss == LOGISTIC else rng.standard_normal(n)
    problem = ProblemSpec(matrix=SparseDesignMatrix.from_dense(X),
                          loss=LossSpec(kind=loss, labels=y), regularizer=L1Regularizer(lam=0.2))
    w = np.zeros(d)
    w[rng.choice(d, 100, replace=False)] = 0.05 * rng.standard_normal(100)
    draws, snap_coef = rng.integers(0, n, 2 * n), 0.1 * rng.standard_normal(n)
    g = 0.05 * rng.standard_normal(d)
    for out, steps in zip(runs, (_numpy_steps(problem),
                                 _compiled_steps(problem, _epoch.library()))):
        for average in (True, False):
            out.append(steps(w, draws, snap_coef, np.ones(n), 0.5, g, average, None).tobytes())


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
    with np.errstate(over="ignore", invalid="ignore"):  # an f0 that overflows fails the epoch check
        f0, margins = objective_and_margins(problem, w)
    threshold = f0 + _DIVERGENCE_FACTOR * max(1.0, abs(f0))
    rows, t0 = [], time.perf_counter()

    def record(k, cost, w_k, step_size):
        f_val, margins = objective_and_margins(problem, w_k)
        if not np.isfinite(f_val) or f_val > threshold:
            raise DivergenceError(
                f"{algorithm} diverged at epoch {k}: objective {f_val:g} "
                f"(started at {f0:g}); step size {step_size:g} is likely too large"
            )
        evals = rows[-1][1] + cost if rows else cost
        rows.append((k, evals, f_val, (time.perf_counter() - t0) * 1e3))
        return margins

    eta0, epochs = config.sgd_initial_step, range(1, config.epochs + 1)
    if algorithm in ("sgd", "vrpsg2"):
        warm = algorithm == "vrpsg2"  # one epoch, row 0, and no step at all when eta0 = 0
        seed = (config.seed ^ 0x7A5C9D1B) & 0xFFFFFFFFFFFFFFFF if warm else config.seed
        uniform = sampling.SamplingDistribution(p=np.full(n, 1.0 / n), seed=int(seed))
        w, margins = _epochs(problem, record, w, uniform, range(1) if warm else epochs, eta0,
                             n if eta0 > 0 else 0, sgd=True)
    if algorithm != "sgd":
        m = config.inner_iterations if config.inner_iterations is not None else n
        w, _ = _epochs(problem, record, w, dist, epochs, config.step_size, m,
                       average=config.average_epoch_output, margins=margins)
    return _trace(rows, f_star, w, f0, theory_warning)


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
        The constants ``compute_lipschitz_info`` gives, when the caller has
        them already; computed here otherwise.

    Returns
    -------
    RunTrace
        One row per epoch; ``grad_evals`` at epoch k is exactly k(n + 2m).
        Every recorded iterate is feasible up to the projection's rounding
        (averages of projections stay inside the convex feasible set; an
        l1-ball projection can land a few ulps of tau outside).
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
    stochastic gradient descent.  ``info`` is as for run_vrpsg.
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


@np.errstate(over="ignore", invalid="ignore")  # a value that overflows fails the line search
def run_afg(problem: ProblemSpec, config: SolverConfig, w0=None, f_star=None) -> RunTrace:
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
    """
    rows, t0 = [], time.perf_counter()
    iterations = _afg_iterations(problem, w0, config.step_size)
    x, f0, _, _ = next(iterations)
    for it, (x, F_x, grads, probes) in zip(range(1, config.epochs + 1), iterations):
        rows.append((it, grads, F_x, (time.perf_counter() - t0) * 1e3, probes))
    return _trace(rows, f_star, x, f0)


def _afg_iterations(problem: ProblemSpec, w0, step_size):
    """``run_afg``'s iterations from w0 with first step ``step_size``.

    Yields (x, F(x), gradient evaluations, probe evaluations) at the start
    and after each iteration, the counts so far; the caller decides when to stop.
    """
    x = _start_point(problem, w0)
    n = problem.n
    step = problem.side.step_map()
    penalty = problem.side.penalty

    def value(w):
        return _smooth_and_margins(problem, w)[0]

    def value_grad(w):  # the smooth value and gradient from one matvec
        f, u = _smooth_and_margins(problem, w)
        return f, _coef_and_grad(problem, u)[1]

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
            if f_c <= f_y + _dot(g, diff) + _dot(diff, diff) / (2.0 * s) + noise:
                drop = F_y - (f_c + penalty(cand))
                may_grow = halvings == 0 and drop > 100.0 * noise
                return cand, f_c, s, may_grow
            s *= 0.5
        raise LineSearchError(
            f"line search stalled after {_MAX_HALVINGS} halvings (step {s:g})"
        )

    y = x.copy()
    t = 1.0
    s = step_size
    F_x = value(x) + penalty(x)
    state["probe"] += n
    # a restart below this margin would be reacting to float noise and only
    # drags the endgame back to the unaccelerated rate
    restart_margin = 1e-13

    may_grow = True
    yield x, F_x, state["grad"], state["probe"]
    while True:
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
        if _dot(base - x, x - x_prev) > 0.0:
            t = 1.0
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = x + ((t - 1.0) / t_next) * (x - x_prev)
        t = t_next
        yield x, F_x, state["grad"], state["probe"]
