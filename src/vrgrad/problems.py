"""Problem instances: sparse design data, losses, sides, Lipschitz constants.

A problem is a finite average of smooth convex components over a sparse
row-major design matrix, plus an optional linear term shared by every
component, and carries exactly one "side": a polyhedral constraint set
(l1 ball or box) or an l1 regularizer.  Two losses are supported,
averaged least squares and binary logistic regression.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Union

import numpy as np
import scipy.sparse as sp

from .geometry import box_kernel, l1_ball_kernel, soft_threshold_kernel

LEAST_SQUARES = "least_squares"
LOGISTIC = "logistic"


class Loss(NamedTuple):
    """A loss seen through the margins u = X w and the labels y.

    ``mean(u, y)`` is (1/n) sum_i loss(u_i, y_i); ``coef(u, y)`` is the vector
    a with grad f_i = a_i x_i + q; ``scalar(u_i, y_i)`` is one a_i at a
    Python-float margin, as the inner steps call it; ``lipschitz_scale``
    times ||x_i||^2 is component i's smoothness constant; ``signed_labels``
    says the labels must be +1 or -1.
    """

    mean: Callable[[np.ndarray, np.ndarray], float]
    coef: Callable[[np.ndarray, np.ndarray], np.ndarray]
    scalar: Callable[[float, float], float]
    lipschitz_scale: float
    signed_labels: bool


def _squares_mean(u, y):
    r = u - y
    return float(r @ r) / (2.0 * u.size)


def _expit(x):
    """scipy's logistic sigmoid, imported on first use; the import rebinds this name.

    scipy.special costs about 0.1 s to import, and least-squares runs never
    need it.  After the first call the losses look up scipy's ufunc itself,
    so an inner step pays no extra call.
    """
    global _expit
    from scipy.special import expit as _expit
    return _expit(x)


LOSSES = {
    LEAST_SQUARES: Loss(mean=_squares_mean, coef=lambda u, y: u - y,
                        scalar=lambda u, y: u - y, lipschitz_scale=1.0, signed_labels=False),
    # log(1 + exp(-z)) as logaddexp(0, -z): exact for large |z|, no overflow;
    # the coefficient -y sigmoid(-y u) goes through expit, so extreme margins
    # saturate instead of overflowing
    LOGISTIC: Loss(mean=lambda u, y: float(np.logaddexp(0.0, -y * u).sum()) / u.size,
                   coef=lambda u, y: -y * _expit(-y * u),
                   scalar=lambda u, y: -y * float(_expit(-y * u)),
                   lipschitz_scale=0.25, signed_labels=True),
}


class SparseDesignMatrix:
    """Row-major sparse matrix with cached per-row squared norms.

    Parameters
    ----------
    n_rows, n_cols : int
        Matrix shape.
    indptr, indices, data : array_like
        CSR arrays: row i holds the columns ``indices[indptr[i]:indptr[i+1]]``,
        strictly increasing and below ``n_cols``, with finite ``data``.
        The arrays are copied; indices are kept as int64.

    Notes
    -----
    ``row_sq_norms`` is filled at construction so that per-component
    Lipschitz constants are O(1) lookups afterwards.
    """

    def __init__(self, n_rows, n_cols, indptr, indices, data):
        n_rows, n_cols = int(n_rows), int(n_cols)
        if n_rows < 0 or n_cols < 0:
            raise ValueError("matrix shape must be nonnegative")
        indptr = np.array(indptr, dtype=np.int64).ravel()
        indices = np.array(indices, dtype=np.int64).ravel()
        data = np.array(data, dtype=np.float64).ravel()
        counts = np.diff(indptr)
        if (indptr.size != n_rows + 1 or indptr[0] != 0 or np.any(counts < 0)
                or indptr[-1] != indices.size or data.size != indices.size):
            raise ValueError(f"indptr must rise from 0 to nnz in {n_rows + 1} entries, "
                             "with one value per column index")
        rows = np.repeat(np.arange(n_rows), counts)
        bad_index = (indices < 0) | (indices >= n_cols)
        bad_index[1:] |= (indices[1:] <= indices[:-1]) & (rows[1:] == rows[:-1])
        bad = bad_index | ~np.isfinite(data)
        if bad.any():
            i = int(rows[bad.argmax()])
            if bad_index[rows == i].any():
                raise ValueError(
                    f"row {i}: column indices must be strictly increasing and in [0, {n_cols})"
                )
            raise ValueError(f"row {i}: non-finite value")
        self.n_rows, self.n_cols = n_rows, n_cols
        self.indptr, self.indices, self.data = indptr, indices, data
        self._csr = sp.csr_matrix(
            (self.data, self.indices, self.indptr), shape=(n_rows, n_cols), copy=False
        )
        sq = self._csr.multiply(self._csr).sum(axis=1)
        self.row_sq_norms = np.asarray(sq).ravel()

    @classmethod
    def from_dense(cls, arr) -> "SparseDesignMatrix":
        """Build from a dense 2-D array, dropping exact zeros."""
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError("expected a 2-D array")
        csr = sp.csr_matrix(arr)
        return cls(arr.shape[0], arr.shape[1], csr.indptr, csr.indices, csr.data)

    @property
    def shape(self):
        return (self.n_rows, self.n_cols)

    def row(self, i):
        """Return (indices, values) views of row i. No copies."""
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    def matvec(self, w) -> np.ndarray:
        return self._csr @ w

    def rmatvec(self, u) -> np.ndarray:
        return self._csr.T @ u

    def toarray(self) -> np.ndarray:
        return self._csr.toarray()


@dataclass
class LossSpec:
    """Loss family plus labels. Logistic labels must be +/-1."""

    kind: str
    labels: np.ndarray

    def __post_init__(self):
        if self.kind not in LOSSES:
            raise ValueError(f"unknown loss kind {self.kind!r}; valid: {tuple(LOSSES)}")
        self.labels = np.asarray(self.labels, dtype=np.float64).ravel()
        if not np.all(np.isfinite(self.labels)):
            raise ValueError("labels must be finite")
        if LOSSES[self.kind].signed_labels and not np.all(np.abs(self.labels) == 1.0):
            raise ValueError(f"{self.kind} labels must be +1 or -1")


# The three sides share one interface: step_map() is the map (v, s) -> next
# point for a step of size s (the projection, or the l1 prox), built on the
# unchecked geometry kernels because the side was checked when it was built;
# penalty(w) is its term in the objective; diameter is infinite for a penalty.


@dataclass(frozen=True)
class L1Ball:
    """Feasible set {w : ||w||_1 <= tau}, tau > 0."""

    tau: float

    def __post_init__(self):
        if not (self.tau > 0 and np.isfinite(self.tau)):
            raise ValueError("tau must be positive and finite")

    def step_map(self):
        tau = self.tau
        return lambda v, s: l1_ball_kernel(v, tau)

    def penalty(self, w) -> float:
        return 0.0

    @property
    def diameter(self) -> float:
        return 2.0 * self.tau


@dataclass
class Box:
    """Feasible set {w : lower <= w <= upper}, bounds finite."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        self.lower = np.asarray(self.lower, dtype=np.float64).ravel()
        self.upper = np.asarray(self.upper, dtype=np.float64).ravel()
        if self.lower.shape != self.upper.shape:
            raise ValueError("box bounds must have matching shapes")
        if not (np.all(np.isfinite(self.lower)) and np.all(np.isfinite(self.upper))):
            raise ValueError("box bounds must be finite")
        if np.any(self.lower > self.upper):
            raise ValueError("box requires lower <= upper componentwise")

    def step_map(self):
        lower, upper = self.lower, self.upper
        return lambda v, s: box_kernel(v, lower, upper)

    def penalty(self, w) -> float:
        return 0.0

    @property
    def diameter(self) -> float:
        return float(np.linalg.norm(self.upper - self.lower))


@dataclass(frozen=True)
class L1Regularizer:
    """Penalty lam * ||w||_1, lam >= 0 (lam = 0 means plain smooth minimization)."""

    lam: float

    def __post_init__(self):
        if not (self.lam >= 0 and np.isfinite(self.lam)):
            raise ValueError("lam must be nonnegative and finite")

    def step_map(self):
        lam = self.lam
        if lam == 0.0:
            return lambda v, s: v
        return lambda v, s: soft_threshold_kernel(v, s * lam)

    def penalty(self, w) -> float:
        return self.lam * float(np.abs(w).sum()) if self.lam > 0 else 0.0

    diameter = float("inf")


@dataclass
class ProblemSpec:
    """A design matrix, a loss, an optional linear term, and exactly one side.

    The objective is

        f(w) = (1/n) sum_i loss_i(x_i' w) + q' w

    minimized either over the constraint set or with the l1 penalty added.
    """

    matrix: SparseDesignMatrix
    loss: LossSpec
    q: Optional[np.ndarray] = None
    constraint: Optional[Union[L1Ball, Box]] = None
    regularizer: Optional[L1Regularizer] = None

    def __post_init__(self):
        if (self.constraint is None) == (self.regularizer is None):
            raise ValueError("exactly one of constraint or regularizer must be given")
        if self.loss.labels.size != self.matrix.n_rows:
            raise ValueError(
                f"label count {self.loss.labels.size} != row count {self.matrix.n_rows}"
            )
        if self.q is None:
            self.q = np.zeros(self.matrix.n_cols)
        else:
            self.q = np.asarray(self.q, dtype=np.float64).ravel()
            if self.q.size != self.matrix.n_cols:
                raise ValueError(f"q has length {self.q.size}, expected {self.matrix.n_cols}")
            if not np.all(np.isfinite(self.q)):
                raise ValueError("q must be finite")
        if isinstance(self.constraint, Box) and self.constraint.lower.size != self.matrix.n_cols:
            raise ValueError("box bounds must have one entry per column")

    @property
    def n(self) -> int:
        return self.matrix.n_rows

    @property
    def d(self) -> int:
        return self.matrix.n_cols

    @property
    def is_constrained(self) -> bool:
        return self.constraint is not None

    @property
    def side(self) -> Union[L1Ball, Box, L1Regularizer]:
        """Whichever of the constraint and the regularizer is set."""
        return self.constraint if self.constraint is not None else self.regularizer


def _check_w(problem, w):
    w = np.asarray(w, dtype=np.float64).ravel()
    if w.size != problem.d:
        raise ValueError(f"iterate has length {w.size}, expected {problem.d}")
    return w


def smooth_value(problem: ProblemSpec, w) -> float:
    """Smooth part f(w) = (1/n) sum_i loss_i(x_i' w) + q' w."""
    w = _check_w(problem, w)
    u = problem.matrix.matvec(w)
    return LOSSES[problem.loss.kind].mean(u, problem.loss.labels) + float(problem.q @ w)


def margin_coefficients(problem: ProblemSpec, u) -> np.ndarray:
    """Per-component scalar a_i with grad f_i(w) = a_i * x_i + q, at margins u = X w."""
    return LOSSES[problem.loss.kind].coef(u, problem.loss.labels)


def eval_objective(problem: ProblemSpec, w) -> float:
    """Objective at w: f(w) for constrained problems, f(w) + lam*||w||_1 for regularized."""
    w = _check_w(problem, w)
    return smooth_value(problem, w) + problem.side.penalty(w)


def eval_full_grad(problem: ProblemSpec, w) -> np.ndarray:
    """Gradient of the smooth part f at w (one pass over the matrix)."""
    w = _check_w(problem, w)
    u = problem.matrix.matvec(w)
    a = margin_coefficients(problem, u)
    return problem.matrix.rmatvec(a) / problem.n + problem.q


@dataclass
class LipschitzInfo:
    """Per-component and aggregate smoothness constants for one problem.

    ``global_bound`` is a power-iteration estimate of the full-gradient
    constant sigma_max(X)^2 / n (over 4n for logistic); it never exceeds
    the component average, which never exceeds the component max.
    """

    per_component: np.ndarray
    avg: float
    max_component: float
    global_bound: float
    degenerate: np.ndarray = field(repr=False)


_POWER_ITERATIONS = 50  # global_bound's power iteration takes at most this many steps,
_POWER_TOL = 1e-8  # stopping once successive estimates agree to this relative tolerance


def compute_lipschitz_info(problem: ProblemSpec) -> LipschitzInfo:
    """Compute per-component constants and the power-iteration global bound.

    Component i's constant is ||x_i||^2, over 4 for logistic.  A zero row
    gives 0; such components are degenerate and get excluded from
    Lipschitz-proportional sampling.
    """
    scale = LOSSES[problem.loss.kind].lipschitz_scale
    per = problem.matrix.row_sq_norms * scale
    if per.size == 0:
        raise ValueError("problem has no components")
    degenerate = per == 0.0
    n = problem.n
    sigma_sq = _top_singular_sq(problem.matrix)
    return LipschitzInfo(
        per_component=per,
        avg=float(per.mean()),
        max_component=float(per.max()),
        global_bound=sigma_sq * scale / n,
        degenerate=degenerate,
    )


def _top_singular_sq(matrix):
    # largest eigenvalue of X'X by power iteration; fixed-seed start so the
    # result is deterministic and (up to the convergence tolerance) a lower
    # estimate, keeping global_bound <= avg exact
    d = matrix.n_cols
    if d == 0 or matrix.data.size == 0:
        return 0.0
    rng = np.random.Generator(np.random.Philox(0x5EED))
    v = rng.standard_normal(d)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(_POWER_ITERATIONS):
        z = matrix.rmatvec(matrix.matvec(v))
        nz = float(np.linalg.norm(z))
        if nz == 0.0:
            return 0.0
        v = z / nz
        if abs(nz - lam) <= _POWER_TOL * max(nz, 1.0):
            return nz
        lam = nz
    return lam


def aggregate_lipschitz(info: LipschitzInfo, p) -> float:
    """Sampling-weighted constant max_i L_i / (n p_i) for a distribution p.

    Accepts a SamplingDistribution or a plain probability vector.  Requires
    p_i > 0 wherever L_i > 0.  Always at least the component average,
    with equality exactly for Lipschitz-proportional sampling; uniform
    sampling gives the component max.
    """
    probs = np.asarray(getattr(p, "p", p), dtype=np.float64).ravel()
    per = info.per_component
    if probs.size != per.size:
        raise ValueError(f"distribution has {probs.size} entries, expected {per.size}")
    pos = probs > 0.0
    if np.any(per[~pos] > 0.0):
        raise ValueError("zero probability on a component with positive Lipschitz constant")
    if not np.any(pos):
        return 0.0
    n = per.size
    return float(np.max(per[pos] / (n * probs[pos]), initial=0.0))
