"""Problem instances: sparse design data, losses, sides, Lipschitz constants.

A problem is a finite average of smooth convex components over a sparse
row-major design matrix, plus an optional linear term shared by every
component, and carries exactly one "side": a polyhedral constraint set
(l1 ball or box) or an l1 regularizer.  Two losses are supported,
averaged least squares and binary logistic regression.
"""

from __future__ import annotations

import functools
import itertools
import math
import weakref
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from .geometry import box_kernel, l1_ball_kernel, soft_threshold_kernel

LEAST_SQUARES = "least_squares"
LOGISTIC = "logistic"


class Loss(NamedTuple):
    """A loss seen through the margins u = X w and the labels y.

    ``mean(u, y)`` is (1/n) sum_i loss(u_i, y_i); ``coef(u, y)`` is the vector
    a with grad f_i = a_i x_i + q; ``scalar(u_i, y_i)`` is one a_i at a
    Python-float margin, as the inner steps call it; ``curvature(u)`` is the
    loss's second derivative in the margin, the same for either label;
    ``lipschitz_scale`` times ||x_i||^2 is component i's smoothness constant
    (the largest curvature); ``signed_labels`` says the labels must be +1 or -1.
    """

    mean: Callable[[np.ndarray, np.ndarray], float]
    coef: Callable[[np.ndarray, np.ndarray], np.ndarray]
    scalar: Callable[[float, float], float]
    curvature: Callable[[np.ndarray], np.ndarray]
    lipschitz_scale: float
    signed_labels: bool


def _dot(x, y) -> float:
    """x' y as numpy's pairwise sum of the products, which ``_epoch.c`` repeats: unlike
    ``x @ y``, a BLAS call, its order does not depend on the CPU or the thread count."""
    return float(np.add.reduce(np.multiply(x, y)))  # x * y then .sum(), with less overhead


def _squares_mean(u, y):
    r = u - y
    return _dot(r, r) / (2.0 * u.size)


def sigmoid(x):
    """The logistic sigmoid 1/(1 + exp(-x)), elementwise, with the bits of scipy's ``expit``."""
    return _kernels().sigmoid(x)


def _sigmoid_slope(u):
    """sigma(u)(1 - sigma(u)), the logistic loss's curvature at the margins u."""
    s = sigmoid(u)
    return s * (1.0 - s)


def _scalar_sigmoid(z: float) -> float:
    """``sigmoid`` of one Python float, with no call into a library: 0.0 where exp overflows.

    The numpy loop takes it once per step.  ``_kernels_probe`` checks that
    ``sigmoid`` agrees with it bit for bit.
    """
    try:
        return 1.0 / (1.0 + math.exp(-z))
    except OverflowError:
        return 0.0


LOSSES = {
    LEAST_SQUARES: Loss(mean=_squares_mean, coef=lambda u, y: u - y, scalar=lambda u, y: u - y,
                        curvature=np.ones_like, lipschitz_scale=1.0, signed_labels=False),
    # log(1 + exp(-z)) as logaddexp(0, -z): exact for large |z|, no overflow;
    # the coefficient -y sigmoid(-y u) saturates at extreme margins instead of
    # overflowing
    LOGISTIC: Loss(mean=lambda u, y: float(np.logaddexp(0.0, -y * u).sum()) / u.size,
                   coef=lambda u, y: -y * sigmoid(-y * u),
                   scalar=lambda u, y: -y * _scalar_sigmoid(-y * u),
                   curvature=_sigmoid_slope, lipschitz_scale=0.25, signed_labels=True),
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
        indptr and indices hold integers, of any dtype; the arrays are copied,
        and indices are kept as int64.

    Notes
    -----
    ``row_sq_norms`` is filled at construction so that per-component
    Lipschitz constants are O(1) lookups afterwards.  Every product and
    norm has the bits scipy.sparse gives for the same CSR arrays: scipy is
    their specification, and it computes them where the compiled library
    does not load (see ``_kernels``).
    """

    def __init__(self, n_rows, n_cols, indptr, indices, data):
        ints = []
        for name, given in (("indptr", indptr), ("indices", indices)):
            given = np.asarray(given).ravel()
            with np.errstate(invalid="ignore"):  # NaN and inf cast to values that fail below
                ints.append(given.astype(np.int64))
            if not np.array_equal(ints[-1], given):  # the cast truncates 0.7 to 0
                raise ValueError(f"{name} must hold integers")
        self._take(n_rows, n_cols, *ints, np.array(data, dtype=np.float64).ravel())

    @classmethod
    def _handed_over(cls, n_rows, n_cols, indptr, indices, data) -> "SparseDesignMatrix":
        """Build from 1-D int64 and float64 CSR arrays that no caller keeps, without a copy."""
        matrix = cls.__new__(cls)
        matrix._take(n_rows, n_cols, indptr, indices, data)
        return matrix

    def _take(self, n_rows, n_cols, indptr, indices, data):
        """Check the CSR arrays and keep them as they are."""
        n_rows, n_cols = int(n_rows), int(n_cols)
        if n_rows < 0 or n_cols < 0:
            raise ValueError("matrix shape must be nonnegative")
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
        # scipy's multiply(X, X).sum(axis=1): squares that are 0 are dropped, and
        # each row left with entries is summed by add.reduceat; a sum past the
        # largest double is inf, without a warning
        with np.errstate(over="ignore"):
            sq = data * data
            if not sq.all():
                kept = sq != 0.0
                sq = sq[kept]
                counts = np.bincount(rows[kept], minlength=n_rows)
            self.row_sq_norms = np.zeros(n_rows)
            filled = counts > 0
            if filled.any():
                starts = np.cumsum(counts) - counts
                self.row_sq_norms[filled] = np.add.reduceat(sq, starts[filled])

    @classmethod
    def from_dense(cls, arr) -> "SparseDesignMatrix":
        """Build from a dense 2-D array, dropping exact zeros."""
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError("expected a 2-D array")
        n_rows, n_cols = arr.shape
        stored = arr != 0  # NaN is stored, so the check below can name it
        indptr = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(np.count_nonzero(stored, axis=1), out=indptr[1:])
        flat = np.flatnonzero(stored)
        del stored
        data = arr.take(flat)
        indices = np.remainder(flat, max(n_cols, 1), out=flat).astype(np.int64, copy=False)
        return cls._handed_over(n_rows, n_cols, indptr, indices, data)

    @property
    def shape(self):
        return (self.n_rows, self.n_cols)

    def row(self, i):
        """Return (indices, values) views of row i. No copies."""
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    def matvec(self, w) -> np.ndarray:
        """X w: row i is its products summed in order."""
        return _kernels().matvec(self, _vector(w, self.n_cols))

    def rmatvec(self, u) -> np.ndarray:
        """X' u: row i's products are added into the result in row order."""
        return _kernels().rmatvec(self, _vector(u, self.n_rows))

    def columns(self, cols, start=0, stop=None) -> np.ndarray:
        """The distinct columns ``cols`` of X, in that order, rows start to stop, dense.

        Each row gets one spare slot, where the entries of the columns left out land.
        """
        k, stop = len(cols), self.n_rows if stop is None else stop
        col = np.full(self.n_cols, -1, dtype=np.int64)
        col[cols] = np.arange(k)
        lo, hi, rows = self.indptr[start], self.indptr[stop], stop - start
        flat = (np.repeat(np.arange(rows) * (k + 1) + 1, np.diff(self.indptr[start:stop + 1]))
                + col[self.indices[lo:hi]])
        out = np.zeros(rows * (k + 1))
        out[flat] = self.data[lo:hi] + 0.0  # scipy adds into zeros: -0.0 comes out +0.0
        return out.reshape(rows, k + 1)[:, 1:].copy()

    def toarray(self) -> np.ndarray:
        return self.columns(np.arange(self.n_cols))


def _vector(x, size):
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.shape != (size,):
        raise ValueError(f"dimension mismatch: vector of shape {x.shape} for {size} entries")
    return x


class _Kernels(NamedTuple):
    matvec: Callable  # (matrix, w) -> X w, w contiguous float64 of the right size
    rmatvec: Callable  # (matrix, u) -> X' u
    sigmoid: Callable  # x -> 1/(1 + exp(-x)) elementwise; a scalar for a scalar


@functools.lru_cache(maxsize=None)  # once per process
def _kernels() -> _Kernels:
    """The products and the sigmoid: the compiled library's, or else scipy's.

    The library of ``_epoch.c`` is built or loaded at the first call, and
    used if it passes ``_kernels_probe``.  Otherwise, quietly, scipy.sparse
    and scipy.special are imported here and do the work; that is the only
    place a product or a sigmoid imports scipy.
    """
    from . import _epoch

    lib = _epoch.library()
    if lib is not None:
        compiled = _compiled_kernels(lib)
        if _kernels_probe(compiled):
            return compiled
    return _scipy_kernels()


def _compiled_kernels(lib) -> _Kernels:
    mv, rmv, sig = lib.vrgrad_matvec, lib.vrgrad_rmatvec, lib.vrgrad_sigmoid

    def matvec(m, w):
        out = np.empty(m.n_rows)
        mv(m.n_rows, m.n_cols, m.indptr.ctypes.data, m.indices.ctypes.data, m.data.ctypes.data,
           w.ctypes.data, out.ctypes.data)
        return out

    def rmatvec(m, u):
        out = np.empty(m.n_cols)
        rmv(m.n_rows, m.n_cols, m.indptr.ctypes.data, m.indices.ctypes.data,
            m.data.ctypes.data, u.ctypes.data, out.ctypes.data)
        return out

    def sigmoid(x):
        x = np.asarray(x, dtype=np.float64, order="C")
        out = np.empty(x.shape)
        sig(x.size, x.ctypes.data, out.ctypes.data)
        return out[()]
    return _Kernels(matvec, rmatvec, sigmoid)


def _scipy_kernels() -> _Kernels:
    import scipy.sparse as sp
    from scipy.special import expit

    csr = weakref.WeakKeyDictionary()  # scipy's copy of each matrix, made at its first product

    def as_csr(m):
        a = csr.get(m)
        if a is None:
            a = csr[m] = sp.csr_matrix((m.data, m.indices, m.indptr), shape=m.shape)
        return a
    return _Kernels(lambda m, w: as_csr(m) @ w, lambda m, u: as_csr(m).T @ u, expit)


def _kernels_probe(kernels: _Kernels) -> bool:
    """Whether the products and sigmoid give the bits of plain Python loops on fixed inputs.

    The 9 x 6 matrix has a run of five full rows, which the compiled
    products take four at a time, then an empty row and partial rows; an
    explicit 0.0 and a -0.0 sit in a full row and in a partial one.  Terms of
    1e16 cancel in the block: summed in another order, a row of X w, or a
    column of X' u over the block's rows, comes out different.  The sigmoid's
    reference is ``_scalar_sigmoid``, at values that saturate, overflow or are
    not finite.
    """
    full = [1e16, -2e16, 1.5, 3.0, 1.0, 0.5, 1e16, 3.0, -1e16, 3.0, 0.0, -0.0,
            1.5, 2e16, -1e16, 3.0, 1.0, -0.5, -1e16, 1.5, 1e16, 6.0, 1.0, 0.25,
            5.0, -3.5, 0.25, 1e-8, 2.0, 1.0]
    indptr = [0, 2, 8, 14, 20, 26, 32, 32, 35, 36]
    indices = [1, 4] + [0, 1, 2, 3, 4, 5] * 5 + [0, 3, 5, 2]
    data = [7.0, -2.5] + full + [0.0, -0.0, 1e-3, 4.5]
    w, u = [1.0, 0.5, 1.0, 0.25, -0.0, 3.0], [0.7, 1.0, 2.0, 0.5, 1.0, -3.25, 11.0, -0.0, 1e-9]
    m = SparseDesignMatrix(9, 6, indptr, indices, data)
    want_mv, want_rmv = [], [0.0] * 6
    for i in range(9):
        s = 0.0
        for k in range(indptr[i], indptr[i + 1]):
            s += data[k] * w[indices[k]]
            want_rmv[indices[k]] += data[k] * u[i]
        want_mv.append(s)
    x = [0.0, -0.0, 0.5, -1.25, 36.7, -36.7, 709.8, -709.8, 745.2, -745.2, 1e308, -1e308,
         math.inf, -math.inf, math.nan]
    want_sig = [_scalar_sigmoid(v) for v in x]
    got = (kernels.matvec(m, np.array(w)), kernels.rmatvec(m, np.array(u)),
           kernels.sigmoid(np.array(x)))
    return all(np.array(want).tobytes() == g.tobytes()
               for want, g in zip((want_mv, want_rmv, want_sig), got))


@dataclass(frozen=True)
class LossSpec:
    """Loss family plus labels. Logistic labels must be +/-1."""

    kind: str
    labels: np.ndarray

    def __post_init__(self):
        if self.kind not in LOSSES:
            raise ValueError(f"unknown loss kind {self.kind!r}; valid: {tuple(LOSSES)}")
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.float64).ravel())
        if not np.all(np.isfinite(self.labels)):
            raise ValueError("labels must be finite")
        if LOSSES[self.kind].signed_labels and not np.all(np.abs(self.labels) == 1.0):
            raise ValueError(f"{self.kind} labels must be +1 or -1")


# The three sides share one interface: step_map() is the map (v, s) -> next
# point for a step of size s (the projection, or the l1 prox), built on the
# unchecked geometry kernels because the side was checked when it was built;
# penalty(w) is its term in the objective; sample(rng, d) draws a point of the
# set; diameter_sq, the squared diameter, and margin_bound(X), the largest |x_i' w|
# there, are inf for a penalty.
# face(g, tol) is the Face where -g is in the normal cone, or in lam times the l1
# subdifferential, a |g_j| within tol of a threshold counting as at it; cut(z) is a
# row (a, b), a' w <= b on the set, that a z meeting the face rows breaks, or None:
# only the whole l1 ball needs one.  The two sets also give rows(d), the whole set
# as explicit rows (C, b), C w <= b, for the certificate's Hoffman bound.


class Face(NamedTuple):
    """A face of a side, coordinate by coordinate, and the penalty's slope on it.

    The face fixes w_j = ``at[j]`` where ``fixed[j]``; every other coordinate
    keeps ``lower[j] <= w_j <= upper[j]`` (bounds of 0 or +-inf say its sign),
    and ``row``, when set, is (a, b) with a' w = b, the l1 ball's sign row.
    On the face the penalty is the linear function ``slope`` ' w.
    """

    fixed: np.ndarray
    at: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    row: Optional[tuple]
    slope: np.ndarray

    def rows(self):
        """The face as explicit rows (E, e, G, h): E w = e and G w <= h."""
        d = self.fixed.size
        eye, free = np.eye(d), ~self.fixed
        E, e = eye[self.fixed], self.at[self.fixed]
        if self.row is not None:
            E, e = np.vstack([E, self.row[0]]), np.append(e, self.row[1])
        up, down = free & (self.upper < np.inf), free & (self.lower > -np.inf)
        return (E, e, np.vstack([eye[up], -eye[down]]),
                np.concatenate([self.upper[up], -self.lower[down]]))


def _signed_face(fixed, s):
    """The face that fixes w_j = 0 where ``fixed`` and keeps sign(s_j) w_j <= 0 elsewhere."""
    s = np.where(fixed, 0.0, s)
    return Face(fixed, np.zeros(s.size), np.where(s < 0, 0.0, -np.inf),
                np.where(s > 0, 0.0, np.inf), None, np.zeros(s.size))


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
    def diameter_sq(self) -> float:
        return (2.0 * self.tau) ** 2

    def sample(self, rng, d) -> np.ndarray:
        g = rng.standard_normal(d)
        l1 = np.abs(g).sum()
        if l1 == 0.0:
            return np.zeros(d)
        return (0.9 * self.tau * rng.random() / l1) * g

    def margin_bound(self, matrix) -> float:
        return self.tau * float(np.max(np.abs(matrix.data), initial=0.0))

    def face(self, g, tol):
        top = float(np.max(np.abs(g), initial=0.0))
        if top <= tol:  # g = 0 exposes the whole ball
            return _signed_face(np.zeros(g.size, dtype=bool), np.zeros(g.size))
        on = np.abs(g) >= top - tol  # w_j = 0 off these, sign(g_j) w_j <= 0 on them
        face = _signed_face(~on, np.sign(g))
        return face._replace(row=(-np.sign(g) * on, self.tau))

    def cut(self, z):
        return None if np.abs(z).sum() <= self.tau * (1.0 + 1e-12) else (np.sign(z), self.tau)

    def rows(self, d):
        """The ball as explicit rows C w <= b: its 2^d sign rows, refused past d = 4."""
        if d > 4:
            raise ValueError(f"explicit l1-ball description has 2^{d} rows; capped at d = 4")
        signs = np.array(list(itertools.product((-1.0, 1.0), repeat=d)))
        return signs, np.full(signs.shape[0], float(self.tau))


@dataclass(frozen=True)
class Box:
    """Feasible set {w : lower <= w <= upper}, bounds finite."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        for name in ("lower", "upper"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64).ravel())
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
    def diameter_sq(self) -> float:
        return float(np.square(self.upper - self.lower).sum())

    def sample(self, rng, d) -> np.ndarray:
        return rng.uniform(self.lower, self.upper)

    def margin_bound(self, matrix) -> float:
        absX = np.abs(matrix.toarray())  # a sparse product may sum in another order
        return float(np.max(absX @ np.maximum(np.abs(self.lower), np.abs(self.upper)), initial=0.0))

    def face(self, g, tol):
        fixed = np.abs(g) > tol  # at lower where g > 0, upper where g < 0
        return Face(fixed, np.where(fixed, np.where(g > 0, self.lower, self.upper), 0.0),
                    self.lower, self.upper, None, np.zeros(g.size))

    def cut(self, z):
        return None

    def rows(self, d):
        """The box as explicit rows [I; -I] w <= [upper; -lower]: its whole face's rows."""
        return self.face(np.zeros(d), 0.0).rows()[2:]


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

    diameter_sq = float("inf")

    def sample(self, rng, d) -> np.ndarray:
        return rng.standard_normal(d)

    def margin_bound(self, matrix) -> float:
        return float("inf")

    def face(self, g, tol):
        if self.lam == 0.0:
            return _signed_face(np.zeros(g.size, dtype=bool), np.zeros(g.size))
        face = _signed_face(np.abs(g) < self.lam - tol, np.sign(g))  # zero, else sign(g_j) w_j <= 0
        # lam |w_j| = -lam sign(g_j) w_j on the face
        return face._replace(slope=-self.lam * np.where(face.fixed, 0.0, np.sign(g)))

    def cut(self, z):
        return None


@dataclass(frozen=True)
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
            object.__setattr__(self, "q", np.zeros(self.matrix.n_cols))
        else:
            object.__setattr__(self, "q", np.asarray(self.q, dtype=np.float64).ravel())
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
    return _smooth_and_margins(problem, _check_w(problem, w))[0]


def _smooth_and_margins(problem, w):
    """``smooth_value`` at a checked w and the margins X w."""
    u = problem.matrix.matvec(w)
    return LOSSES[problem.loss.kind].mean(u, problem.loss.labels) + _dot(problem.q, w), u


def margin_coefficients(problem: ProblemSpec, u) -> np.ndarray:
    """Per-component scalar a_i with grad f_i(w) = a_i * x_i + q, at margins u = X w."""
    return LOSSES[problem.loss.kind].coef(u, problem.loss.labels)


def _coef_and_grad(problem, u):
    """At margins u = X w, the coefficients a of ``margin_coefficients`` and the smooth
    gradient X' a / n + q."""
    a = margin_coefficients(problem, u)
    return a, problem.matrix.rmatvec(a) / problem.n + problem.q


def eval_objective(problem: ProblemSpec, w) -> float:
    """Objective at w: f(w) for constrained problems, f(w) + lam*||w||_1 for regularized."""
    return objective_and_margins(problem, w)[0]


def objective_and_margins(problem: ProblemSpec, w):
    """``eval_objective(problem, w)`` and the margins X w it was computed from."""
    w = _check_w(problem, w)
    value, u = _smooth_and_margins(problem, w)
    return value + problem.side.penalty(w), u


def eval_full_grad(problem: ProblemSpec, w) -> np.ndarray:
    """Gradient of the smooth part f at w (one pass over the matrix)."""
    return _coef_and_grad(problem, problem.matrix.matvec(_check_w(problem, w)))[1]


def gradient_mapping_norm(problem: ProblemSpec, w, g) -> float:
    """Norm of the unit-step gradient mapping w - step_map(w - g, 1), g the gradient at w."""
    r = w - problem.side.step_map()(w - g, 1.0)
    return math.sqrt(_dot(r, r))


@dataclass
class LipschitzInfo:
    """Per-component smoothness constants for one problem, their average and max."""

    per_component: np.ndarray
    avg: float
    max_component: float
    degenerate: np.ndarray = field(repr=False)


def compute_lipschitz_info(problem: ProblemSpec) -> LipschitzInfo:
    """Compute the per-component constants.

    Component i's constant is ||x_i||^2, over 4 for logistic.  A zero row
    gives 0; such components are degenerate and get excluded from
    Lipschitz-proportional sampling.  A row whose squared norm overflows
    (an entry above about 1.34e154) raises ValueError naming the first; a
    sum of finite constants that overflows raises it too.
    """
    per = problem.matrix.row_sq_norms * LOSSES[problem.loss.kind].lipschitz_scale
    if per.size == 0:
        raise ValueError("problem has no components")
    overflow = np.isinf(per)
    if overflow.any():
        raise ValueError(f"row {int(overflow.argmax())}: squared norm overflows a double "
                         "(an entry above about 1.34e154), so its Lipschitz constant is infinite")
    with np.errstate(over="ignore"):
        avg = float(per.mean())
    if math.isinf(avg):
        raise ValueError("the sum of the components' Lipschitz constants overflows a double")
    return LipschitzInfo(
        per_component=per,
        avg=avg,
        max_component=float(per.max()),
        degenerate=per == 0.0,
    )


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
