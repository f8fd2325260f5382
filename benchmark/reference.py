"""Independent numerics for checking vrgrad's outputs.

Nothing here imports vrgrad.  The matrices are built by the benchmark
itself, and the optimal values come from a plain accelerated projected or
proximal gradient method (FISTA with function-value restarts) with its own
l1-ball projection by bisection, soft-threshold and clamp.
"""

from __future__ import annotations

import numpy as np

LEAST_SQUARES = "least_squares"
LOGISTIC = "logistic"


# ---------------------------------------------------------------- data

def synthetic_recipe(spec):
    """Dense (X, y) for a vrgrad synthetic dataset config, from its documented recipe.

    A rank-``rank`` Gaussian product from a Philox(seed) stream, rows rescaled
    to norms running geometrically from 1 to ``row_scale_spread``, labels from
    a planted parameter on ceil(d/10) coordinates with magnitudes in [3, 6).
    """
    n, d, rank, seed = spec["n"], spec["d"], spec["rank"], spec["seed"]
    task, noise_std = spec["task"], spec["noise_std"]
    row_scale_spread = spec["row_scale_spread"]
    rng = np.random.Generator(np.random.Philox(seed))
    X = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, d))
    norms = np.linalg.norm(X, axis=1)
    scales = row_scale_spread ** (np.arange(n) / (n - 1.0))
    X *= (scales / norms)[:, None]
    k = -(-d // 10)
    support = rng.choice(d, size=k, replace=False)
    w_true = np.zeros(d)
    w_true[support] = rng.choice([-1.0, 1.0], size=k) * (3.0 + 3.0 * rng.random(k))
    margins = X @ w_true
    noisy = margins + noise_std * rng.standard_normal(n)
    y = noisy if task == LEAST_SQUARES else np.where(noisy >= 0.0, 1.0, -1.0)
    return X, y


# ---------------------------------------------------------------- sides

def project_l1_ball(v, tau):
    """Euclidean projection onto {||w||_1 <= tau}; the threshold theta by bisection.

    theta lies in (lo, hi].  Each halving settles the magnitudes on one side
    of the midpoint: those below it are inactive for every theta left, those
    above it are active and enter a running sum.  When no magnitude is left
    unsettled, theta follows exactly from the active sum.
    """
    a = np.abs(v)
    if a.sum() <= tau:
        return v.copy()
    lo, hi = 0.0, float(a.max())
    open_ = a
    act_sum, act_count = 0.0, 0
    while open_.size:
        mid = 0.5 * (lo + hi)
        above = open_[open_ > mid]
        excess = act_sum + above.sum() - (act_count + above.size) * mid
        if excess > tau:
            lo, open_ = mid, above
        else:
            hi, open_ = mid, open_[open_ <= mid]
            act_sum += above.sum()
            act_count += above.size
        if not lo < 0.5 * (lo + hi) < hi:  # interval exhausted in floating point
            act_sum += open_.sum()
            act_count += open_.size
            break
    theta = (act_sum - tau) / act_count
    return np.sign(v) * np.maximum(a - theta, 0.0)


def soft_threshold(v, t):
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def clamp(v, lower, upper):
    return np.minimum(np.maximum(v, lower), upper)


class Side:
    """One of: l1 ball (tau), box (lower, upper), l1 penalty (lam)."""

    def __init__(self, kind, tau=None, lower=None, upper=None, lam=None):
        self.kind, self.tau, self.lower, self.upper, self.lam = kind, tau, lower, upper, lam

    def step(self, v, s):
        if self.kind == "l1_ball":
            return project_l1_ball(v, self.tau)
        if self.kind == "box":
            return clamp(v, self.lower, self.upper)
        return soft_threshold(v, s * self.lam)

    def penalty(self, w):
        return self.lam * float(np.abs(w).sum()) if self.kind == "l1" else 0.0

    def violation(self, w):
        """How far w lies outside the feasible set (0 when feasible)."""
        if not np.all(np.isfinite(w)):
            return np.inf
        if self.kind == "l1_ball":
            return max(0.0, float(np.abs(w).sum()) - self.tau)
        if self.kind == "box":
            return float(max(np.max(self.lower - w, initial=0.0),
                             np.max(w - self.upper, initial=0.0)))
        return 0.0


# ---------------------------------------------------------------- losses

def _sigmoid(z):
    e = np.exp(-np.abs(z))
    return np.where(z >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


class Objective:
    """(1/n) sum_i loss(x_i' w, y_i) plus the side's penalty, on X the benchmark built."""

    def __init__(self, X, y, loss, side):
        self.X, self.y, self.loss, self.side = X, np.asarray(y, dtype=np.float64), loss, side
        self.n = X.shape[0]

    def smooth(self, w):
        u = self.X @ w
        if self.loss == LEAST_SQUARES:
            r = u - self.y
            return float(r @ r) / (2.0 * self.n)
        return float(np.logaddexp(0.0, -self.y * u).sum()) / self.n

    def value(self, w):
        return self.smooth(w) + self.side.penalty(w)

    def grad(self, w):
        u = self.X @ w
        if self.loss == LEAST_SQUARES:
            a = u - self.y
        else:
            a = -self.y * _sigmoid(-self.y * u)
        return self.X.T @ a / self.n

    def smoothness(self):
        """sigma_max(X)^2 / n (over 4n for logistic), by dense SVD or sparse power iteration."""
        if isinstance(self.X, np.ndarray):
            s = np.linalg.norm(self.X, 2) ** 2
        else:
            rng = np.random.Generator(np.random.Philox(1))
            v = rng.standard_normal(self.X.shape[1])
            s = 0.0
            for _ in range(500):
                z = self.X.T @ (self.X @ v)
                s_new = float(np.linalg.norm(z))
                v = z / s_new
                if abs(s_new - s) <= 1e-12 * s_new:
                    break
                s = s_new
            s = s_new * (1.0 + 1e-6)  # power iteration approaches from below
        return s / self.n / (1.0 if self.loss == LEAST_SQUARES else 4.0)


def optimal_value(obj: Objective, tol=1e-9, floor_tol=1e-7, max_iterations=100_000):
    """f* by FISTA with function-value restarts.

    Stops when the gradient mapping L ||x - step(x - grad/L)|| falls below
    ``tol``, or when even a plain step from x no longer lowers the objective
    in floating point and the gradient mapping there is below ``floor_tol``.
    Returns (f_star, w_star); raises RuntimeError otherwise, so a wrong f*
    never passes silently into a check.
    """
    L = obj.smoothness()
    s = 1.0 / L
    x = obj.side.step(np.zeros(obj.X.shape[1]), s)
    F_x = obj.value(x)
    y, t = x, 1.0
    for it in range(1, max_iterations + 1):
        x_new = obj.side.step(y - s * obj.grad(y), s)
        F_new = obj.value(x_new)
        if F_new > F_x:
            if y is x:  # even a plain step no longer descends: float floor
                gm = L * float(np.linalg.norm(x_new - x))
                if gm <= floor_tol:
                    return F_x, x
                break
            y, t = x, 1.0  # momentum overshot: restart from x
            continue
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = x_new + ((t - 1.0) / t_new) * (x_new - x)
        x, F_x, t = x_new, F_new, t_new
        if it % 50 == 0:
            gm = L * float(np.linalg.norm(x - obj.side.step(x - s * obj.grad(x), s)))
            if gm <= tol:
                return F_x, x
    raise RuntimeError("reference FISTA did not converge")
