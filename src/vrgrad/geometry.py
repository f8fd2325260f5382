"""Euclidean projections onto the supported feasible sets, and the l1 prox.

Each operator is defined once, as a kernel that trusts its arguments
(``l1_ball_kernel``, ``box_kernel``, ``soft_threshold_kernel``).  The
solvers check their inputs once per run and then call the kernels on every
inner step; the public functions check their arguments on every call and
then call the same kernels.
"""

from __future__ import annotations

import numpy as np


@np.errstate(over="ignore")  # a sum of finite magnitudes may overflow; the kernel handles it
def project_l1_ball(v, tau: float) -> np.ndarray:
    """Project v onto {w : ||w||_1 <= tau}.

    Sort-and-threshold: the projection is sign(v) * max(|v| - theta, 0)
    where theta >= 0 is the smallest shift making the result feasible.
    Points already inside the ball are returned unchanged (as a copy).

    Raises ValueError for tau <= 0 or non-finite input.
    """
    v = np.asarray(v, dtype=np.float64).ravel()
    if not (tau > 0 and np.isfinite(tau)):
        raise ValueError("tau must be positive and finite")
    if not np.all(np.isfinite(v)):
        raise ValueError("cannot project a non-finite vector")
    return l1_ball_kernel(v, tau)


def project_box(v, lower, upper) -> np.ndarray:
    """Clamp v componentwise into [lower, upper]."""
    v = np.asarray(v, dtype=np.float64).ravel()
    lower = np.asarray(lower, dtype=np.float64).ravel()
    upper = np.asarray(upper, dtype=np.float64).ravel()
    if lower.shape != v.shape or upper.shape != v.shape:
        raise ValueError("box bounds must match the vector shape")
    if np.any(lower > upper):
        raise ValueError("box requires lower <= upper componentwise")
    return box_kernel(v, lower, upper)


def prox_l1(v, threshold: float) -> np.ndarray:
    """Soft-threshold: argmin_w threshold*||w||_1 + 0.5*||w - v||^2."""
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    v = np.asarray(v, dtype=np.float64).ravel()
    return soft_threshold_kernel(v, threshold)


# The sort-and-threshold formula below rounds its partial sums by up to
# size * eps * total.  It is used only while that stays below tau / 2**26,
# so it keeps at least 26 bits of tau.
_RESOLUTION = 2.0 ** 26 * np.finfo(np.float64).eps


def l1_ball_kernel(v: np.ndarray, tau: float) -> np.ndarray:
    """project_l1_ball for a float64 vector v and a positive finite tau, unchecked.

    A non-finite entry in v makes every entry of the result NaN, so a run
    whose iterate overflows fails its next objective check.
    """
    mags = np.abs(v)
    total = mags.sum()
    if total <= tau:
        return v.copy()
    if not tau > total * (v.size * _RESOLUTION):
        # tau lost in the rounding of the sums, an overflowing sum, or a non-finite entry
        return _l1_ball_by_gaps(v, mags, tau)
    # largest k with s_(k) > (s_(1)+...+s_(k) - tau)/k, magnitudes sorted
    # descending; k = 1 passes, as tau exceeds the rounding of s_(1) - tau
    s = np.sort(mags)[::-1]
    csum = np.cumsum(s) - tau
    k = np.nonzero(s > csum / np.arange(1, v.size + 1))[0][-1]
    theta = csum[k] / (k + 1.0)
    return np.sign(v) * np.maximum(mags - theta, 0.0)


def _l1_ball_by_gaps(v, mags, tau):
    """The projection where the sums of magnitudes would swallow tau or overflow.

    The test s_(k) > (s_(1)+...+s_(k) - tau)/k reads D_k < tau with
    D_k = sum_{j<=k} (s_(j) - s_(k)).  D_k is built from the gaps between
    sorted magnitudes, so no sum of magnitudes is formed and tau is never
    added to a much larger number; D_1 = 0, so k = 1 always passes.
    Rescaling by positive homogeneity would not help: it leaves tau as far
    below the magnitudes' rounding as before ([1e308, 1e308] with tau = 1).
    """
    s = np.sort(mags)[::-1]
    if not np.isfinite(s[0]):  # NaN and inf sort to the front
        return np.full(v.size, np.nan)
    with np.errstate(over="ignore"):
        gaps = np.arange(1.0, v.size) * (s[:-1] - s[1:])
        below = np.concatenate(([0.0], np.cumsum(gaps)))
    k = np.nonzero(below < tau)[0][-1]
    shift = (tau - below[k]) / (k + 1.0)
    return np.sign(v) * np.maximum((mags - s[k]) + shift, 0.0)


def box_kernel(v: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """project_box for float64 arrays of one shape with lower <= upper, unchecked.

    maximum then minimum gives np.clip's bits, in about a third of its time
    with array bounds.
    """
    out = np.maximum(v, lower)
    return np.minimum(out, upper, out=out)


def soft_threshold_kernel(v: np.ndarray, threshold: float) -> np.ndarray:
    """prox_l1 for a float64 vector and a nonnegative threshold, unchecked.

    v - clip(v, -t, t) equals sign(v) * max(|v| - t, 0) under ==, in two
    passes over v instead of five; only the sign of a zero entry may differ.
    """
    clipped = v.clip(-threshold, threshold)
    return np.subtract(v, clipped, out=clipped)
