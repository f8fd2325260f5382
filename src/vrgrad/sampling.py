"""Seeded component sampling by inverse-CDF search.

The generator is numpy's Philox, a counter-based 64-bit-keyed stream, so a
(mode, Lipschitz data, seed) triple reproduces the same index sequence on
any platform.  Draws binary-search the cached cumulative distribution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .problems import LipschitzInfo

UNIFORM = "uniform"
PROPORTIONAL = "proportional"

# raw probability assigned to a zero-Lipschitz component before renormalizing,
# so proportional mode keeps every index reachable
DEGENERATE_FLOOR_SCALE = 1e-12


@dataclass
class SamplingDistribution:
    """A fixed distribution over component indices, its cumulative sums, and its draw stream."""

    p: np.ndarray
    seed: int
    _gen: np.random.Generator = field(default=None, repr=False)
    cumulative: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        p = np.asarray(self.p, dtype=np.float64).ravel()
        if p.size == 0:
            raise ValueError("empty distribution")
        if np.any(p <= 0.0) or np.any(p > 1.0):
            raise ValueError("probabilities must lie in (0, 1]")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {p.sum()!r}, expected 1")
        self.p = p
        self.cumulative = np.cumsum(p)
        if self._gen is None:
            self._gen = np.random.Generator(np.random.Philox(self.seed))


def build_distribution(mode: str, info: LipschitzInfo, seed: int = 0) -> SamplingDistribution:
    """Build the uniform or Lipschitz-proportional distribution.

    Proportional mode sets p_i = L_i / sum_j L_j, then gives any
    zero-Lipschitz component the floor probability 1e-12/n and
    renormalizes.  All components degenerate is an error.
    """
    per = info.per_component
    n = per.size
    if mode == UNIFORM:
        p = np.full(n, 1.0 / n)
    elif mode == PROPORTIONAL:
        total = per.sum()
        if total <= 0.0:
            raise ValueError("all components degenerate; proportional sampling undefined")
        p = per / total
        if np.any(info.degenerate):
            p[info.degenerate] = DEGENERATE_FLOOR_SCALE / n
            p = p / p.sum()
    else:
        raise ValueError(f"unknown sampling mode {mode!r}; valid: {UNIFORM!r}, {PROPORTIONAL!r}")
    return SamplingDistribution(p=p, seed=int(seed))


def draw(dist: SamplingDistribution) -> int:
    """Draw one index: uniform u, then first i with cumulative[i] > u."""
    u = dist._gen.random()
    i = int(np.searchsorted(dist.cumulative, u, side="right"))
    if i >= dist.p.size:  # guard the u ~ 1.0 edge against cumulative[-1] rounding below 1
        i = dist.p.size - 1
    return i


def draw_many(dist: SamplingDistribution, count: int) -> np.ndarray:
    """Vectorized draws; same stream, same clamping as repeated draw()."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    u = dist._gen.random(count)
    idx = np.searchsorted(dist.cumulative, u, side="right")
    np.minimum(idx, dist.p.size - 1, out=idx)
    return idx
