"""Projection and prox operators against an independent bisection oracle.

The l1-ball oracle here deliberately avoids the sort-based construction the
library uses: the optimal shift theta solves sum_j max(|v_j| - theta, 0) =
tau, and the left side is continuous, nonincreasing and piecewise linear in
theta, so plain bisection on [0, max|v|] pins it to any tolerance.  Agreement
between the two derivations is the correctness evidence.
"""

import numpy as np
import pytest

from vrgrad.geometry import l1_ball_kernel, project_box, project_l1_ball, prox_l1


def l1_project_bisection(v, tau, iters=200):
    """Reference projection via bisection on the shift theta."""
    v = np.asarray(v, dtype=np.float64)
    mags = np.abs(v)
    if mags.sum() <= tau:
        return v.copy()
    lo, hi = 0.0, mags.max()
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if np.maximum(mags - mid, 0.0).sum() > tau:
            lo = mid
        else:
            hi = mid
    theta = 0.5 * (lo + hi)
    return np.sign(v) * np.maximum(mags - theta, 0.0)


def random_case(rng, j):
    """Vectors mixing scales, exact ties, zeros, and near-boundary points."""
    d = int(rng.integers(1, 60))
    kind = j % 5
    if kind == 0:
        v = rng.standard_normal(d)
    elif kind == 1:
        # integer magnitudes force exact ties at the threshold
        v = rng.integers(-4, 5, d).astype(np.float64)
    elif kind == 2:
        # six decades of scale; past ~1e3 the comparison drowns in ulp noise
        v = 10.0 ** rng.uniform(-3, 3) * rng.standard_normal(d)
    elif kind == 3:
        v = rng.standard_normal(d)
        v[rng.integers(0, d)] = 0.0
        if d > 1:
            v[d // 2] = v[0]  # duplicated entry, another tie source
    else:
        v = rng.standard_normal(d)
        v *= rng.uniform(0.9, 1.1) / max(np.abs(v).sum(), 1e-12)
    tau = float(10.0 ** rng.uniform(-3, 2))
    return v, tau


def test_l1_projection_matches_bisection_oracle():
    rng = np.random.Generator(np.random.Philox(7))
    worst = 0.0
    for j in range(1000):
        v, tau = random_case(rng, j)
        p = project_l1_ball(v, tau)
        ref = l1_project_bisection(v, tau)
        err = float(np.max(np.abs(p - ref))) if v.size else 0.0
        worst = max(worst, err / max(tau, 1.0))
        assert err <= 1e-10 * max(1.0, tau), (j, err, tau)
    assert worst <= 1e-10


def test_l1_projection_feasible_and_idempotent():
    rng = np.random.Generator(np.random.Philox(8))
    for j in range(200):
        v, tau = random_case(rng, j)
        p = project_l1_ball(v, tau)
        slack = 1e-12 * max(1.0, float(np.abs(v).max() if v.size else 0.0))
        assert np.abs(p).sum() <= tau + slack
        assert np.allclose(project_l1_ball(p, tau), p, rtol=0.0, atol=1e-10)


def test_l1_projection_is_closest_feasible_point():
    # Projection minimizes the distance: no random feasible point does better.
    rng = np.random.Generator(np.random.Philox(9))
    for _ in range(100):
        d = int(rng.integers(2, 20))
        v = 3.0 * rng.standard_normal(d)
        tau = float(rng.uniform(0.1, 3.0))
        p = project_l1_ball(v, tau)
        best = float(np.dot(v - p, v - p))
        for _ in range(20):
            z = rng.standard_normal(d)
            z *= tau * rng.random() / max(np.abs(z).sum(), 1e-12)
            assert best <= np.dot(v - z, v - z) + 1e-9


def test_l1_projection_interior_point_returned_as_copy():
    v = np.array([0.1, -0.2, 0.05])
    p = project_l1_ball(v, 1.0)
    assert np.array_equal(p, v)
    p[0] = 99.0
    assert v[0] == 0.1


def test_l1_projection_tie_on_boundary():
    # All magnitudes equal and the threshold splits them evenly.
    v = np.array([1.0, -1.0, 1.0, -1.0])
    p = project_l1_ball(v, 2.0)
    assert np.allclose(p, np.array([0.5, -0.5, 0.5, -0.5]), atol=1e-12)
    assert np.abs(p).sum() == pytest.approx(2.0, abs=1e-12)


def test_l1_projection_input_validation():
    with pytest.raises(ValueError):
        project_l1_ball(np.ones(3), 0.0)
    with pytest.raises(ValueError):
        project_l1_ball(np.ones(3), -1.0)
    with pytest.raises(ValueError):
        project_l1_ball(np.ones(3), np.inf)
    with pytest.raises(ValueError):
        project_l1_ball(np.array([1.0, np.nan]), 1.0)


def test_l1_projection_when_tau_is_below_the_magnitudes_rounding():
    # the partial sums swallow tau (and overflow at 1e308); the projection keeps it
    assert np.array_equal(project_l1_ball([1e308, 1e308], 1.0), [0.5, 0.5])
    assert np.array_equal(project_l1_ball([1e20, 1e20], 1.0), [0.5, 0.5])
    assert np.array_equal(project_l1_ball([-1e308, 1e308, 3.0], 1.0), [-0.5, 0.5, 0.0])
    assert np.array_equal(project_l1_ball([1e308, 1e308], 1e300), [5e299, 5e299])


def test_l1_kernel_sends_non_finite_input_to_nan():
    for v in ([1.0, np.nan], [np.inf, 1.0], [-np.inf, np.inf]):
        assert np.all(np.isnan(l1_ball_kernel(np.array(v), 1.0)))


def test_box_projection_clamps():
    rng = np.random.Generator(np.random.Philox(10))
    for _ in range(100):
        d = int(rng.integers(1, 30))
        lo = rng.uniform(-2, 0, d)
        hi = lo + rng.uniform(0, 2, d)
        v = 3.0 * rng.standard_normal(d)
        p = project_box(v, lo, hi)
        assert np.array_equal(p, np.clip(v, lo, hi))
        assert np.all(p >= lo) and np.all(p <= hi)


def test_box_projection_validation():
    with pytest.raises(ValueError):
        project_box(np.ones(3), np.zeros(2), np.ones(3))
    with pytest.raises(ValueError):
        project_box(np.ones(2), np.array([0.0, 1.0]), np.array([1.0, 0.5]))


def test_prox_l1_soft_threshold_values():
    v = np.array([3.0, -0.5, 0.0, 1.2, -2.0])
    out = prox_l1(v, 1.0)
    assert np.allclose(out, [2.0, 0.0, 0.0, 0.2, -1.0], atol=1e-15)
    assert np.array_equal(prox_l1(v, 0.0), v)


def test_prox_l1_solves_its_minimization():
    # prox objective t*||w||_1 + 0.5*||w - v||^2 at the output beats nearby points
    rng = np.random.Generator(np.random.Philox(11))
    for _ in range(50):
        d = int(rng.integers(1, 20))
        v = 2.0 * rng.standard_normal(d)
        t = float(rng.uniform(0.01, 1.5))
        w = prox_l1(v, t)
        obj = lambda z: t * np.abs(z).sum() + 0.5 * float(np.dot(z - v, z - v))
        base = obj(w)
        for _ in range(10):
            z = w + 0.1 * rng.standard_normal(d)
            assert base <= obj(z) + 1e-12


def test_prox_l1_rejects_negative_threshold():
    with pytest.raises(ValueError):
        prox_l1(np.ones(2), -0.1)
