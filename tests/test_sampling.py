"""Distribution construction, seeded draw streams, and frequency checks."""

import numpy as np
import pytest
from scipy import stats

from vrgrad.problems import compute_lipschitz_info
from vrgrad.sampling import (
    PROPORTIONAL,
    UNIFORM,
    SamplingDistribution,
    build_distribution,
    draw,
    draw_many,
)

from conftest import make_problem


def info_from_rows(rows):
    """LipschitzInfo for a least-squares problem with the given rows."""
    X = np.asarray(rows, dtype=np.float64)
    return compute_lipschitz_info(make_problem(X, np.zeros(X.shape[0])))


def test_uniform_probabilities():
    info = info_from_rows(np.diag([1.0, 2.0, 3.0, 4.0]))
    dist = build_distribution(UNIFORM, info, seed=0)
    assert np.allclose(dist.p, 0.25, rtol=0.0, atol=0.0)


def test_proportional_probabilities_track_row_norms():
    # L_i = ||x_i||^2 = 1, 0, 3 gives p = [1/4, floor, 3/4] after the floor
    rows = np.array([[1.0, 0.0], [0.0, 0.0], [np.sqrt(3.0), 0.0]])
    dist = build_distribution(PROPORTIONAL, info_from_rows(rows), seed=0)
    assert dist.p[0] == pytest.approx(0.25, rel=1e-9)
    assert dist.p[2] == pytest.approx(0.75, rel=1e-9)
    # degenerate slot: raw floor 1e-12/n then renormalized, so ~3.3e-13
    assert 0.0 < dist.p[1] < 1e-12
    assert dist.p[1] == pytest.approx(1e-12 / 3, rel=1e-3)
    assert dist.p.sum() == pytest.approx(1.0, abs=1e-15)


def test_all_degenerate_components_rejected():
    info = info_from_rows(np.zeros((3, 2)))
    with pytest.raises(ValueError):
        build_distribution(PROPORTIONAL, info, seed=0)
    # uniform mode does not care about the constants
    dist = build_distribution(UNIFORM, info, seed=0)
    assert np.allclose(dist.p, 1.0 / 3.0)


def test_unknown_mode_rejected():
    info = info_from_rows(np.eye(2))
    with pytest.raises(ValueError):
        build_distribution("importance", info, seed=0)


def test_single_component_always_drawn():
    dist = SamplingDistribution(p=np.array([1.0]), seed=5)
    assert all(draw(dist) == 0 for _ in range(50))
    assert np.array_equal(draw_many(dist, 100), np.zeros(100, dtype=np.intp))


def test_distribution_validation():
    with pytest.raises(ValueError):
        SamplingDistribution(p=np.array([]), seed=0)
    with pytest.raises(ValueError):
        SamplingDistribution(p=np.array([0.5, 0.0, 0.5]), seed=0)
    with pytest.raises(ValueError):
        SamplingDistribution(p=np.array([0.6, 0.5]), seed=0)


def test_cumulative_is_computed_from_p():
    p = np.array([0.2, 0.3, 0.5])
    dist = SamplingDistribution(p=p, seed=0)
    assert np.array_equal(dist.cumulative, np.cumsum(p))
    with pytest.raises(TypeError):
        SamplingDistribution(p=p, cumulative=np.array([0.9, 0.95, 1.0]), seed=0)


def test_same_seed_reproduces_stream():
    info = info_from_rows(np.diag([1.0, 2.0, 5.0, 1.0, 3.0]))
    a = build_distribution(PROPORTIONAL, info, seed=42)
    b = build_distribution(PROPORTIONAL, info, seed=42)
    seq_a = [draw(a) for _ in range(200)]
    seq_b = [draw(b) for _ in range(200)]
    assert seq_a == seq_b
    c = build_distribution(PROPORTIONAL, info, seed=43)
    assert [draw(c) for _ in range(200)] != seq_a


def test_draw_many_matches_repeated_draw():
    info = info_from_rows(np.diag([1.0, 4.0, 2.0]))
    a = build_distribution(PROPORTIONAL, info, seed=11)
    b = build_distribution(PROPORTIONAL, info, seed=11)
    bulk = draw_many(a, 500)
    single = np.array([draw(b) for _ in range(500)])
    assert np.array_equal(bulk, single)
    assert np.array_equal(draw_many(a, 7), draw_many(b, 7))  # both streams at draw 500


def test_draw_frequencies_chi_square():
    # goodness of fit at alpha = 1e-4 across 5 independent seeds
    rng_rows = np.random.Generator(np.random.Philox(21))
    X = rng_rows.standard_normal((8, 3)) * rng_rows.uniform(0.5, 2.0, (8, 1))
    info = info_from_rows(X)
    for seed in range(5):
        dist = build_distribution(PROPORTIONAL, info, seed=seed)
        idx = draw_many(dist, 20000)
        counts = np.bincount(idx, minlength=8)
        _, pvalue = stats.chisquare(counts, f_exp=20000 * dist.p)
        assert pvalue > 1e-4, (seed, pvalue)


def test_draws_advance_the_stream():
    info = info_from_rows(np.eye(4))
    dist = build_distribution(UNIFORM, info, seed=0)
    draw(dist)
    draw_many(dist, 9)
    fresh = build_distribution(UNIFORM, info, seed=0)
    draw_many(fresh, 10)
    assert np.array_equal(draw_many(dist, 20), draw_many(fresh, 20))  # both at draw 10
    with pytest.raises(ValueError):
        draw_many(dist, -1)


class _TopOfTheUnitInterval:
    """A generator whose every draw is 1 - 2**-53, the largest double below 1."""

    def random(self, size=None):
        u = 1.0 - 2.0 ** -53
        return u if size is None else np.full(size, u)


def test_a_draw_at_or_above_the_last_cumulative_sum_takes_the_last_index():
    # ten probabilities of 0.1 sum to 1 - 2**-53 in float64, so that draw is
    # not below cumulative[-1] and the search runs past the last index
    dist = SamplingDistribution(p=np.full(10, 0.1), seed=0)
    assert dist.cumulative[-1] == 1.0 - 2.0 ** -53
    dist._gen = _TopOfTheUnitInterval()
    assert draw(dist) == 9
    assert draw_many(dist, 3).tolist() == [9, 9, 9]
