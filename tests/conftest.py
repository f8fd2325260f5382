"""Shared builders for small test problems."""

import numpy as np
import pytest

from vrgrad import _epoch, solvers
from vrgrad.problems import (
    Box,
    L1Ball,
    L1Regularizer,
    LossSpec,
    ProblemSpec,
    SparseDesignMatrix,
)


def make_problem(X, y, task="least_squares", q=None, constraint=None,
                 regularizer=None):
    """Dense (X, y) to a ProblemSpec; defaults to an l1 ball of radius 10."""
    X = np.asarray(X, dtype=np.float64)
    if constraint is None and regularizer is None:
        constraint = L1Ball(tau=10.0)
    return ProblemSpec(
        matrix=SparseDesignMatrix.from_dense(X),
        loss=LossSpec(kind=task, labels=np.asarray(y, dtype=np.float64)),
        q=q,
        constraint=constraint,
        regularizer=regularizer,
    )


def random_least_squares(n, d, seed, constraint=None, regularizer=None,
                         noise=0.1):
    rng = np.random.Generator(np.random.Philox(seed))
    X = rng.standard_normal((n, d))
    w = rng.standard_normal(d)
    y = X @ w + noise * rng.standard_normal(n)
    return make_problem(X, y, constraint=constraint, regularizer=regularizer)


def random_logistic(n, d, seed, constraint=None, regularizer=None):
    rng = np.random.Generator(np.random.Philox(seed))
    X = rng.standard_normal((n, d))
    w = rng.standard_normal(d)
    y = np.where(X @ w + 0.3 * rng.standard_normal(n) >= 0, 1.0, -1.0)
    return make_problem(X, y, task="logistic", constraint=constraint,
                        regularizer=regularizer)


def inner_steps(loop):
    """A stand-in for ``solvers._inner_steps`` that always takes one loop.

    ``loop`` is "compiled" (the kernel of ``_epoch.c``; the test is skipped
    where it does not build) or "numpy" (``solvers._numpy_steps``).
    """
    if loop == "numpy":
        return solvers._numpy_steps
    kernel = _epoch.load()
    if kernel is None:
        pytest.skip("the compiled inner-step kernel does not build here")
    return lambda problem: solvers._compiled_steps(problem, kernel)


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(12345))
