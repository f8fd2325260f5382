"""Shared builders for small test problems, and the two libsvm readers side by side."""

from unittest import mock

import numpy as np
import pytest

from vrgrad import _epoch, data, solvers
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
    lib = _epoch.library()
    if lib is None:
        pytest.skip("the compiled inner-step kernel does not build here")
    return lambda problem: solvers._compiled_steps(problem, lib)


def libsvm_readers():
    """Patches under which ``read_libsvm`` takes each of its two readers.

    The first leaves the compiled reader in place (so where the library does
    not build, it is the Python reader again); the second patches
    ``_epoch.library`` to None, and the Python reader alone runs.
    """
    return [mock.patch.object(_epoch, "library", _epoch.library),
            mock.patch.object(_epoch, "library", lambda: None)]


def read_libsvm_both(path, **kwargs):
    """``read_libsvm`` under each reader: the same bits, or the same error.

    Returns the Python reader's (matrix, labels), or raises its error.
    """
    outcomes = []
    for reader in libsvm_readers():
        with reader:
            try:
                outcomes.append(data.read_libsvm(path, **kwargs))
            except Exception as exc:  # compared below, then raised
                outcomes.append(exc)
    compiled, python = outcomes
    if isinstance(python, Exception):
        assert type(compiled) is type(python) and str(compiled) == str(python)
        raise python
    assert not isinstance(compiled, Exception), compiled
    (m1, y1), (m2, y2) = compiled, python
    assert (m1.n_rows, m1.n_cols) == (m2.n_rows, m2.n_cols)
    for a, b in ((y1, y2), (m1.indptr, m2.indptr), (m1.indices, m2.indices),
                 (m1.data, m2.data)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    return python


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(12345))
