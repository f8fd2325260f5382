"""The CSR products, row norms, dense conversions and sigmoid, bit for bit against scipy.

scipy.sparse and scipy.special are the specification: ``SparseDesignMatrix``
must give their bits whether its products run in the compiled library or,
where that does not load, in scipy itself.  Bits are compared as int64
views, so a -0.0 against a +0.0 or another NaN counts as a difference.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.special import expit

from vrgrad import _epoch, problems
from vrgrad.data import SyntheticSpec, gen_synthetic
from vrgrad.problems import SparseDesignMatrix


def bits(x):
    return np.ascontiguousarray(x, dtype=np.float64).view(np.int64)


def same_bits(a, b):
    return np.array_equal(bits(a), bits(b))


@pytest.fixture
def kernels():
    """The compiled library's products and sigmoid; scipy's are the reference."""
    lib = _epoch.library()
    if lib is None:
        pytest.skip("the compiled library does not build here")
    return problems._compiled_kernels(lib)


def matrices():
    """Ten random designs from 50 x 7 to 2000 x 500 at three densities, and solve-l1-ls's."""
    rng = np.random.Generator(np.random.Philox(0xB175))
    shapes = [(50, 7), (120, 40), (300, 90), (1000, 300), (2000, 500)]
    out = []
    for k in range(10):
        n, d = shapes[k % 5]
        density = (1.0, 0.3, 0.01)[k % 3]
        X = rng.standard_normal((n, d)) * (rng.random((n, d)) < density)
        out.append(X * 10.0 ** rng.integers(-3, 4, size=(n, 1)))  # rows of mixed scale
    matrix, _ = gen_synthetic(SyntheticSpec(n=2000, d=500, rank=100, noise_std=0.25,
                                            row_scale_spread=3.0, seed=0))
    out.append(matrix.toarray())
    return out


MATRICES = matrices()


@pytest.mark.parametrize("k", range(len(MATRICES)))
def test_products_have_scipys_bits(kernels, k):
    X = MATRICES[k]
    m, A = SparseDesignMatrix.from_dense(X), sp.csr_matrix(X)
    rng = np.random.Generator(np.random.Philox(k))
    for _ in range(20):
        w, u = rng.standard_normal(X.shape[1]), rng.standard_normal(X.shape[0])
        assert same_bits(kernels.matvec(m, w), A @ w)
        assert same_bits(kernels.rmatvec(m, u), A.T @ u)


@pytest.mark.parametrize("k", range(len(MATRICES)))
def test_from_dense_toarray_and_row_norms_have_scipys_bits(k):
    X = MATRICES[k]
    m, A = SparseDesignMatrix.from_dense(X), sp.csr_matrix(X)
    assert m.indptr.tolist() == A.indptr.tolist()
    assert m.indices.tolist() == A.indices.tolist()
    assert same_bits(m.data, A.data)
    assert same_bits(m.toarray(), A.toarray())
    assert same_bits(m.row_sq_norms, np.asarray(A.multiply(A).sum(axis=1)).ravel())


def test_from_dense_keeps_a_nan_for_the_check_to_refuse():
    with pytest.raises(ValueError, match="row 1: non-finite value"):
        SparseDesignMatrix.from_dense([[1.0, 0.0], [0.0, np.nan]])


def odd_csr_arrays():
    """600 small (shape, indptr, indices, data) with explicit zeros, -0.0, squares
    that underflow to 0 and empty rows, as a caller may pass them."""
    rng = np.random.Generator(np.random.Philox(0x5A))
    for _ in range(600):
        n, d = int(rng.integers(1, 30)), int(rng.integers(1, 20))
        X = rng.standard_normal((n, d)) * (rng.random((n, d)) < rng.random())
        X[rng.random((n, d)) < 0.1] = 1e-170 * rng.random()  # its square underflows
        X[rng.random((n, d)) < 0.05] = -0.0
        stored = (X != 0) | (rng.random((n, d)) < 0.2) | np.signbit(X)
        indptr = np.concatenate([[0], np.cumsum(stored.sum(axis=1))])
        yield (n, d), indptr, np.nonzero(stored)[1], X[stored]


def test_row_norms_and_toarray_on_odd_csr_arrays():
    for shape, indptr, indices, data in odd_csr_arrays():
        m = SparseDesignMatrix(*shape, indptr, indices, data)
        A = sp.csr_matrix((data, indices, indptr), shape=shape)
        assert same_bits(m.row_sq_norms, np.asarray(A.multiply(A).sum(axis=1)).ravel())
        assert same_bits(m.toarray(), A.toarray())


def filled_by_2d_index(m):
    """X dense by one 2-D index assignment, as ``toarray`` built it before it took
    ``columns`` over every column: -0.0 comes out +0.0, as scipy gives it."""
    out = np.zeros(m.shape)
    out[np.repeat(np.arange(m.n_rows), np.diff(m.indptr)), m.indices] = m.data + 0.0
    return out


def test_toarray_has_the_bits_of_a_2d_index_fill():
    # the battery above, then shapes with no rows, no columns or neither
    empty = [((0, 0), [0], [], []), ((0, 4), [0], [], []), ((3, 0), [0, 0, 0, 0], [], [])]
    for shape, indptr, indices, data in [*odd_csr_arrays(), *empty]:
        m = SparseDesignMatrix(*shape, indptr, indices, data)
        dense = m.toarray()
        assert dense.shape == shape and dense.flags.c_contiguous
        assert same_bits(dense, filled_by_2d_index(m))


def test_columns_take_scipys_dense_columns_over_row_ranges():
    # in any column order, on any range of rows, an empty one and no columns included
    rng = np.random.Generator(np.random.Philox(0x5C))
    for shape, indptr, indices, data in odd_csr_arrays():
        m = SparseDesignMatrix(*shape, indptr, indices, data)
        dense = sp.csr_matrix((data, indices, indptr), shape=shape).toarray()
        cols = rng.permutation(shape[1])[:rng.integers(0, shape[1] + 1)]
        start = int(rng.integers(0, shape[0] + 1))
        stop = int(rng.integers(start, shape[0] + 1))
        assert same_bits(m.columns(cols, start, stop), dense[start:stop][:, cols])


def test_row_norms_overflow_to_inf_without_a_warning():
    # one square past the largest double, and two finite squares whose sum is
    data = np.array([1.3407807929942597e154, 1e154, 1e154, 1e200, 1.0])
    indptr, indices = np.array([0, 1, 3, 5]), np.array([0, 0, 1, 0, 1])
    m = SparseDesignMatrix(3, 2, indptr, indices, data)  # warnings are errors here
    A = sp.csr_matrix((data, indices, indptr), shape=(3, 2))
    with np.errstate(over="ignore"):  # scipy's sum warns
        want = np.asarray(A.multiply(A).sum(axis=1)).ravel()
    assert same_bits(m.row_sq_norms, want)
    assert np.isinf(m.row_sq_norms).all()


def test_products_on_odd_csr_arrays(kernels):
    rng = np.random.Generator(np.random.Philox(0x5B))
    for shape, indptr, indices, data in odd_csr_arrays():
        m = SparseDesignMatrix(*shape, indptr, indices, data)
        A = sp.csr_matrix((data, indices, indptr), shape=shape)
        w, u = rng.standard_normal(shape[1]), rng.standard_normal(shape[0])
        assert same_bits(kernels.matvec(m, w), A @ w)
        assert same_bits(kernels.rmatvec(m, u), A.T @ u)


def full_block_starts(m):
    """The rows that start a run of four full rows of m."""
    full = np.diff(m.indptr) == m.n_cols
    return np.flatnonzero(full[:-3] & full[1:-2] & full[2:-1] & full[3:])


def full_row_csr_arrays():
    """(shape, indptr, indices, data) built row by row: three runs of 1 to 9 full rows,
    each after a sparse or an empty row, then 0 to 3 more rows, so n takes every
    residue mod 4; full rows hold an explicit 0.0 or -0.0 and entries of mixed scale.
    Then the shapes with no rows or no columns."""
    rng = np.random.Generator(np.random.Philox(0xF4))
    for d in (1, 2, 3, 7, 16):
        for run in range(1, 10):
            for tail in range(4):
                rows = []
                for _ in range(3):
                    k = int(rng.integers(0, d))  # 0: an empty row
                    rows += [np.sort(rng.choice(d, k, replace=False))] + [np.arange(d)] * run
                rows += [np.sort(rng.choice(d, int(rng.integers(0, d + 1)), replace=False))
                         for _ in range(tail)]
                counts = [len(r) for r in rows]
                data = rng.standard_normal(sum(counts)) * 10.0 ** rng.integers(-3, 4, sum(counts))
                data[rng.random(data.size) < 0.1] = 0.0
                data[rng.random(data.size) < 0.1] = -0.0
                indptr = np.concatenate([[0], np.cumsum(counts)])
                indices = np.concatenate(rows).astype(np.int64)
                yield (len(rows), d), indptr, indices, data
    yield from [((0, 3), [0], [], []), ((0, 0), [0], [], []), ((5, 0), [0] * 6, [], [])]


def test_products_on_runs_of_full_rows(kernels):
    # the compiled products take four full rows at once; scipy's bits all the same
    rng = np.random.Generator(np.random.Philox(0xF5))
    blocks = 0
    for shape, indptr, indices, data in full_row_csr_arrays():
        m = SparseDesignMatrix(*shape, indptr, indices, data)
        A = sp.csr_matrix((np.asarray(data, dtype=float), indices, indptr), shape=shape)
        blocks += full_block_starts(m).size > 0
        for _ in range(3):
            w, u = rng.standard_normal(shape[1]), rng.standard_normal(shape[0])
            w[rng.random(w.size) < 0.2] = -0.0
            u[rng.random(u.size) < 0.2] = -0.0
            assert same_bits(kernels.matvec(m, w), A @ w)
            assert same_bits(kernels.rmatvec(m, u), A.T @ u)
    assert blocks > 100  # most of the matrices have a run of four full rows


def test_sigmoid_has_the_bits_of_expit(kernels):
    rng = np.random.Generator(np.random.Philox(0xE7))
    special = [0.0, -0.0, 1e308, -1e308, np.inf, -np.inf, 36.7, -36.7, 709.8, -709.8,
               745.2, -745.2, 5e-324, -5e-324]
    x = np.concatenate([rng.standard_normal(100_000) * 10.0 ** rng.integers(-5, 3, 100_000),
                        special, np.linspace(-750.0, 750.0, 1_000_001)])
    assert same_bits(kernels.sigmoid(x), expit(x))
    assert same_bits(kernels.sigmoid(x[:12].reshape(3, 4)), expit(x[:12].reshape(3, 4)))
    for v in special:
        got = kernels.sigmoid(v)
        assert np.ndim(got) == 0 and same_bits(got, expit(v))


def test_the_numpy_loops_scalar_sigmoid_has_the_bits_of_expit():
    rng = np.random.Generator(np.random.Philox(0xE8))
    x = np.concatenate([rng.standard_normal(20_000) * 10.0 ** rng.integers(-5, 3, 20_000),
                        [0.0, -0.0, 1e308, -1e308, np.inf, -np.inf, np.nan, 36.7, -36.7,
                         709.8, -709.8, 745.2, -745.2]])
    got = np.array([problems._scalar_sigmoid(v) for v in x.tolist()])
    assert same_bits(got, expit(x))


def test_products_refuse_a_vector_of_the_wrong_size():
    m = SparseDesignMatrix.from_dense(np.ones((3, 2)))
    with pytest.raises(ValueError, match="dimension mismatch"):
        m.matvec(np.ones(3))
    with pytest.raises(ValueError, match="dimension mismatch"):
        m.rmatvec(np.ones(2))
    assert m.matvec([1, 2]).tolist() == [3.0, 3.0, 3.0]  # lists and integers are converted


def test_probe_accepts_scipy_and_refuses_a_product_off_by_one_bit():
    scipy_kernels = problems._scipy_kernels()
    assert problems._kernels_probe(scipy_kernels)
    off = scipy_kernels._replace(matvec=lambda m, w: np.nextafter(scipy_kernels.matvec(m, w), 1.0))
    assert not problems._kernels_probe(off)

    def off_in_full_blocks(m, w):
        # one bit off on the first four of a run of full rows, and nowhere else
        out, starts = scipy_kernels.matvec(m, w), full_block_starts(m)
        assert starts.size
        block = starts[0] + np.arange(4)
        out[block] = np.nextafter(out[block], np.inf)
        return out
    assert not problems._kernels_probe(scipy_kernels._replace(matvec=off_in_full_blocks))
    off = scipy_kernels._replace(sigmoid=lambda x: np.nan_to_num(expit(x)))
    assert not problems._kernels_probe(off)


def test_a_matrix_pickles_into_a_spawned_worker_with_the_same_products():
    # bench --workers sends the problem to worker processes; a matrix holds
    # arrays only, and a fresh process loads its own library or scipy
    import multiprocessing

    m = SparseDesignMatrix.from_dense(MATRICES[1])
    w = np.random.Generator(np.random.Philox(9)).standard_normal(m.n_cols)
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        got = pool.apply(SparseDesignMatrix.matvec, (m, w))
    assert same_bits(got, m.matvec(w))
