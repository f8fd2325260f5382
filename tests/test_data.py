"""Dataset I/O round-trips, parse diagnostics, and the synthetic generator."""

import json
import re

import numpy as np
import pytest

from vrgrad.cli import main
from vrgrad.data import (
    ParseError,
    SyntheticSpec,
    gen_synthetic,
    read_libsvm,
    write_libsvm,
)
from vrgrad.problems import SparseDesignMatrix


def test_libsvm_round_trip_is_exact(tmp_path):
    # 17 significant digits reproduce any float64 bit pattern
    rng = np.random.Generator(np.random.Philox(30))
    X = rng.standard_normal((12, 7))
    X[rng.random((12, 7)) < 0.4] = 0.0
    X[3] = 0.0  # all-zero row must survive the trip
    y = rng.standard_normal(12)
    path = tmp_path / "round.libsvm"
    write_libsvm(path, SparseDesignMatrix.from_dense(X), y)
    mat, y2 = read_libsvm(path, n_cols=7)
    assert np.array_equal(mat.toarray(), X)
    assert np.array_equal(y2, y)


def test_libsvm_basic_parse(tmp_path):
    path = tmp_path / "tiny.libsvm"
    path.write_text(
        "1 1:0.5 3:2.0\n"
        "\n"
        "# a comment line\n"
        "-1 2:1.5   # trailing comment\n"
    )
    mat, y = read_libsvm(path)
    assert mat.n_rows == 2 and mat.n_cols == 3
    assert np.array_equal(y, [1.0, -1.0])
    assert np.array_equal(mat.toarray(),
                          [[0.5, 0.0, 2.0], [0.0, 1.5, 0.0]])


@pytest.mark.parametrize("line,fragment", [
    ("x 1:2.0", "bad label"),
    ("1 1:abc", "bad feature entry"),
    ("1 0:2.0", "1-based"),
    ("1 2:1.0 2:3.0", "strictly increasing"),
    ("1 3:1.0 2:3.0", "strictly increasing"),
])
def test_libsvm_parse_errors_carry_line_numbers(tmp_path, line, fragment):
    path = tmp_path / "bad.libsvm"
    path.write_text("1 1:1.0\n" + line + "\n")
    with pytest.raises(ParseError, match=fragment) as err:
        read_libsvm(path)
    assert ":2:" in str(err.value)  # offending line is line 2


@pytest.mark.parametrize("line,what", [
    ("1 1:2.0 3:nan", "feature value"),
    ("1 2:1e400", "feature value"),
    ("-inf 1:1.0", "label"),
    ("nan 2:nan", "label"),
])
def test_libsvm_non_finite_entry_names_its_file_line(tmp_path, capsys, line, what):
    # a blank line and a comment before it: the bad row is data row 1 on line 4
    path = tmp_path / "bad.libsvm"
    path.write_text("1 1:1.0\n\n# comment\n" + line + "\n-1 2:3.0\n")
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:4: non-finite {what}$"):
        read_libsvm(path)
    config = tmp_path / "solve.json"
    config.write_text(json.dumps({"dataset": {"kind": "libsvm", "path": str(path)},
                                  "problem": {"regularizer": {"lam": 0.1}},
                                  "algorithm": "prox_svrg", "eta": 0.1}))
    assert main(["solve", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}:4: non-finite {what}")


def test_libsvm_empty_and_column_bounds(tmp_path):
    empty = tmp_path / "empty.libsvm"
    empty.write_text("# only a comment\n")
    with pytest.raises(ValueError, match="no data lines"):
        read_libsvm(empty)
    small = tmp_path / "small.libsvm"
    small.write_text("1 4:1.0\n")
    with pytest.raises(ValueError, match="n_cols"):
        read_libsvm(small, n_cols=3)
    mat, _ = read_libsvm(small, n_cols=6)
    assert mat.n_cols == 6


def test_libsvm_label_handling(tmp_path):
    path = tmp_path / "labels.libsvm"
    path.write_text("0 1:1.0\n1 1:2.0\n")
    _, y = read_libsvm(path, remap01=True)
    assert np.array_equal(y, [-1.0, 1.0])
    with pytest.raises(ValueError, match="logistic"):
        read_libsvm(path, task="logistic")
    bad = tmp_path / "bad01.libsvm"
    bad.write_text("2 1:1.0\n")
    with pytest.raises(ValueError, match="remap01"):
        read_libsvm(bad, remap01=True)


def test_synthetic_reproducible_and_rank():
    spec = SyntheticSpec(n=40, d=12, rank=5, noise_std=0.2,
                         row_scale_spread=4.0, seed=77)
    m1, y1 = gen_synthetic(spec)
    m2, y2 = gen_synthetic(spec)
    assert np.array_equal(m1.toarray(), m2.toarray())
    assert np.array_equal(y1, y2)
    assert np.linalg.matrix_rank(m1.toarray()) == 5


def test_synthetic_row_norm_spread_is_geometric():
    spec = SyntheticSpec(n=10, d=6, rank=4, row_scale_spread=8.0, seed=5)
    mat, _ = gen_synthetic(spec)
    norms = np.linalg.norm(mat.toarray(), axis=1)
    assert norms[0] == pytest.approx(1.0, rel=1e-12)
    assert norms[-1] == pytest.approx(8.0, rel=1e-12)
    ratios = norms[1:] / norms[:-1]
    assert np.allclose(ratios, ratios[0], rtol=1e-10)


def test_synthetic_planted_parameter_shows_in_labels():
    # noiseless labels live in the matrix rowspace: y = X w for some w
    spec = SyntheticSpec(n=30, d=20, rank=10, noise_std=0.0, seed=9)
    mat, y = gen_synthetic(spec)
    X = mat.toarray()
    w_fit, *_ = np.linalg.lstsq(X, y, rcond=None)
    assert np.allclose(X @ w_fit, y, atol=1e-9)


def test_synthetic_logistic_labels():
    spec = SyntheticSpec(n=25, d=8, rank=4, task="logistic",
                         noise_std=0.5, seed=13)
    _, y = gen_synthetic(spec)
    assert set(np.unique(y)) <= {-1.0, 1.0}


def test_synthetic_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(n=0, d=3, rank=1)
    with pytest.raises(ValueError):
        SyntheticSpec(n=5, d=3, rank=4)
    with pytest.raises(ValueError):
        SyntheticSpec(n=5, d=3, rank=2, task="svm")
    with pytest.raises(ValueError):
        SyntheticSpec(n=5, d=3, rank=2, noise_std=-0.1)
    with pytest.raises(ValueError):
        SyntheticSpec(n=5, d=3, rank=2, row_scale_spread=0.5)


def test_write_libsvm_length_mismatch(tmp_path):
    mat = SparseDesignMatrix.from_dense(np.eye(3))
    with pytest.raises(ValueError):
        write_libsvm(tmp_path / "x.libsvm", mat, np.ones(2))
