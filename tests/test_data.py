"""Dataset I/O round-trips, parse diagnostics, and the synthetic generator.

Every ``read_libsvm`` test runs through both readers, the compiled one and
the Python one, and asks for the same bits or the same error from each.
"""

import ctypes
import json
import re
import tracemalloc

import numpy as np
import pytest

from vrgrad import data
from vrgrad.cli import main
from vrgrad.data import (
    ParseError,
    SyntheticSpec,
    gen_synthetic,
    read_libsvm,
    write_libsvm,
)
from vrgrad.problems import SparseDesignMatrix

from conftest import libsvm_readers, read_libsvm_both


def test_libsvm_round_trip_is_exact(tmp_path):
    # 17 significant digits reproduce any float64 bit pattern
    rng = np.random.Generator(np.random.Philox(30))
    X = rng.standard_normal((12, 7))
    X[rng.random((12, 7)) < 0.4] = 0.0
    X[3] = 0.0  # all-zero row must survive the trip
    y = rng.standard_normal(12)
    path = tmp_path / "round.libsvm"
    write_libsvm(path, SparseDesignMatrix.from_dense(X), y)
    mat, y2 = read_libsvm_both(path, n_cols=7)
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
    mat, y = read_libsvm_both(path)
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
        read_libsvm_both(path)
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
        read_libsvm_both(path)
    config = tmp_path / "solve.json"
    config.write_text(json.dumps({"dataset": {"kind": "libsvm", "path": str(path)},
                                  "problem": {"regularizer": {"lam": 0.1}},
                                  "algorithm": "prox_svrg", "eta": 0.1}))
    for reader in libsvm_readers():
        with reader:
            assert main(["solve", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}:4: non-finite {what}")


def test_libsvm_empty_and_column_bounds(tmp_path):
    empty = tmp_path / "empty.libsvm"
    empty.write_text("# only a comment\n")
    with pytest.raises(ValueError, match="no data lines"):
        read_libsvm_both(empty)
    small = tmp_path / "small.libsvm"
    small.write_text("1 4:1.0\n")
    with pytest.raises(ValueError, match="n_cols"):
        read_libsvm_both(small, n_cols=3)
    mat, _ = read_libsvm_both(small, n_cols=6)
    assert mat.n_cols == 6


def test_libsvm_label_handling(tmp_path):
    path = tmp_path / "labels.libsvm"
    path.write_text("0 1:1.0\n1 1:2.0\n")
    _, y = read_libsvm_both(path, remap01=True)
    assert np.array_equal(y, [-1.0, 1.0])
    with pytest.raises(ValueError, match="logistic"):
        read_libsvm_both(path, task="logistic")
    bad = tmp_path / "bad01.libsvm"
    bad.write_text("2 1:1.0\n")
    with pytest.raises(ValueError, match="remap01"):
        read_libsvm_both(bad, remap01=True)


def compiled_reader():
    lib = data._compiled_reader()
    if lib is None:
        pytest.skip("the compiled library does not build here")
    return lib


def test_libsvm_compiled_reader_parses_a_well_formed_file_alone(tmp_path, monkeypatch):
    compiled_reader()
    path = tmp_path / "plain.libsvm"
    path.write_text("1 1:0.5 3:2e-3\r\n# comment\n\n-1\t2:-1.5E+2 # trailing\n+0 4:.5\n")

    def python_reader(path):
        raise AssertionError("the Python reader ran")

    monkeypatch.setattr(data, "_read_libsvm_py", python_reader)
    mat, y = read_libsvm(path)
    assert np.array_equal(y, [1.0, -1.0, 0.0])
    assert np.array_equal(mat.toarray(), [[0.5, 0, 2e-3, 0], [0, -150.0, 0, 0], [0, 0, 0, 0.5]])


def test_libsvm_compiled_reader_one_ulp_off_fails_its_probe():
    lib = compiled_reader()

    class OneUlpOff:
        vrgrad_libsvm_size = lib.vrgrad_libsvm_size

        def vrgrad_read_libsvm(self, text, n, y, indptr, indices, values, shape):
            status = lib.vrgrad_read_libsvm(text, n, y, indptr, indices, values, shape)
            first = ctypes.cast(values, ctypes.POINTER(ctypes.c_double))
            first[0] = np.nextafter(first[0], np.inf)
            return status

    assert data._reader_probe(lib) and not data._reader_probe(OneUlpOff())


@pytest.mark.parametrize("text", [
    b"1 1:1\r2 1:1\n",  # a lone \r ends a line in Python
    b"1 1:1\r",
    b"1 1:1 # caf\xc3\xa9\n",  # a byte >= 0x80, in a comment too
    b"1 1:1\x00\n",
    b"1\x0c1:1\n",  # \f, a blank to str.split
    b"1 +3:1\n", b"1 1_0:1\n", b"1 1:1_0\n", b"1 1:0x1p3\n", b"1 1:inf\n", b"nan 1:1\n",
    b"1 1:1e400\n", b"1 0:1\n", b"1 2:1 2:1\n", b"1 1:\n", b"1 :1\n", b"1 1:1:1\n", b"1 1\n",
    b"1e 1:1\n", b"1 1:1.2.3\n", b"1 0000000000000000001:1\n",  # 19 digits
    b"# no data\n\n", b"",
])
def test_libsvm_compiled_reader_refuses_what_it_cannot_promise(text):
    assert data._read_libsvm_compiled(compiled_reader(), text) is None


@pytest.mark.parametrize("text", [
    b"1 1:1\r\n-1 2:2\r\n", b"1 1:1", b"\t1\t1:1\t\n", b"1 000000000000000001:1\n",
    b"-0 1:-0 2:4.9e-324 3:1e-400 4:1.7976931348623157e308 5:000.10 6:1. 7:-.5e-3\n",
    b"0.123456789012345678901234567890 1:123456789012345678901234567890e-30\n",
    b"1 1:1#x\x0c\x1fy\n", b"1 1:1 #\r\n",
])
def test_libsvm_compiled_reader_takes_plain_spellings_with_float_bits(tmp_path, text):
    path = tmp_path / "plain.libsvm"
    path.write_bytes(text)
    y, indptr, indices, values, max_idx = data._read_libsvm_compiled(compiled_reader(), text)
    want = data._read_libsvm_py(path)
    for got, expected in zip((y, indptr, indices, values), want):
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
    assert max_idx == want[4]


def test_libsvm_compiled_reader_peaks_below_the_python_reader(tmp_path):
    compiled_reader()
    rng = np.random.Generator(np.random.Philox(31))
    X = rng.standard_normal((1000, 400))
    X[rng.random(X.shape) >= 0.05] = 0.0  # about 20 000 entries
    path = tmp_path / "big.libsvm"
    write_libsvm(path, SparseDesignMatrix.from_dense(X), np.sign(rng.standard_normal(1000)))
    peaks = []
    for reader in (read_libsvm, data._read_libsvm_py):
        tracemalloc.start()
        try:
            reader(path)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < peaks[1]


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
