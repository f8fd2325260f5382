"""Dataset I/O (libsvm text format) and seeded synthetic generation."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .problems import LEAST_SQUARES, LOGISTIC, SparseDesignMatrix


class ParseError(ValueError):
    """Malformed dataset line; message carries the 1-based line number."""


def read_libsvm(path, n_cols: int = None, task: str = None, remap01: bool = False):
    """Read a libsvm-format text file.

    Each data line is ``label idx:val idx:val ...`` with 1-based, strictly
    increasing feature indices.  Labels are parsed as reals; with
    ``task="logistic"`` they must come out as +/-1, optionally after the
    {0,1} -> {-1,+1} remap.  Returns (SparseDesignMatrix, labels).

    The compiled reader of ``_epoch.c`` parses the file where the library
    builds and the file keeps to the plain spellings it accepts; otherwise
    ``_read_libsvm_py``, its specification, does, with the same bits and
    the same errors.
    """
    lib = _compiled_reader()
    parsed = None
    if lib is not None:
        with open(path, "rb") as fh:
            parsed = _read_libsvm_compiled(lib, fh.read())
    if parsed is None:
        parsed = _read_libsvm_py(path)
    y, indptr, indices, data, max_idx = parsed
    if remap01:
        bad = ~np.isin(y, (0.0, 1.0))
        if np.any(bad):
            raise ValueError(f"{path}: remap01 requires labels in {{0, 1}}")
        y = 2.0 * y - 1.0
    if task == LOGISTIC and not np.all(np.abs(y) == 1.0):
        raise ValueError(f"{path}: logistic task requires +/-1 labels")
    if n_cols is None:
        n_cols = max_idx
    elif n_cols < max_idx:
        raise ValueError(f"n_cols={n_cols} but file has feature index {max_idx}")
    return SparseDesignMatrix._handed_over(y.size, n_cols, indptr, indices, data), y


def _read_libsvm_py(path):
    """(labels, indptr, indices, values, largest index) of a libsvm file, in Python."""
    labels, indptr, indices, values, line_of_row = [], [0], [], [], []
    max_idx = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            try:
                label = float(parts[0])
            except ValueError:
                raise ParseError(f"{path}:{lineno}: bad label {parts[0]!r}") from None
            prev = 0
            for tok in parts[1:]:
                idx_s, _, val_s = tok.partition(":")
                try:
                    idx = int(idx_s)
                    val = float(val_s)
                except ValueError:
                    raise ParseError(f"{path}:{lineno}: bad feature entry {tok!r}") from None
                if idx < 1:
                    raise ParseError(f"{path}:{lineno}: feature indices are 1-based, got {idx}")
                if idx <= prev:
                    raise ParseError(
                        f"{path}:{lineno}: feature indices must be strictly increasing"
                    )
                prev = idx
                indices.append(idx - 1)
                values.append(val)
            max_idx = max(max_idx, prev)
            labels.append(label)
            indptr.append(len(indices))
            line_of_row.append(lineno)
    if not labels:
        raise ValueError(f"{path}: no data lines")
    y, data = np.asarray(labels, dtype=np.float64), np.asarray(values, dtype=np.float64)
    del values  # a list of Python floats takes four times the array's memory
    bad_row = ~np.isfinite(y)
    bad_row[np.searchsorted(indptr, np.flatnonzero(~np.isfinite(data)), side="right") - 1] = True
    if bad_row.any():
        i = int(bad_row.argmax())
        what = "feature value" if np.isfinite(y[i]) else "label"
        raise ParseError(f"{path}:{line_of_row[i]}: non-finite {what}")
    indptr, indices = np.asarray(indptr, dtype=np.int64), np.asarray(indices, dtype=np.int64)
    return y, indptr, indices, data, max_idx


def _read_libsvm_compiled(lib, text: bytes):
    """``_read_libsvm_py``'s arrays from the compiled reader, or None where it refuses the text."""
    shape = np.zeros(3, dtype=np.int64)
    if lib.vrgrad_libsvm_size(text, len(text), shape.ctypes.data):
        return None
    rows, entries = int(shape[0]) + 1, int(shape[1])  # bounds; see vrgrad_read_libsvm
    y, indptr = np.empty(rows), np.empty(rows + 1, dtype=np.int64)
    indices, data = np.empty(entries, dtype=np.int64), np.empty(entries)
    if lib.vrgrad_read_libsvm(text, len(text), y.ctypes.data, indptr.ctypes.data,
                              indices.ctypes.data, data.ctypes.data, shape.ctypes.data):
        return None
    rows, entries, max_idx = shape.tolist()
    return y[:rows], indptr[:rows + 1], indices[:entries], data[:entries], max_idx


# Spellings on which a reader that does not round correctly would differ from float()
_PROBE_NUMBERS = (
    "0.1", "-0", "1e-400", "4.9e-324", "2.2250738585072011e-308", "9007199254740993",
    "1.00000000000000011102230246251565404236316680908203125",
    "1.00000000000000011102230246251565404236316680908203126",
    "0.000123456789012345678901234567890e5", "1.7976931348623157e308",
)


def _compiled_reader():
    """The compiled library where it builds and reads the probe's numbers as float() does."""
    from . import _epoch

    lib = _epoch.library()
    return lib if lib is not None and _reader_probe(lib) else None


@functools.lru_cache(maxsize=None)
def _reader_probe(lib) -> bool:
    text = "".join(f"{s} {k}:{s}\n" for k, s in enumerate(_PROBE_NUMBERS, start=1)).encode()
    parsed = _read_libsvm_compiled(lib, text)
    want = np.array([float(s) for s in _PROBE_NUMBERS]).view(np.int64)
    return (parsed is not None and np.array_equal(parsed[0].view(np.int64), want)
            and np.array_equal(parsed[3].view(np.int64), want))


def write_libsvm(path, matrix: SparseDesignMatrix, labels) -> None:
    """Write (matrix, labels) in libsvm format, 17 significant digits."""
    labels = np.asarray(labels, dtype=np.float64).ravel()
    if labels.size != matrix.n_rows:
        raise ValueError("label count must match row count")
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(matrix.n_rows):
            idx, val = matrix.row(i)
            toks = [f"{labels[i]:.17g}"]
            toks.extend(f"{j + 1}:{v:.17g}" for j, v in zip(idx, val))
            fh.write(" ".join(toks) + "\n")


@dataclass
class SyntheticSpec:
    """Recipe for a seeded low-rank instance with prescribed row-norm spread.

    Rows of a rank-``rank`` Gaussian product are normalized and rescaled to
    norms running geometrically from 1 up to ``row_scale_spread``, so the
    component Lipschitz constants span a factor of spread^2.  Labels come
    from a planted sparse parameter (a few strong coordinates, so that an
    l1 ball or penalty recovers a small active set), with additive noise
    (least squares) or noisy-margin signs (logistic).
    """

    n: int
    d: int
    rank: int
    task: str = LEAST_SQUARES
    noise_std: float = 0.0
    row_scale_spread: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n < 1 or self.d < 1:
            raise ValueError("n and d must be positive")
        if not 1 <= self.rank <= min(self.n, self.d):
            raise ValueError("rank must lie in [1, min(n, d)]")
        if self.task not in (LEAST_SQUARES, LOGISTIC):
            raise ValueError(f"unknown task {self.task!r}")
        if self.noise_std < 0:
            raise ValueError("noise_std must be nonnegative")
        if self.row_scale_spread < 1.0:
            raise ValueError("row_scale_spread must be >= 1")


def gen_synthetic(spec: SyntheticSpec):
    """Generate (matrix, labels). Bitwise-reproducible per seed."""
    rng = np.random.Generator(np.random.Philox(spec.seed))
    X = rng.standard_normal((spec.n, spec.rank)) @ rng.standard_normal((spec.rank, spec.d))
    norms = np.linalg.norm(X, axis=1)
    norms[norms == 0.0] = 1.0  # measure-zero, but keep the rescale well-defined
    scales = spec.row_scale_spread ** (np.arange(spec.n) / max(spec.n - 1.0, 1.0))
    X *= (scales / norms)[:, None]
    # sparse planted parameter: ceil(d/10) coordinates, magnitudes in [3, 6)
    k_signal = max(1, -(-spec.d // 10))
    support = rng.choice(spec.d, size=k_signal, replace=False)
    w_true = np.zeros(spec.d)
    w_true[support] = rng.choice([-1.0, 1.0], size=k_signal) * (
        3.0 + 3.0 * rng.random(k_signal)
    )
    margins = X @ w_true
    if spec.task == LEAST_SQUARES:
        y = margins + spec.noise_std * rng.standard_normal(spec.n)
    else:
        noisy = margins + spec.noise_std * rng.standard_normal(spec.n)
        y = np.where(noisy >= 0.0, 1.0, -1.0)
    return SparseDesignMatrix.from_dense(X), y
