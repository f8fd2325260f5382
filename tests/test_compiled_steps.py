"""The compiled inner-step kernel: that it loads where it can, and that its absence is quiet.

Bit-identity with the numpy loop is checked by the golden traces (both
loops against one table) and by the differential properties in
``test_properties.py``; this file covers the build, the cache, the
fallback and the probe that decides between the two loops.
"""

import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from vrgrad import _epoch, problems, solvers
from vrgrad.problems import L1Ball, L1Regularizer, SparseDesignMatrix
from vrgrad.solvers import SolverConfig, run_prox_svrg, run_vrpsg

from conftest import random_least_squares, random_logistic


def _working_gcc():
    """The gcc on PATH if it builds a shared library with the library's flags, else None."""
    gcc = shutil.which("gcc")
    with tempfile.TemporaryDirectory() as tmp:
        source = Path(tmp) / "empty.c"
        source.write_text("int empty(void) { return 0; }\n")
        build = [gcc, *_epoch._FLAGS, "-o", str(source.with_suffix(".so")), str(source)]
        return gcc if gcc and subprocess.run(build, capture_output=True).returncode == 0 else None


# keyed on what works, not on a gcc being on PATH, so that one that fails to compile skips them
LIBRARY, GCC = _epoch.library(), _working_gcc()
needs_library = pytest.mark.skipif(LIBRARY is None, reason="the compiled library does not load here")
needs_gcc = pytest.mark.skipif(GCC is None, reason="no gcc on PATH that builds a shared library")


def forget():
    """Forget the per-process answers: the library and the products."""
    for cached in (_epoch.library, problems._kernels):
        cached.cache_clear()


@pytest.fixture
def fresh_library(monkeypatch, tmp_path):
    """library() with its per-process answer forgotten and an empty cache directory."""
    monkeypatch.setattr(_epoch, "_CACHE", tmp_path / "cache")
    forget()
    yield tmp_path / "cache"
    forget()


def _vrpsg_trace():
    problem = random_least_squares(30, 8, seed=4, constraint=L1Ball(tau=0.5))
    return run_vrpsg(problem, SolverConfig(epochs=3, step_size=0.02, seed=2))


@needs_library
def test_kernel_passes_every_probe_where_the_library_loads():
    for code in range(4):
        for loss in ("least_squares", "logistic"):
            assert solvers._probe(code, loss), (code, loss)
    problem = random_logistic(10, 4, seed=1, regularizer=L1Regularizer(lam=0.1))
    assert solvers._inner_steps(problem).__qualname__.startswith("_compiled_steps")
    assert problems._kernels().matvec.__qualname__.startswith("_compiled_kernels")


def one_bit_high(x, y):
    return float(np.nextafter(problems._dot(x, y), np.inf))


def summed_in_order(x, y):
    total = 0.0
    for term in np.multiply(x, y).tolist():
        total += term
    return 0.0 + total


def numpy_loop_with_dot(dot):
    """A stand-in for ``_compiled_steps``: the numpy loop, its row dot ``dot`` on rows of
    8 entries or more."""
    def build(problem, lib):
        steps = solvers._numpy_steps(problem)

        def long_rows(x, y):
            return (dot if len(x) >= 8 else problems._dot)(x, y)

        def patched(*args):
            with mock.patch.object(solvers, "_dot", long_rows):
                return steps(*args)
        return patched
    return build


@pytest.mark.parametrize("loss", ["least_squares", "logistic"])
@pytest.mark.parametrize("code", range(4))
def test_probe_refuses_a_row_dot_off_only_on_rows_of_eight_or_more(monkeypatch, code, loss):
    monkeypatch.setattr(solvers, "_compiled_steps", numpy_loop_with_dot(problems._dot))
    assert solvers._probe.__wrapped__(code, loss)
    for off in (one_bit_high, summed_in_order):
        monkeypatch.setattr(solvers, "_compiled_steps", numpy_loop_with_dot(off))
        assert not solvers._probe.__wrapped__(code, loss), off.__name__


@needs_gcc
def test_build_is_cached_under_a_hash_and_leaves_no_temporary(fresh_library):
    # the kernel tests skip where the library does not load: a working gcc
    # must build it, or a broken _epoch.c would leave them quietly skipped
    assert _epoch.library() is not None
    built = sorted(p.name for p in fresh_library.iterdir())
    assert len(built) == 1 and built[0].startswith("_epoch-") and built[0].endswith(".so")
    forget()
    assert _epoch.library() is not None
    assert sorted(p.name for p in fresh_library.iterdir()) == built  # loaded, not rebuilt


@needs_gcc
def test_concurrent_builds_rename_whole_libraries_into_place(fresh_library):
    with ThreadPoolExecutor(2) as pool:
        paths = list(pool.map(lambda _: _epoch._build(GCC), range(2)))
    assert paths[0] == paths[1]
    assert [p.name for p in fresh_library.iterdir()] == [paths[0].name]


@needs_gcc
def test_a_build_from_a_new_source_removes_the_old_library(fresh_library, monkeypatch, tmp_path):
    source = tmp_path / "_epoch.c"
    source.write_bytes(_epoch._SOURCE.read_bytes())
    monkeypatch.setattr(_epoch, "_SOURCE", source)
    old = _epoch._build(GCC)
    source.write_bytes(_epoch._SOURCE.read_bytes() + b"/* edited */\n")
    new = _epoch._build(GCC)
    assert new != old
    assert [p.name for p in fresh_library.iterdir()] == [new.name]


def test_no_compiler_on_path_falls_back_quietly(fresh_library, monkeypatch, capfd):
    want = _vrpsg_trace()
    monkeypatch.setenv("PATH", "")
    forget()
    assert _epoch.library() is None
    problem = random_least_squares(5, 3, seed=0, regularizer=L1Regularizer(lam=0.1))
    assert solvers._inner_steps(problem).__qualname__.startswith("_numpy_steps")
    got = _vrpsg_trace()
    assert got.objective.tobytes() == want.objective.tobytes()
    assert (got.final_iterate + 0.0).tobytes() == (want.final_iterate + 0.0).tobytes()
    assert capfd.readouterr() == ("", "")


def test_unwritable_cache_falls_back_quietly(fresh_library, monkeypatch, tmp_path, capfd):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file where the cache directory's parent should be")
    monkeypatch.setattr(_epoch, "_CACHE", blocker / "cache")
    assert _epoch.library() is None
    problem = random_logistic(12, 4, seed=3, regularizer=L1Regularizer(lam=0.05))
    trace = run_prox_svrg(problem, SolverConfig(epochs=2, step_size=0.1, seed=1))
    assert np.all(np.isfinite(trace.objective))
    assert capfd.readouterr() == ("", "")


def test_failing_compiler_falls_back_quietly(fresh_library, monkeypatch, tmp_path, capfd):
    fake = tmp_path / "bin"
    fake.mkdir()
    (fake / "gcc").write_text("#!/bin/sh\necho broken >&2\nexit 1\n")
    (fake / "gcc").chmod(0o755)
    monkeypatch.setenv("PATH", str(fake))
    assert _epoch.library() is None
    assert not any(fresh_library.iterdir())  # the failed build's temporary is gone
    assert capfd.readouterr() == ("", "")


def test_failing_compiler_sends_products_and_sigmoid_to_scipy_with_the_same_bytes(
        fresh_library, monkeypatch, tmp_path, capfd):
    import scipy.sparse as sp
    from scipy.special import expit

    rng = np.random.Generator(np.random.Philox(0xFA11))
    X = rng.standard_normal((40, 9)) * (rng.random((40, 9)) < 0.5)
    X[3] = 0.0
    w, u, x = rng.standard_normal(9), rng.standard_normal(40), 40.0 * rng.standard_normal(500)
    A = sp.csr_matrix(X)
    want = [(A @ w).tobytes(), (A.T @ u).tobytes(), expit(x).tobytes()]
    fake = tmp_path / "bin"
    fake.mkdir()
    (fake / "gcc").write_text("#!/bin/sh\nexit 1\n")
    (fake / "gcc").chmod(0o755)
    monkeypatch.setenv("PATH", str(fake))
    m = SparseDesignMatrix.from_dense(X)
    assert problems._kernels().sigmoid is expit
    assert [m.matvec(w).tobytes(), m.rmatvec(u).tobytes(), problems.sigmoid(x).tobytes()] == want
    assert capfd.readouterr() == ("", "")


def test_import_does_not_touch_the_kernel():
    code = ("import sys, vrgrad, vrgrad.cli; print('vrgrad._epoch' in sys.modules, "
            "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={"PYTHONPATH": str(_epoch._SOURCE.parents[1])})
    assert out.stdout.strip() == "False []"


def test_cli_import_loads_no_process_pool_or_logging():
    # concurrent.futures, which imports logging, is loaded by bench --workers K > 1 only
    code = "import sys, vrgrad.cli; print('concurrent.futures' in sys.modules, 'logging' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={"PYTHONPATH": str(_epoch._SOURCE.parents[1])})
    assert out.stdout.strip() == "False False"
