"""The compiled inner-step kernel: that it loads where it can, and that its absence is quiet.

Bit-identity with the numpy loop is checked by the golden traces (both
loops against one table) and by the differential properties in
``test_properties.py``; this file covers the build, the cache keyed on the
source and the flags, the fallback and the probe that decides between the
two loops, and pins one epoch through each path of the kernel's l1-ball
step and several through its l1-penalty slots.
"""

import os
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
from vrgrad.problems import L1Ball, L1Regularizer, LossSpec, ProblemSpec, SparseDesignMatrix
from vrgrad.solvers import SolverConfig, run_prox_svrg, run_vrpsg

from conftest import inner_steps, random_least_squares, random_logistic


def _working_gcc():
    """The gcc on PATH if it builds a shared library with ``library()``'s flags, else None."""
    gcc = shutil.which("gcc")
    with tempfile.TemporaryDirectory() as tmp:
        source = Path(tmp) / "empty.c"
        source.write_text("int empty(void) { return 0; }\n")
        build = [gcc, *_epoch._flags(), "-o", str(source.with_suffix(".so")), str(source)]
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


# ---- one epoch through each path of the l1-ball step, against the numpy loop

def ball_epochs(X, labels, tau, g, epochs, loop):
    """The iterate after each of ``epochs`` calls of one loop's steps under the ball of
    radius tau: each call draws every row of X in order, from the last call's iterate
    (w = 0 first), with step 1 and eta times the snapshot gradient g."""
    n, d = X.shape
    problem = ProblemSpec(matrix=SparseDesignMatrix.from_dense(X),
                          loss=LossSpec(kind="least_squares", labels=labels),
                          constraint=L1Ball(tau=tau))
    steps = inner_steps(loop)(problem)
    w, out = np.zeros(d), []
    for _ in range(epochs):
        w = steps(w, np.arange(n), np.zeros(n), np.ones(n), 1.0, g, False, None)
        out.append((w + 0.0).tobytes())
    return out


def assert_ball_epochs_agree(X, labels, tau, g=None, epochs=1):
    X = np.asarray(X, dtype=np.float64)
    g = np.zeros(X.shape[1]) if g is None else np.asarray(g, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    want = ball_epochs(X, labels, tau, g, epochs, "numpy")
    assert ball_epochs(X, labels, tau, g, epochs, "compiled") == want
    return [np.frombuffer(w) for w in want]


def one_big_row(n, d, seed, scale=1e3):
    """A random design whose last row is ``scale`` times the others, and random labels."""
    rng = np.random.Generator(np.random.Philox(seed))
    X = rng.standard_normal((n, d))
    X[-1] *= scale
    return X, rng.standard_normal(n)


@needs_library
def test_ball_step_takes_the_full_sort_when_the_threshold_halves():
    # step 1 projects (2.8, 0, ...) at threshold 1.8; step 2 projects (1.5, 0.8, 0.8,
    # 0.8, 0, ...), whose threshold 0.725 lies below half of that: the warm bound 0.9
    # keeps 1.5 alone, and 1.5 - tau = 0.5 fails the guard there, though it passes one
    # taken against any bound below 0.5, such as (total - tau) / d = 0.29
    X = np.zeros((2, 10))
    X[0, 0], X[1, :4] = 2.8, [0.5, 0.8, 0.8, 0.8]
    w = assert_ball_epochs_agree(X, [1.0, 1.5], 1.0)[0]
    assert np.allclose(w, [0.775, 0.075, 0.075, 0.075] + [0.0] * 6, rtol=0.0, atol=1e-15)
    # a row 1e3 times the others: each step after it finds a threshold far below
    X, y = one_big_row(12, 30, seed=5)
    assert_ball_epochs_agree(X[::-1], y[::-1], 1.0, epochs=2)


@needs_library
def test_ball_step_with_ties_at_the_threshold():
    # three magnitudes tie at the threshold, and the rounded test admits them
    v = [0.5629921770044009, 1.43046318141301, -0.5758757359602791, -0.10530144599225422,
         0.10530144599225422, -0.10530144599225422, 0.06926315598997633, 0.04509221114797176,
         -0.05515059068711284]
    assert_ball_epochs_agree(np.zeros((2, 9)), [0.0, 0.0], 2.253426756400927, g=np.negative(v))
    assert_ball_epochs_agree(np.zeros((1, 6)), [0.0], 5.0, g=[-3.0, -3.0, -3.0, 3.0, -1.0, -1.0])


@needs_library
def test_ball_step_falls_to_the_full_sort_where_the_guard_cannot_vouch():
    # the magnitudes above a bound that the threshold equals pass the guard with no
    # room: step 2 projects (3, 1, -1, 1, 0) onto tau = 2, at threshold 1, which is half
    # the last one and the Michelot bound reached from (total - tau) / d = 0.8
    X = [[4.0, 0.0, 0.0, 0.0, 0.0], [1.0, 1.0, -1.0, 1.0, 0.0]]
    w = assert_ball_epochs_agree(X, [1.0, 3.0], 2.0)[0]
    assert w.tolist() == [2.0, 0.0, 0.0, 0.0, 0.0]
    # from w = 0, where (total - tau) / d is the threshold itself
    assert_ball_epochs_agree(np.zeros((1, 4)), [0.0], 2.0, g=[-3.0, -1.0, 1.0, -1.0])


@needs_library
def test_ball_step_by_gaps_where_tau_is_lost_in_the_sums():
    X, y = one_big_row(10, 12, seed=6, scale=1.0)
    assert_ball_epochs_agree(X, y, 1e-13, epochs=2)
    assert_ball_epochs_agree(np.zeros((1, 2)), [0.0], 1.0, g=[-1e308, 1e308])


@needs_library
def test_ball_bound_is_carried_within_an_epoch_and_not_across_epochs():
    # each epoch ends on the big row, at a threshold far above the next epoch's first
    X, y = one_big_row(12, 30, seed=7)
    assert_ball_epochs_agree(X, y, 1.0, epochs=3)
    assert_ball_epochs_agree(X, y, 50.0, epochs=3)


# ---- the l1 penalty's packed slots, against the numpy loop

def slot_events(X, draws, g, t, w, iterates):
    """(slots made after a call's first step, times the drop rule fired): the kernel's
    slot bookkeeping replayed on the iterates of one call from w."""
    slots = {j for j in range(X.shape[1])
             if not abs(g[j]) <= t or w[j] != 0.0 or np.signbit(w[j])}
    made = drops = 0
    for s, (i, w) in enumerate(zip(draws, iterates)):
        new = {j for j in np.flatnonzero(X[i]) if j not in slots and w[j] != 0.0}
        made += len(new) if s else 0
        slots |= new
        idle = {j for j in slots if w[j] == 0.0 and abs(g[j]) <= t}
        if 2 * len(idle) > len(slots):
            drops += 1
            slots -= idle
    return made, drops


def penalty_case(full, seed):
    """(X, labels, g, w0): a design of 24 x 300 full rows (full True), or of 40 x 400
    with 5 to 20 entries a row, whose last 10 columns no row touches (False), or the
    same with every fourth row full ("mixed"); eta g of about 0.05, some of it above
    the threshold 0.1, and a start w0 with 100 small nonzeros and five -0 entries."""
    rng = np.random.Generator(np.random.Philox(seed))
    if full is True:
        X = 3.0 * rng.standard_normal((24, 300)) / np.sqrt(300)
    else:
        X = np.zeros((40, 400))
        for row in X:
            k = rng.integers(5, 21)
            row[rng.choice(390, k, replace=False)] = rng.standard_normal(k)
        if full == "mixed":
            X[::4] = 3.0 * rng.standard_normal((10, 400)) / np.sqrt(400)
    n, d = X.shape
    w0 = np.zeros(d)
    w0[rng.choice(d, 100, replace=False)] = 0.05 * rng.standard_normal(100)
    w0[rng.choice(np.flatnonzero(w0 == 0.0), 5, replace=False)] = -0.0
    return X, rng.standard_normal(n), 0.05 * rng.standard_normal(d), w0


@needs_library
@pytest.mark.parametrize("average", [False, True])
@pytest.mark.parametrize("loss", ["least_squares", "logistic"])
@pytest.mark.parametrize("full", [False, True, "mixed"])
def test_penalty_slots_agree_with_the_numpy_loop(full, loss, average):
    # a call that draws a partial row steps the slots, its full rows among them; one
    # that draws only full rows (full True) takes the kernel's dense loop, which has
    # no slots, so the slot events are counted for the other two designs only
    X, labels, g, w0 = penalty_case(full, seed=4)
    if full is False:  # untouched columns at +0 that only their slots move, through every drop
        g[-1], g[-2], w0[-2:] = np.nan, -np.inf, 0.0
    if loss == "logistic":
        labels = np.sign(labels)
    n, d = X.shape
    lam, eta = 0.2, 0.5
    problem = ProblemSpec(matrix=SparseDesignMatrix.from_dense(X),
                          loss=LossSpec(kind=loss, labels=labels),
                          regularizer=L1Regularizer(lam=lam))
    numpy_steps, compiled_steps = (inner_steps(loop)(problem) for loop in ("numpy", "compiled"))
    rng = np.random.Generator(np.random.Philox(5))
    snap_coef, weight = 0.1 * rng.standard_normal(n), 0.5 + rng.random(n)
    w, made, drops = w0, 0, 0
    for _ in range(3):
        draws = rng.integers(0, n, 3 * n)
        want = numpy_steps(w, draws, snap_coef, weight, eta, g, average, None)
        got = compiled_steps(w, draws, snap_coef, weight, eta, g, average, None)
        assert got.tobytes() == want.tobytes()
        iterates, v = [], w
        for i in draws:
            v = numpy_steps(v, np.array([i]), snap_coef, weight, eta, g, False, None)
            iterates.append(v)
        events = slot_events(X, draws, g, eta * lam, w, iterates)
        made, drops = made + events[0], drops + events[1]
        w = want
    if full is not True:
        assert made > 0 and drops > 2, (made, drops)
    if full is False:
        assert np.isnan(w[-1]) and w[-2] == np.inf


@needs_gcc
def test_probe_refuses_a_kernel_that_drops_slots_wrongly(fresh_library, monkeypatch, tmp_path):
    # a kernel that loses a dropped slot's running sum is wrong only after a drop
    text = _epoch._SOURCE.read_text()
    assert text.count("acc[j] = acca[a];") == 1
    source = tmp_path / "_epoch.c"
    source.write_text(text.replace("acc[j] = acca[a];", "acc[j] += 0.0;"))
    monkeypatch.setattr(_epoch, "_SOURCE", source)
    assert solvers._probe.__wrapped__(solvers._BALL, "logistic")
    for loss in ("least_squares", "logistic"):
        assert not solvers._probe.__wrapped__(solvers._PENALTY, loss)


@needs_gcc
def test_probe_refuses_a_kernel_whose_dense_penalty_step_thresholds_wrongly(fresh_library,
                                                                            monkeypatch, tmp_path):
    # calls that draw only full rows take the dense loop: a threshold of lam in place
    # of eta lam there leaves the slots and the ball as they were
    text, dense = _epoch._SOURCE.read_text(), "w[j] = soft(v[j], eta * radius);"
    assert text.count(dense) == 1
    source = tmp_path / "_epoch.c"
    source.write_text(text.replace(dense, "w[j] = soft(v[j], radius);"))
    monkeypatch.setattr(_epoch, "_SOURCE", source)
    assert solvers._probe.__wrapped__(solvers._BALL, "logistic")
    for loss in ("least_squares", "logistic"):
        assert not solvers._probe.__wrapped__(solvers._PENALTY, loss)


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
        paths = list(pool.map(lambda _: _epoch._build(GCC, _epoch._flags()), range(2)))
    assert paths[0] == paths[1]
    assert [p.name for p in fresh_library.iterdir()] == [paths[0].name]


@needs_gcc
def test_a_build_from_a_new_source_removes_the_old_library(fresh_library, monkeypatch, tmp_path):
    source = tmp_path / "_epoch.c"
    source.write_bytes(_epoch._SOURCE.read_bytes())
    monkeypatch.setattr(_epoch, "_SOURCE", source)
    old = _epoch._build(GCC, _epoch._flags())
    source.write_bytes(_epoch._SOURCE.read_bytes() + b"/* edited */\n")
    new = _epoch._build(GCC, _epoch._flags())
    assert new != old
    assert [p.name for p in fresh_library.iterdir()] == [new.name]


def test_flags_follow_numpy_cpu_report(monkeypatch):
    features = pytest.importorskip("numpy._core._multiarray_umath").__cpu_features__
    monkeypatch.setitem(features, "X86_V3", True)
    assert _epoch._flags() == _epoch._FLAGS + ("-march=x86-64-v3",)
    monkeypatch.setitem(features, "X86_V3", False)
    assert _epoch._flags() == _epoch._FLAGS
    monkeypatch.setitem(sys.modules, "numpy._core._multiarray_umath", None)  # cannot import
    assert _epoch._flags() == _epoch._FLAGS


@needs_gcc
@pytest.mark.skipif("-march=x86-64-v3" not in _epoch._flags(),
                    reason="numpy reports no X86_V3 on this CPU")
def test_a_baseline_build_sits_beside_the_v3_build_and_passes_the_probe(fresh_library,
                                                                         monkeypatch):
    from numpy._core._multiarray_umath import __cpu_features__

    v3 = Path(_epoch.library()._name)
    monkeypatch.setitem(__cpu_features__, "X86_V3", False)  # as a CPU without AVX2 reports
    forget()
    baseline = Path(_epoch.library()._name)
    source = v3.name.rsplit("-", 1)[0]
    assert baseline.name != v3.name and baseline.name.startswith(source + "-")
    assert sorted(fresh_library.iterdir()) == sorted([v3, baseline])  # both survive
    assert baseline == _epoch._build(GCC, _epoch._FLAGS)
    for code in range(4):
        for loss in ("least_squares", "logistic"):
            assert solvers._probe.__wrapped__(code, loss), (code, loss)


@needs_gcc
def test_a_gcc_that_cannot_build_for_v3_gives_the_baseline_build(fresh_library, monkeypatch,
                                                                  tmp_path):
    features = pytest.importorskip("numpy._core._multiarray_umath").__cpu_features__
    monkeypatch.setitem(features, "X86_V3", True)
    fake, calls = tmp_path / "gcc", tmp_path / "calls"
    fake.write_text(f'#!/bin/sh\necho "$*" >> {calls}\n'
                    f'case "$*" in *-march=x86-64-v3*) exit 1;; esac\nexec {GCC} "$@"\n')
    fake.chmod(0o755)
    monkeypatch.setattr(shutil, "which", lambda name: str(fake))
    host = _epoch._target(_epoch._flags())
    assert Path(_epoch.library()._name) == host
    assert list(fresh_library.iterdir()) == [host]  # the baseline build, under the host's name
    runs = calls.read_text().splitlines()
    assert len(runs) == 2 and "-march=x86-64-v3" in runs[0] and "-march" not in runs[1]
    for code in range(4):
        for loss in ("least_squares", "logistic"):
            assert solvers._probe.__wrapped__(code, loss), (code, loss)
    # a later process loads the cached build and does not run gcc again
    forget()
    assert Path(_epoch.library()._name) == host
    assert len(calls.read_text().splitlines()) == 2


@needs_gcc
@pytest.mark.skipif(shutil.which("gcc", path=os.defpath) is None,
                    reason="no gcc on the default path")
def test_a_process_with_no_path_still_builds(fresh_library, monkeypatch):
    # gcc is found on os.defpath, and must be run with it, or it cannot find ld
    monkeypatch.delenv("PATH")
    assert _epoch.library() is not None


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
