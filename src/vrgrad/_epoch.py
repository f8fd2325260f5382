"""Build and load ``_epoch.c``: compiled inner steps, CSR products, sigmoid and libsvm reader.

``library()`` is the one entry point.  The source is compiled on first use
with the system ``gcc`` into this package's ``__pycache__`` and loaded
through ctypes; later processes load the cached library.  The flags are
``-O3 -ffp-contract=off``, and ``-march=x86-64-v3`` where numpy reports the
CPU's ``X86_V3`` group; no flag moves a bit.  The file name hashes the
source and the flags asked for, so a library built for x86-64-v3 is never
loaded on a CPU without the group, and both builds can share one cache.
numpy reports the group by that name only in recent releases (2.4.6 does);
under one that reports AVX2, FMA3 and the rest one by one, as 1.x does,
the baseline build runs.
Where gcc refuses the flag (before gcc 11), the baseline build is cached
under the v3 name, so later processes load it without asking gcc again.
The compiler writes to a temporary name that is then renamed into place,
so processes that build at once do not see each other's half written
files, and a new build removes the files of other sources.  With no
``PATH``, gcc runs with ``os.defpath``, where it was found.  ``library()``
returns None, quietly, when there is no compiler, the cache cannot be
written or the build fails: ``problems`` then takes its products and
sigmoid from scipy, ``data`` reads libsvm files in Python, and ``solvers``
runs the numpy loop."""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

_SOURCE = Path(__file__).with_name("_epoch.c")
_CACHE = Path(__file__).with_name("__pycache__")
_FLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")


def _flags() -> tuple:
    """The compiler flags: ``_FLAGS``, and ``-march=x86-64-v3`` where numpy reports X86_V3."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
        v3 = __cpu_features__.get("X86_V3") is True
    except Exception:  # another numpy layout: the baseline build is right everywhere
        v3 = False
    return _FLAGS + (("-march=x86-64-v3",) if v3 else ())


def _tag(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _target(flags) -> Path:
    """The cache file of this source built with these flags."""
    return _CACHE / f"_epoch-{_tag(_SOURCE.read_bytes())}-{_tag(' '.join(flags).encode())}.so"


def _build(compiler, flags) -> Path:
    """``_target(flags)``, built unless cached; the baseline flags go in where gcc
    refuses these."""
    target = _target(flags)
    source = target.name.rsplit("-", 1)[0] + "-"
    if not target.exists():
        _CACHE.mkdir(exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=_CACHE, prefix="_epoch-", suffix=".tmp")
        os.close(fd)
        env = None if "PATH" in os.environ else {**os.environ, "PATH": os.defpath}

        def gcc(flags):  # with no PATH, gcc finds itself on os.defpath but not ld
            subprocess.run([compiler, *flags, "-o", tmp, str(_SOURCE), "-lm"],
                           check=True, capture_output=True, timeout=120, env=env)
        try:
            try:
                gcc(flags)
            except subprocess.CalledProcessError:
                if flags == _FLAGS:
                    raise
                gcc(_FLAGS)  # a gcc before 11 does not know x86-64-v3
            os.replace(tmp, target)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        for stale in _CACHE.glob("_epoch-*.so"):
            if not stale.name.startswith(source):  # from other sources, whatever the flags
                stale.unlink(missing_ok=True)
    return target


@functools.lru_cache(maxsize=None)
def library():
    """The built library through ctypes, every function typed; or None."""
    compiler = shutil.which("gcc")
    if compiler is None:
        return None
    try:
        lib = ctypes.CDLL(str(_build(compiler, _flags())))
    except (OSError, subprocess.SubprocessError):
        return None
    p, i64, f64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
    lib.vrgrad_steps.argtypes = [i64, p, p, p, p, i64, i64, f64, p, p, p, i64, p, p, f64, p, i64,
                                 p, p, p]
    lib.vrgrad_steps.restype = ctypes.c_int
    lib.vrgrad_matvec.argtypes = [i64, i64, p, p, p, p, p]
    lib.vrgrad_rmatvec.argtypes = [i64, i64, p, p, p, p, p]
    lib.vrgrad_sigmoid.argtypes = [i64, p, p]
    lib.vrgrad_libsvm_size.argtypes = [ctypes.c_char_p, i64, p]
    lib.vrgrad_read_libsvm.argtypes = [ctypes.c_char_p, i64, p, p, p, p, p]
    for fn in (lib.vrgrad_libsvm_size, lib.vrgrad_read_libsvm):
        fn.restype = ctypes.c_int
    for fn in (lib.vrgrad_matvec, lib.vrgrad_rmatvec, lib.vrgrad_sigmoid):
        fn.restype = None
    return lib
