"""Build and load ``_epoch.c``: compiled inner steps, CSR products, sigmoid and libsvm reader.

``library()`` is the one entry point.  The source is compiled on first use
with the system ``gcc`` into this package's ``__pycache__``, under a name
keyed by a hash of the source and the flags, and loaded through ctypes;
later processes load the cached library.  The compiler writes to a
temporary name that is then renamed into place, so processes that build at
once do not see each other's half written files, and a new build removes
the libraries of older sources.  ``library()`` returns None, quietly, when
there is no compiler, the cache cannot be written or the build fails:
``problems`` then takes its products and sigmoid from scipy, ``data`` reads
libsvm files in Python, and ``solvers`` runs the numpy loop."""

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
_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")


def _build(compiler) -> Path:
    source = _SOURCE.read_bytes()
    tag = hashlib.sha256(source + " ".join(_FLAGS).encode()).hexdigest()[:16]
    target = _CACHE / f"_epoch-{tag}.so"
    if not target.exists():
        _CACHE.mkdir(exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=_CACHE, prefix="_epoch-", suffix=".tmp")
        os.close(fd)
        try:
            subprocess.run([compiler, *_FLAGS, "-o", tmp, str(_SOURCE), "-lm"],
                           check=True, capture_output=True, timeout=120)
            os.replace(tmp, target)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        for stale in set(_CACHE.glob("_epoch-*.so")) - {target}:  # from older sources
            stale.unlink(missing_ok=True)
    return target


@functools.lru_cache(maxsize=None)
def library():
    """The built library through ctypes, every function typed; or None."""
    compiler = shutil.which("gcc")
    if compiler is None:
        return None
    try:
        lib = ctypes.CDLL(str(_build(compiler)))
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
