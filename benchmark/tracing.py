"""In-memory spans around calls into vrgrad's public functions.

The program is not instrumented.  ``Tracer.install`` replaces every public
function of the traced modules, wherever a vrgrad module holds a reference
to it, with a wrapper that records (name, parent, start, end); ``uninstall``
puts the originals back.  Names are ``<module>.<function>``.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from contextlib import contextmanager

MODULES = ("cli", "data", "problems", "geometry", "sampling", "solvers", "certificates")
# public methods that matter as layers, beside the module-level functions
METHODS = (("problems", "SparseDesignMatrix", "from_dense"),)


class Tracer:
    def __init__(self):
        self.spans = []  # (name, parent index or -1, start ns, end ns)
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, parent, t0, t1)
        return traced

    def install(self):
        vr = {name: sys.modules[f"vrgrad.{name}"] for name in MODULES}
        holders = [m for key, m in sys.modules.items()
                   if key == "vrgrad" or key.startswith("vrgrad.")]
        wrapped = {}
        for short, mod in vr.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrapped[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        for holder in holders:
            for attr, obj in list(vars(holder).items()):
                if id(obj) in wrapped and wrapped[id(obj)][0] is obj:
                    setattr(holder, attr, wrapped[id(obj)][1])
                    self._undo.append((holder, attr, obj))
        for short, cls_name, meth in METHODS:
            cls = getattr(vr[short], cls_name)
            original = cls.__dict__[meth]
            fn = self._wrap(f"{short}.{cls_name}.{meth}", original.__func__)
            setattr(cls, meth, classmethod(fn))
            self._undo.append((cls, meth, original))

    def uninstall(self):
        while self._undo:
            holder, attr, obj = self._undo.pop()
            setattr(holder, attr, obj)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # ------------------------------------------------------------ queries

    def named(self, name):
        """Durations in seconds of every span with this name."""
        return [(t1 - t0) * 1e-9 for n, _, t0, t1 in self.spans if n == name]

    def children(self, index):
        return [(i, s) for i, s in enumerate(self.spans) if s[1] == index]

    def indices(self, name):
        return [i for i, s in enumerate(self.spans) if s[0] == name]

    def duration(self, index):
        _, _, t0, t1 = self.spans[index]
        return (t1 - t0) * 1e-9

    def self_time(self, index):
        """Span duration minus the time its direct children cover."""
        return self.duration(index) - sum((s[3] - s[2]) * 1e-9 for _, s in self.children(index))

    def summary(self):
        """{name: [count, total seconds]} over all spans."""
        out = {}
        for name, _, t0, t1 in self.spans:
            entry = out.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += (t1 - t0) * 1e-9
        return out
