"""Per-module spans recorded from outside the library.

``Tracer.install`` replaces every public function of the ``eotypes``
modules, and every public method of their classes, with a wrapper that
records a span: its name ``<module>.<qualified name>``, start, end, parent
span and curve id. A function is replaced in every module namespace that
binds it, so calls between modules (``hwtriple`` calling ``poly_pow``) and
within a module are both seen. ``uninstall`` puts the originals back.
Nothing under ``src/`` changes.

A span's self time is its duration minus the durations of its children.
Spans are kept in memory and written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from array import array

import numpy as np

ROOT_SPAN = "bench.curve"


def _count_pow_terms(args, kwargs, out):
    return "polyring.poly_pow.out_terms", len(out.coeffs)


def _count_rref_entries(args, kwargs, out):
    M = args[1] if len(args) > 1 else kwargs["M"]
    return "semilinear.entries", int(np.size(M))


# Sizes recorded where the work happens: terms in the dense output of each
# power, and entries of each matrix that the linear algebra reduces (rank,
# null_space and solve_matrix all reduce through rref).
_COUNTERS = {
    "polyring.poly_pow": _count_pow_terms,
    "semilinear.rref": _count_rref_entries,
}


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _library_modules(package):
    prefix = package.__name__ + "."
    return [package] + [m for name, m in sorted(sys.modules.items())
                        if name.startswith(prefix) and m is not None]


def _traceable(obj, package) -> bool:
    module = getattr(obj, "__module__", None) or ""
    if not module.startswith(package.__name__ + "."):
        return False
    # plain functions, and lru_cache wrappers such as monomial_basis
    return isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info")


class Tracer:
    def __init__(self, package):
        self.package = package
        self.curve = -1
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_curve = array("q")
        self.calls = []
        self.total = []
        self.self_time = []
        self.counters = {}
        self._stack = []          # [span index, time covered by children]
        self._patches = []        # (owner, attribute, original value)

    # -- recording ------------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
        return self._ids[name]

    def enter(self, nid: int):
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_curve.append(self.curve)
        self.span_end.append(0.0)
        self._stack.append([len(self.span_start), 0.0])
        self.span_start.append(time.perf_counter())

    def exit(self):
        end = time.perf_counter()
        index, children = self._stack.pop()
        self.span_end[index] = end
        duration = end - self.span_start[index]
        if self._stack:
            self._stack[-1][1] += duration
        nid = self.span_name[index]
        self.calls[nid] += 1
        self.total[nid] += duration
        self.self_time[nid] += duration - children

    def count(self, name: str, value: int):
        self.counters[name] = self.counters.get(name, 0) + value

    def _wrap(self, fn, name: str):
        nid = self.name_id(name)
        counter = _COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.enter(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if counter is not None:
                tracer.count(*counter(args, kwargs, out))
            return out
        return traced

    # -- patching -------------------------------------------------------------

    def install(self):
        package = self.package
        prefix = package.__name__ + "."
        wrapped = {}      # id(original) -> wrapper, one per function
        classes = []
        for module in _library_modules(package):
            for attr, obj in list(vars(module).items()):
                if not _is_public(attr):
                    continue
                if isinstance(obj, type) and obj.__module__.startswith(prefix):
                    if obj not in classes:
                        classes.append(obj)
                elif _traceable(obj, package):
                    if id(obj) not in wrapped:
                        short = obj.__module__.rsplit(".", 1)[1]
                        wrapped[id(obj)] = self._wrap(obj, f"{short}.{obj.__qualname__}")
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, wrapped[id(obj)])
        for cls in classes:
            short = cls.__module__.rsplit(".", 1)[1]
            for attr, member in list(vars(cls).items()):
                if not _is_public(attr):
                    continue
                name = f"{short}.{cls.__qualname__}.{attr}"
                if isinstance(member, types.FunctionType):
                    replacement = self._wrap(member, name)
                elif isinstance(member, staticmethod):
                    replacement = staticmethod(self._wrap(member.__func__, name))
                elif isinstance(member, classmethod):
                    replacement = classmethod(self._wrap(member.__func__, name))
                else:
                    continue
                self._patches.append((cls, attr, member))
                setattr(cls, attr, replacement)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------------

    def stats(self, name: str):
        """(calls, total seconds, self seconds) of one span name."""
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0.0, 0.0
        return self.calls[nid], self.total[nid], self.self_time[nid]

    def module_self(self) -> dict:
        """Self seconds summed per module, the benchmark's root span included."""
        out = {}
        for name, own in zip(self.names, self.self_time):
            module = name.split(".", 1)[0]
            out[module] = out.get(module, 0.0) + own
        return out

    def write_spans(self, path):
        """Every span as parallel arrays in a compressed .npz file."""
        origin = self.span_start[0] if len(self.span_start) else 0.0
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, np.int32),
            start=np.frombuffer(self.span_start, np.float64) - origin,
            end=np.frombuffer(self.span_end, np.float64) - origin,
            parent=np.frombuffer(self.span_parent, np.int64),
            curve=np.frombuffer(self.span_curve, np.int64))
