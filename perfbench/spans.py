"""Spans around every call into the public functions of the `ist` modules.

`install()` wraps, in place, each public function and each public class's
`__init__` and public methods defined in the layer modules, and rebinds
every `ist.*` module global that pointed at an original, so calls made
through `from .x import y` are traced too. A span records calls, total
time and self time (total minus the time of spans opened inside it).
Generator functions get one span per resumption and count the items they
yield as `records`. A few spans also count the work they were handed.

Spans are kept in memory and written once, by `Tracer.dump`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time

LAYERS = ("cli", "experiments", "worlds", "metrics", "model", "spec_io",
          "audit", "infotheory", "_kernels", "rng")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _size(x) -> int:
    return int(getattr(x, "size", None) or len(x))


# span name -> f(args, kwargs, result) -> {count name: amount}
COUNTERS = {
    "kernels.entropy_bits": lambda a, k, r: {"cells": _size(_arg(a, k, 0, "p"))},
    "kernels.match_counts": lambda a, k, r: {
        "draws": _size(_arg(a, k, 2, "dim_ixs")) * int(_arg(a, k, 6, "n_draws"))},
    "spec_io.write_records": lambda a, k, r: {
        "bytes": os.path.getsize(_arg(a, k, 0, "path"))},
    "spec_io.record_to_line": lambda a, k, r: {"records": 1},
    "worlds.load_world": lambda a, k, r: {
        "dims": sum(len(t.dims) for t in r.tasks)},
}


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}   # name -> [calls, total_s, self_s]
        self.counts: dict[str, dict[str, int]] = {}
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _close(self, name: str, t0: float, calls: int) -> None:
        dt = time.perf_counter() - t0
        stack = self._stack()
        child = stack.pop()
        if stack:
            stack[-1] += dt
        s = self.stats.setdefault(name, [0, 0.0, 0.0])
        s[0] += calls
        s[1] += dt
        s[2] += dt - child

    def _count(self, name: str, amounts: dict) -> None:
        c = self.counts.setdefault(name, {})
        for key, n in amounts.items():
            c[key] = c.get(key, 0) + n

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_span(*args, **kwargs):
                it = fn(*args, **kwargs)
                calls = 1
                while True:
                    self._stack().append(0.0)
                    t0 = time.perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        self._close(name, t0, calls)
                        return
                    except BaseException:
                        self._close(name, t0, calls)
                        raise
                    self._close(name, t0, calls)
                    calls = 0
                    self._count(name, {"records": 1})
                    yield item
            return gen_span

        @functools.wraps(fn)
        def span(*args, **kwargs):
            self._stack().append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, t0, 1)
            if counter is not None:
                self._count(name, counter(args, kwargs, result))
            return result
        return span

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"ist.{layer}")
                   for layer in LAYERS}
        replaced = {}
        for layer, mod in modules.items():
            prefix = layer.lstrip("_")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self.wrap(f"{prefix}.{attr}", obj)
                    replaced[id(obj)] = (obj, wrapped)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(f"{prefix}.{attr}", obj)
        ist_modules = [m for n, m in list(sys.modules.items())
                       if m is not None and (n == "ist" or n.startswith("ist."))]
        for mod in ist_modules:
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

    def _wrap_class(self, name: str, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            if not inspect.isfunction(obj):
                continue  # properties, static and class methods stay as they are
            if attr == "__init__":
                setattr(cls, attr, self.wrap(name, obj))
            elif not attr.startswith("_"):
                setattr(cls, attr, self.wrap(f"{name}.{attr}", obj))

    def dump(self, path, **extra) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"stats": self.stats, "counts": self.counts, **extra}, fh)
