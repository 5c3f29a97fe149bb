"""In-memory spans around the public functions of ymgap's modules.

``Tracer.install`` replaces every public function of each layer module by
a wrapper, by module attribute. Calls inside a module look the name up in
the module's globals, so they are recorded too. A span is
``[function id, start, end, parent span index]``; self time is a span's
duration minus the durations of its child spans.
"""

from __future__ import annotations

import collections
import functools
import inspect
import time

import numpy as np


class Tracer:
    def __init__(self, modules, observers=None):
        """``modules`` maps a layer name to its module. ``observers`` maps a
        function name ``layer.function`` to ``f(counters, arguments, result)``,
        called after each call with the bound arguments."""
        self.modules = modules
        self.observers = observers or {}
        self.names = []             # function id -> 'layer.function'
        self.spans = []
        self.counters = collections.Counter()
        self._stack = []
        self._wrappers = {}
        self._saved = []

    def install(self):
        home = {module.__name__: layer for layer, module in self.modules.items()}
        for module in self.modules.values():
            for attr, obj in list(vars(module).items()):
                if attr.startswith('_') or not inspect.isfunction(obj):
                    continue
                layer = home.get(obj.__module__)
                if layer is None:
                    continue
                wrapper = self._wrappers.get(obj)
                if wrapper is None:
                    wrapper = self._wrappers[obj] = self._wrap(f"{layer}.{obj.__name__}", obj)
                self._saved.append((module, attr, obj))
                setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, obj in reversed(self._saved):
            setattr(module, attr, obj)
        self._saved.clear()

    def _wrap(self, name, fn):
        fid = len(self.names)
        self.names.append(name)
        spans, stack, counters, clock = self.spans, self._stack, self.counters, time.perf_counter
        observe = self.observers.get(name)
        signature = inspect.signature(fn) if observe else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [fid, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                observe(counters, bound.arguments, result)
            return result

        return traced

    def take(self):
        """Per-function ``{name: (calls, inclusive s, self s)}`` and the
        counters recorded since the last call; both are then cleared."""
        names = self.names
        stats = {name: (0, 0.0, 0.0) for name in names}
        if self.spans:
            arr = np.array(self.spans, dtype=float)
            fid = arr[:, 0].astype(np.intp)
            parent = arr[:, 3].astype(np.intp)
            dur = arr[:, 2] - arr[:, 1]
            child = np.zeros(len(arr))
            nested = parent >= 0
            np.add.at(child, parent[nested], dur[nested])
            k = len(names)
            calls = np.bincount(fid, minlength=k)
            incl = np.bincount(fid, weights=dur, minlength=k)
            own = np.bincount(fid, weights=dur - child, minlength=k)
            stats = {name: (int(calls[i]), float(incl[i]), float(own[i]))
                     for i, name in enumerate(names)}
        counters = dict(self.counters)
        self.spans.clear()
        self.counters.clear()
        return stats, counters
