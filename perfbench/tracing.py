"""Spans and probes patched around mirs functions from outside the package.

mirs modules import their collaborators by name (``from .propagation import
paths``), so a call made inside ``mirs.harness`` resolves ``paths`` in the
``mirs.harness`` namespace at call time.  Replacing that attribute for the
length of a pass intercepts every such call without touching ``src/``.

Spans are aggregated per name (calls, total and self time) rather than stored
one by one: a high-density dwell makes hundreds of ``paths`` calls.  A span's
self time is its duration minus the time its child spans cover.
"""
from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from time import perf_counter


@dataclass
class SpanStat:
    calls: int = 0
    total: float = 0.0
    self: float = 0.0


class Patches:
    """Attribute replacements on modules, made on entering the context and
    undone in reverse order on leaving it; the context can be re-entered."""

    def __init__(self):
        self._specs = []
        self._undo = []
        self.missing = {}          # qualified name -> reason it was not wrapped

    def replace(self, module, attr, make_wrapper):
        self._specs.append((module, attr, make_wrapper))

    def __enter__(self):
        for module, attr, make_wrapper in self._specs:
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing[f"{module.__name__}.{attr}"] = (
                    f"{module.__name__}.{attr} no longer exists")
                continue
            setattr(module, attr, functools.wraps(fn)(make_wrapper(fn)))
            self._undo.append((module, attr, fn))
        return self

    def __exit__(self, *exc):
        while self._undo:
            module, attr, fn = self._undo.pop()
            setattr(module, attr, fn)


class Tracer(Patches):
    """Aggregated spans and counters around patched functions."""

    def __init__(self):
        super().__init__()
        self.spans = {}            # span name -> SpanStat
        self.counts = Counter()
        self._child_time = []      # one accumulator per open span

    def span(self, module, attr, name, count=None):
        """Time calls of ``module.attr`` as span ``name``.

        ``count(counts, result, args, kwargs)`` runs after the span closes.
        Its time is hidden from the enclosing span's self time, so counting
        shows up only in the tracing overhead.
        """
        self.spans.setdefault(name, SpanStat())

        def make(fn):
            def wrapper(*args, **kwargs):
                self._child_time.append(0.0)
                t0 = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = perf_counter()
                    covered = self._child_time.pop()
                    st = self.spans[name]
                    st.calls += 1
                    st.total += t1 - t0
                    st.self += t1 - t0 - covered
                if count is not None:
                    count(self.counts, result, args, kwargs)
                if self._child_time:
                    self._child_time[-1] += perf_counter() - t0
                return result
            return wrapper

        self.replace(module, attr, make)

    def counter(self, module, attr, name):
        """Count calls of ``module.attr`` without timing them."""
        def make(fn):
            def wrapper(*args, **kwargs):
                self.counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        self.replace(module, attr, make)


class Recorder(Patches):
    """Per-call timestamps and results of patched functions.

    Workloads whose dwells run inside a mirs entry point (``run_sweep``,
    ``run_anechoic_analog``) use it to time each dwell and keep its output.
    It costs two clock reads per call, against dwells of tens of ms.
    """

    def __init__(self):
        super().__init__()
        self.calls = {}            # attr -> [(start, end, result)]

    def record(self, module, attr):
        log = self.calls.setdefault(attr, [])

        def make(fn):
            def wrapper(*args, **kwargs):
                t0 = perf_counter()
                result = fn(*args, **kwargs)
                log.append((t0, perf_counter(), result))
                return result
            return wrapper

        self.replace(module, attr, make)

    def __enter__(self):
        super().__enter__()
        if self.missing:
            self.__exit__(None, None, None)
            raise RuntimeError("; ".join(self.missing.values()))
        return self

    def take(self, attr):
        """Return and clear the calls recorded for ``attr``."""
        log = self.calls[attr]
        out = list(log)
        log.clear()
        return out
