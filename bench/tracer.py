"""Outside-in span tracer for the dgr benchmark.

The tracer wraps public functions of dgr modules from outside the library,
so no line under ``src/`` changes. Every call of a wrapped function is a
span, whoever the caller; a span's self time is its duration minus the
time its child spans cover. Spans are aggregated in memory per
(span, parent) as [calls, total seconds, self seconds]: a sweep makes
millions of calls, so no per-call record is kept.
"""

from __future__ import annotations

import inspect
import sys
import time
from contextlib import contextmanager


class Tracer:
    """Span aggregates for one traced call tree under the span ``root``."""

    def __init__(self, root: str):
        # frame: [span name, seconds covered by child spans]
        self.stack = [[root, 0.0]]
        self.spans: dict[tuple[str, str], list] = {}
        # span name -> {result key: calls}, for spans given a classifier
        self.outcomes: dict[str, dict] = {}

    @property
    def root_child_s(self) -> float:
        """Seconds of the root covered by child spans."""
        return self.stack[0][1]

    def _wrap(self, name: str, fn, classify):
        stack, spans, clock = self.stack, self.spans, time.perf_counter
        outcomes = self.outcomes.setdefault(name, {}) if classify else None

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                agg = spans.get((name, parent[0]))
                if agg is None:
                    agg = spans[(name, parent[0])] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += elapsed - frame[1]
            if classify is not None:
                key = classify(result)
                outcomes[key] = outcomes.get(key, 0) + 1
            return result

        return traced

    @contextmanager
    def patched(self, modules, methods, classify):
        """Trace the public functions of ``modules`` and the given methods.

        ``methods`` holds (class, attribute) pairs. ``classify`` maps a span
        name to a function of the call's result whose value is counted in
        ``outcomes``. Every name under which a wrapped function is bound in
        a loaded module of the same package is rebound too, so names
        imported with ``from module import name`` are traced as well. All
        bindings are restored on exit.
        """
        wrappers: dict[int, tuple] = {}
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[-1]
            for attr, fn in vars(module).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    name = f"{layer}.{attr}"
                    wrappers[id(fn)] = (fn, self._wrap(name, fn, classify.get(name)))
        restore = []
        for cls, attr in methods:
            fn = vars(cls)[attr]
            name = f"{cls.__module__.rsplit('.', 1)[-1]}.{attr}"
            setattr(cls, attr, self._wrap(name, fn, classify.get(name)))
            restore.append((cls, attr, fn))
        package = modules[0].__name__.split(".", 1)[0]
        for mod_name, module in list(sys.modules.items()):
            if module is None or mod_name.split(".", 1)[0] != package:
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    restore.append((module, attr, value))
        try:
            yield self
        finally:
            for owner, attr, value in reversed(restore):
                setattr(owner, attr, value)
