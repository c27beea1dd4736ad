"""Spans recorded around the public functions of vmprox, from outside.

:class:`Tracer` replaces every public function and public method of the
traced modules with a wrapper that records one span per call: name, start,
end, parent span and solve id.  Spans stay in memory until the run ends.
Nothing in the package itself is edited; :meth:`Tracer.uninstall` puts the
original objects back.

Observers registered by span name see each call's arguments and result
after the span closes; the benchmark uses them to count LU factorizations,
Ritz fallbacks and direct convolutions, and to audit prox certificates.
"""

from __future__ import annotations

import functools
import inspect
from collections import defaultdict
from time import perf_counter

LAYERS = ("solver", "prox", "strategies", "problems", "operators", "config",
          "diagnostics", "cli", "pgm")

# Private methods traced anyway because a layer metric needs them.
EXTRA_METHODS = {"problems": {"MaskCompressionProblem": ("_system",)}}


class Tracer:
    """In-memory span recorder over the modules ``vmprox.<layer>``."""

    def __init__(self):
        # One row per span: [name, start, end, parent index, solve id].
        self.spans = []
        self.solve_id = 0
        self.observers = {}
        self._stack = []
        self._patches = []

    def observe(self, name, callback):
        """Call ``callback(args, kwargs, result)`` after each ``name`` span."""
        self.observers[name] = callback

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        observers = self.observers

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            row = [name, 0.0, 0.0, stack[-1] if stack else -1, self.solve_id]
            spans.append(row)
            stack.append(idx)
            row[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = perf_counter()
                stack.pop()
            observer = observers.get(name)
            if observer is not None:
                observer(args, kwargs, result)
            return result

        return traced

    def install(self, package):
        """Wrap the public functions and methods of ``package.<layer>``.

        A function is replaced under every name that binds it, in the
        layer modules and in the package's own re-exports, so calls through
        ``from .x import f`` imports are traced too.
        """
        modules = [getattr(package, layer) for layer in LAYERS]
        module_names = {m.__name__ for m in modules}
        wrapped = {}
        for namespace in [package, *modules]:
            layer = namespace.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(namespace).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ in module_names:
                    if obj not in wrapped:
                        owner = obj.__module__.rsplit(".", 1)[1]
                        wrapped[obj] = self._wrap(f"{owner}.{obj.__qualname__}", obj)
                    self._patch(namespace, attr, wrapped[obj])
                elif inspect.isclass(obj) and obj.__module__ == namespace.__name__:
                    extra = EXTRA_METHODS.get(layer, {}).get(obj.__name__, ())
                    self._wrap_class(layer, obj, extra)

    def _wrap_class(self, layer, cls, extra):
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in extra:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(member):
                self._patch(cls, attr, self._wrap(name, member))
            elif isinstance(member, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(name, member.__func__)))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def self_times(spans):
    """Per-span self time: duration minus the time its child spans cover.

    Calls are single-threaded and properly nested, so the children of one
    span never overlap and their durations add up.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - c for (_, start, end, _, _), c in zip(spans, child)]


def layer_self_seconds(spans):
    """Self time summed per layer (the span name's first component)."""
    totals = defaultdict(float)
    for row, own in zip(spans, self_times(spans)):
        totals[row[0].split(".", 1)[0]] += own
    return totals


def inclusive(spans, names):
    """Calls and wall time of the spans named in ``names``.

    A matching span nested inside another matching span (a Ritz step that
    falls back to its BB1 helper, say) is counted once, through its
    outermost ancestor.
    """
    names = set(names)
    calls = 0
    seconds = 0.0
    for row in spans:
        if row[0] not in names:
            continue
        parent = row[3]
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0:
            calls += 1
            seconds += row[2] - row[1]
    return calls, seconds
