"""Span tracing of the bcsjj layers from outside the package.

``install`` replaces every binding of every public bcsjj function with
a wrapper that records one span per call: function, parent span,
start and end.  "Every binding" means each module attribute (so
``sweep.solve_ness``, bound by ``from .ness import``, is wrapped as
well as ``ness.solve_ness``) and each function held in a module-level
dict, list or tuple (the CLI dispatch table, the check registry).
Spans stay in memory in flat arrays; ``summary`` reduces them once, at
the end.  A function is named ``<layer>.<name>`` after the module that
defines it, and a layer's self time is the sum of its spans' durations
minus the time their direct children cover.
"""

import functools
import importlib
import pkgutil
import types
from array import array
from time import perf_counter

SKIP_MODULES = ("__main__",)  # importing it runs the CLI


class Tracer:
    """In-memory spans plus the wrappers that record them.

    ``observers`` maps a span name, or a name prefix ending in ``*``, to
    a callable(args, kwargs, result, seconds) run after each such call;
    set them before ``install``.  ``clock`` times the spans.
    """

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.names = []
        self.func = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.observers = {}
        self.originals = {}

    def wrap(self, name, func):
        """Wrapper recording a span named ``name`` around ``func``."""
        index = len(self.names)
        self.names.append(name)
        observer = self.observers.get(name) or next(
            (fn for key, fn in self.observers.items()
             if key.endswith("*") and name.startswith(key[:-1])), None)
        stack, fn, parent, start, end = self._stack, self.func, self.parent, self.start, self.end
        clock = self.clock

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            sid = len(fn)
            fn.append(index)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = func(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if observer is not None:
                observer(args, kwargs, result, end[sid] - start[sid])
            return result

        wrapper.__wrapped_span__ = name
        self.originals[name] = func
        return wrapper

    def summary(self):
        """{name: (calls, self seconds)} over all spans."""
        selfs = self_times(self.parent, self.start, self.end)
        out = {}
        for sid, index in enumerate(self.func):
            calls, self_s = out.get(self.names[index], (0, 0.0))
            out[self.names[index]] = (calls + 1, self_s + selfs[sid])
        return out


def self_times(parent, start, end):
    """Duration of each span minus the durations of its direct children.

    Spans of one thread nest, so the direct children of a span cover
    disjoint parts of it.  ``parent[i]`` is -1 for a root span.
    """
    selfs = [end[i] - start[i] for i in range(len(parent))]
    for i, p in enumerate(parent):
        if p >= 0:
            selfs[p] -= end[i] - start[i]
    return selfs


def _layer_modules(package):
    modules = [package]
    for info in pkgutil.iter_modules(package.__path__):
        if info.name not in SKIP_MODULES:
            modules.append(importlib.import_module(f"{package.__name__}.{info.name}"))
    return modules


def _is_public_function(value, package_name):
    return (
        isinstance(value, types.FunctionType)
        and not value.__name__.startswith("_")
        and (value.__module__ or "").startswith(package_name + ".")
        and not hasattr(value, "__wrapped_span__")
    )


def install(tracer, package_name="bcsjj"):
    """Wrap every binding of every public function of the package."""
    package = importlib.import_module(package_name)
    wrappers = {}

    def wrapped(func):
        if func not in wrappers:
            layer = func.__module__.rsplit(".", 1)[-1]
            wrappers[func] = tracer.wrap(f"{layer}.{func.__name__}", func)
        return wrappers[func]

    def rebind(value, depth=0):
        """(new value, replaced count) with functions in containers wrapped."""
        if _is_public_function(value, package_name):
            return wrapped(value), 1
        if depth >= 2 or not isinstance(value, (dict, list, tuple)):
            return value, 0
        items = value.items() if isinstance(value, dict) else enumerate(value)
        changed, count = {}, 0
        for key, item in items:
            new, n = rebind(item, depth + 1)
            if n:
                changed[key], count = new, count + n
        if not count:
            return value, 0
        if isinstance(value, dict):
            value.update(changed)
            return value, count
        new_items = [changed.get(i, item) for i, item in enumerate(value)]
        if isinstance(value, list):
            value[:] = new_items
            return value, count
        return tuple(new_items), count

    for module in _layer_modules(package):
        for attr, value in list(vars(module).items()):
            if attr.startswith("__"):
                continue
            new, count = rebind(value)
            if count:
                setattr(module, attr, new)
