"""Span tracer that times vertexscreen's layers from outside the package.

Every public function of the traced modules is wrapped, and every module
attribute bound to that function object (including by-name imports such as
``cli.load_dataset`` or ``classify.vertex_set``) is pointed at the wrapper,
so calls through any binding are recorded. Nothing inside the package
changes; ``uninstall`` restores the original bindings.

A span is ``[name, start, stop, close, parent, attrs]``. ``stop``
is when the wrapped function returned; ``close`` is after the tracer's own
bookkeeping for it, so that bookkeeping is charged to neither the span nor
its parent's self time.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

NAME, START, STOP, CLOSE, PARENT, ATTRS = range(6)


def public_functions(modules):
    """``{"module.function": function}`` for functions a module defines and
    does not mark private."""
    found = {}
    for short, module in modules.items():
        for attr, obj in vars(module).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__ == module.__name__
                and not attr.startswith("_")
            ):
                found[f"{short}.{attr}"] = obj
    return found


class Tracer:
    """Records nested spans for calls into the traced modules.

    ``attr_hooks`` maps a qualified function name to ``hook(bound, result)``
    returning a dict stored on the span; ``bound`` is the call's
    ``inspect.BoundArguments`` with defaults applied.
    """

    def __init__(self, modules, attr_hooks=None):
        self.modules = dict(modules)
        self.functions = public_functions(self.modules)
        self.spans = []
        self._stack = []
        self._patches = []
        hooks = attr_hooks or {}
        self._wrappers = {
            id(fn): (fn, self._wrap(name, fn, hooks.get(name)))
            for name, fn in self.functions.items()
        }

    def _wrap(self, name, fn, hook):
        signature = inspect.signature(fn) if hook else None
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[STOP] = clock()
                stack.pop()
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[ATTRS] = hook(bound, result)
            span[CLOSE] = clock()
            return result

        return wrapper

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module in self.modules.values():
            for attr, obj in list(vars(module).items()):
                entry = self._wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, attr, entry[1])
                    self._patches.append((module, attr, obj))

    def uninstall(self):
        for module, attr, obj in reversed(self._patches):
            setattr(module, attr, obj)
        self._patches.clear()


def aggregate(spans):
    """Per-function totals over a list of spans.

    Returns ``{name: {"calls", "busy_s", "self_s"}}``. ``busy_s`` counts only
    spans with no enclosing span of the same function, so recursion is not
    counted twice; ``self_s`` is a span's duration minus the part its
    direct children cover.
    """
    covered = defaultdict(float)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[CLOSE] - span[START]
    totals = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
    for index, span in enumerate(spans):
        name = span[NAME]
        duration = span[STOP] - span[START]
        entry = totals[name]
        entry["calls"] += 1
        entry["self_s"] += duration - covered[index]
        if not has_ancestor(spans, index, lambda s: s[NAME] == name):
            entry["busy_s"] += duration
    return dict(totals)


def has_ancestor(spans, index, predicate):
    parent = spans[index][PARENT]
    while parent >= 0:
        if predicate(spans[parent]):
            return True
        parent = spans[parent][PARENT]
    return False
