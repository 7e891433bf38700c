"""In-memory spans around calls into loadsysid's public functions.

The package is not modified.  ``Tracer.install`` replaces each listed
function, in every loadsysid module that has bound it (``from x import f``
makes a second binding), with a wrapper that appends one span per call:
name, start, end, parent span and whether the call raised.  The spans stay
in memory until the benchmark writes them out at the end of a run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time


class Span:
    __slots__ = ("name", "start", "end", "parent", "failed", "phase",
                 "items", "result")

    def __init__(self, name, start, parent, phase):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent      # index of the enclosing span, or None
        self.failed = False
        self.phase = phase
        self.items = None         # work count: samples, substeps, bytes
        self.result = None        # return value, kept only where asked

    @property
    def duration(self):
        return self.end - self.start

    def as_row(self):
        return [self.name, self.start, self.end, self.parent, self.failed,
                self.phase, self.items]


class Target:
    """One traced function, ``module.func``.

    ``name`` defaults to the last module component and the function name.
    ``tag(args, kwargs)`` appends a suffix to the span name (the method of
    an identification call); ``items(args, kwargs, result)`` gives the
    span's work count; ``keep`` stores the return value on the span;
    ``wrap_args(tracer, args, kwargs)`` may replace the arguments before
    the call, to trace a callback the function receives.
    """

    def __init__(self, module, func, name=None, tag=None, items=None,
                 keep=False, wrap_args=None):
        self.module = module
        self.func = func
        self.name = name or f"{module.rsplit('.', 1)[-1]}.{func}"
        self.tag = tag
        self.items = items
        self.keep = keep
        self.wrap_args = wrap_args


class Tracer:
    def __init__(self):
        self.spans = []
        self.phase = "setup"
        self._stack = []
        self._installed = []

    def wrap(self, target, fn):
        """``fn`` with a span recorded around every call."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = target.name
            if target.tag is not None:
                name += target.tag(args, kwargs)
            if target.wrap_args is not None:
                args, kwargs = target.wrap_args(self, args, kwargs)
            span = Span(name, clock(), stack[-1] if stack else None,
                        self.phase)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = clock()
                stack.pop()
            if target.items is not None:
                span.items = target.items(args, kwargs, result)
            if target.keep:
                span.result = result
            return result

        return traced

    def install(self, targets):
        for target in targets:
            original = getattr(importlib.import_module(target.module),
                               target.func)
            wrapper = self.wrap(target, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "loadsysid"
                                       or mod_name.startswith("loadsysid.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._installed.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._installed):
            setattr(mod, attr, original)
        self._installed.clear()

    def results(self, prefix):
        """Kept return values of the spans whose name starts with prefix."""
        return [(s.name, s.result) for s in self.spans
                if s.name.startswith(prefix) and s.result is not None]


def self_times(spans):
    """Per span: its duration minus the time its direct children cover."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def enclosing(spans, index, prefix):
    """Name of the innermost span around ``index`` starting with prefix."""
    parent = spans[index].parent
    while parent is not None:
        if spans[parent].name.startswith(prefix):
            return spans[parent].name
        parent = spans[parent].parent
    return None
