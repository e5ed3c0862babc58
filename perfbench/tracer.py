"""Spans and counters recorded from outside a package, without editing it.

`Tracer.wrap_function` replaces a module-level function by a wrapper that
records a span, and rebinds every attribute of the package's loaded
modules that is bound to the same function object, because modules that
import names directly hold their own reference.  `Tracer.wrap_method`
does the same for a method at class level, either as a span or as a bare
call counter.  `Tracer.restore` puts every original back.

Spans are kept in memory as (name, start, end, parent, run id, sizes);
`self_times` derives self time from them.  The tracer assumes one thread.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import NamedTuple

ROOT_SPAN = "pipeline"  # the span around one whole traced call


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    run: int
    sizes: dict | None


class Tracer:
    def __init__(self, package: str):
        self.package = package
        self.spans: list[Span] = []
        self.calls: Counter = Counter()  # count-only wrappers
        self.errors: Counter = Counter()  # exceptions raised, by name
        self.run = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # --- patching -----------------------------------------------------

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap_function(self, module, attr: str, name: str, sizes=None):
        """Span every call of ``module.attr`` under every name it is bound to."""
        original = getattr(module, attr)
        wrapper = self._spanned(original, name, sizes)
        prefix = self.package + "."
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == self.package or mod_name.startswith(prefix)):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, wrapper)

    def wrap_method(self, cls, attr: str, name: str, count_only: bool = False):
        original = cls.__dict__[attr]
        wrapper = self._counted(original, name) if count_only else self._spanned(original, name)
        self._patch(cls, attr, wrapper)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- recording ----------------------------------------------------

    def _counted(self, original, name: str):
        calls, errors = self.calls, self.errors

        @functools.wraps(original)
        def counted(*args, **kwargs):
            calls[name] += 1
            try:
                return original(*args, **kwargs)
            except BaseException:
                errors[name] += 1
                raise

        return counted

    def _spanned(self, original, name: str, sizes=None):
        @functools.wraps(original)
        def spanned(*args, **kwargs):
            with self.span(name) as index:
                result = original(*args, **kwargs)
            if sizes is not None:
                self.set_sizes(index, sizes(args, kwargs, result))
            return result

        return spanned

    @contextmanager
    def span(self, name: str):
        """Record a span around the body; yields the span's index."""
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield index
        except BaseException:
            self.errors[name] += 1
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, self.run, None)

    def set_sizes(self, index: int, sizes: dict):
        self.spans[index] = self.spans[index]._replace(sizes=sizes)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for a, b in sorted(children[i]):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out.append((s.end - s.start) - covered)
    return out
