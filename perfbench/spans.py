"""In-memory span recorder for the traced run.

Spans are recorded from the benchmark's own code: `Tracer.wrap` replaces a
function at the name its callers look up (a module attribute or a class
attribute) with a wrapper that opens a span around each call.  Nothing under
`src/` changes.  Counts are taken from return values by an `on_result`
callback that runs after the span has closed, so it costs no span time.

Wrapped functions are only ever called from the main thread (the certify
thread pool runs private per-box closures, none of which is wrapped), so one
stack gives every span its parent.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def span(self, name: str):
        return _Span(self, name)

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace `owner.attr` by a spanning wrapper until `restore()`."""
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(tracer.counts, result, args, kwargs)
            return result

        self._restore.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._restore:
            owner, attr, fn = self._restore.pop()
            setattr(owner, attr, fn)

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """Total and self time per span name.

        A span's self time is its duration minus its direct children's
        durations; children of one span never overlap because they run on
        the same thread.
        """
        total: dict[str, float] = defaultdict(float)
        child: list[float] = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        for (name, start, end, _), c in zip(self.spans, child):
            own[name] += end - start - c
        return total, own


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        parent = t._stack[-1] if t._stack else -1
        self.index = len(t.spans)
        t.spans.append([self.name, time.perf_counter(), 0.0, parent])
        t._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.index][2] = time.perf_counter()
        t._stack.pop()
        return False
