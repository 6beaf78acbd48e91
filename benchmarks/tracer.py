"""In-memory span tracer for the benchmark's traced runs.

Spans are opened by the benchmark around the calls it makes into the
library.  Calls that one library module makes into another are traced by
rebinding, for the duration of a traced section only, the names the
importing module holds (``Tracer.patched``); the library itself is never
edited.  Spans stay in memory and are written out when the run ends.
"""
from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

NAME, PARENT, START, END, WORK, STOP = range(6)


class Tracer:
    """Nested spans ``[name, parent, start, end, work, stop]``.

    ``stop`` is one past the index of the span's last descendant, so a
    span and everything it caused are ``spans[i:stop]``.  ``work`` is an
    optional count recorded by a wrapper (kernel evaluations, say).
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self.enabled = False

    @contextmanager
    def span(self, name):
        if not self.enabled:
            yield None
            return
        rec = [name, self._stack[-1] if self._stack else -1, time.perf_counter(), None, 0, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[END] = time.perf_counter()
            rec[STOP] = len(self.spans)
            self._stack.pop()

    def wrap(self, fn, name, work=None):
        """``fn`` inside a span; ``work(result)`` is added to the span's count."""

        def traced(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
            if rec is not None and work is not None:
                rec[WORK] += int(work(out))
            return out

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def patched(self, targets):
        """Trace calls through ``(module, attribute, span name, work)`` targets.

        Each attribute is rebound to a traced wrapper and spans are
        recorded until the block exits; the original names are restored
        even when the block raises.
        """
        saved = []
        try:
            for module, attr, name, work in targets:
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(fn, name, work))
            self.enabled = True
            yield
        finally:
            self.enabled = False
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def summary(self, index):
        """Per span name: (self seconds, calls, work) over span ``index``'s subtree.

        A span's self time is its duration minus the time its children
        cover; spans on one thread nest, so children never overlap.
        """
        lo, hi = index, self.spans[index][STOP]
        covered = defaultdict(float)
        for rec in self.spans[lo + 1 : hi]:
            covered[rec[PARENT]] += rec[END] - rec[START]
        out = defaultdict(lambda: [0.0, 0, 0])
        for i in range(lo, hi):
            rec = self.spans[i]
            acc = out[rec[NAME]]
            acc[0] += rec[END] - rec[START] - covered[i]
            acc[1] += 1
            acc[2] += rec[WORK]
        return out

    def find(self, name, within):
        """Indices of spans called ``name`` in span ``within``'s subtree."""
        return [
            i
            for i in range(within, self.spans[within][STOP])
            if self.spans[i][NAME] == name
        ]

    def dump(self):
        """Spans as records, times relative to the first span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        out = []
        for i, rec in enumerate(self.spans):
            out.append(
                {
                    "name": rec[NAME],
                    "parent": rec[PARENT],
                    "root": i if rec[PARENT] < 0 else out[rec[PARENT]]["root"],
                    "start_s": rec[START] - t0,
                    "end_s": rec[END] - t0,
                    "work": rec[WORK],
                }
            )
        return out
