"""Spans and counts recorded around the program's public calls.

The benchmark records spans from its own code only: it wraps the public
functions a CLI op goes through (parse, build, simulate/analyze/sweep,
CSV/report writing) for the traced pass and restores them afterwards. Spans
stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    """Span recorder. A span is [name, start_ns, end_ns, parent, op]."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.op = None
        self._stack = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter_ns()

    def count(self, name, n=1):
        key = (self.op, name)
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, name, fn, measure=None):
        """`fn` recording a span per call; `measure(result)` is added to the
        count `<name>.bytes` when given."""

        def traced(*args, **kwargs):
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if measure is not None:
                self.count(name + ".bytes", measure(result))
            return result

        return traced

    def counting(self, name, fn):
        """`fn` counting its calls under `name`, with no span."""

        def counted(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def patched(self, targets):
        """Replace module attributes for the duration: targets are
        (module, attribute, replacement) triples."""
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in targets]
        try:
            for module, attr, replacement in targets:
                setattr(module, attr, replacement)
            yield
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)


def self_ns(spans):
    """Each span's duration minus the durations of its direct children; spans
    of one op never overlap except by nesting."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent is not None:
            child_ns[parent] += end - start
    return [end - start - child for (_, start, end, _, _), child in zip(spans, child_ns)]


def per_op(spans):
    """{op: {name: [inclusive_ns, self_ns, calls]}} from a span list."""
    table = {}
    for (name, start, end, parent, op), own in zip(spans, self_ns(spans)):
        entry = table.setdefault(op, {}).setdefault(name, [0, 0, 0])
        entry[0] += end - start
        entry[1] += own
        entry[2] += 1
    return table
