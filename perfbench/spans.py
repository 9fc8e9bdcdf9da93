"""In-memory spans around the benchmark's calls into each layer.

A span is (id, name, start, end, parent).  Spans are kept in memory and
written out when the run ends.  A span's self time is its duration minus
the time its direct children cover; children never overlap because each
process makes one call at a time.
"""

from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Times calls always; records them as spans only when enabled."""

    def __init__(self, enabled, prefix):
        self.enabled = enabled
        self.spans = []
        self._prefix = prefix
        self._stack = []

    def _open(self, name, parent):
        span = {
            "id": f"{self._prefix}{len(self.spans) + 1}",
            "name": name,
            "start": perf_counter(),
            "end": None,
            "parent": parent if parent is not None else (self._stack[-1] if self._stack else None),
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    @contextmanager
    def span(self, name, parent=None):
        """A grouping span; yields its id, or None when tracing is off."""
        if not self.enabled:
            yield None
            return
        span = self._open(name, parent)
        try:
            yield span["id"]
        finally:
            span["end"] = perf_counter()
            self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` and return (its result, wall seconds)."""
        if not self.enabled:
            start = perf_counter()
            result = fn(*args, **kwargs)
            return result, perf_counter() - start
        span = self._open(name, None)
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = perf_counter()
            self._stack.pop()
        return result, span["end"] - span["start"]


def with_self_times(spans):
    """Copies of ``spans`` with a ``self`` field: duration minus direct children."""
    covered = {}
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] = covered.get(span["parent"], 0.0) + span["end"] - span["start"]
    return [
        {**span, "self": span["end"] - span["start"] - covered.get(span["id"], 0.0)}
        for span in spans
    ]


def self_by_name(spans):
    """Total self time per span name."""
    totals = {}
    for span in with_self_times(spans):
        totals[span["name"]] = totals.get(span["name"], 0.0) + span["self"]
    return totals
