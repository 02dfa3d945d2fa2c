"""In-memory spans recorded by the benchmark around its calls into cosetlab.

A span has a name (``<layer>.<call>``), start and end times, the span
that contains it and the run id of the operation it belongs to.  Spans
are kept in memory and written out once, when the benchmark ends.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []
        self.run_id = ""
        self._stack = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "name": name, "run": self.run_id,
               "parent": self._stack[-1] if self._stack else None, "attrs": attrs}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()


class SpanView:
    """Aggregates over the spans of one traced pass."""

    def __init__(self, spans):
        self.spans = spans
        child_time = {}
        for s in spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + _dur(s)
        self._self = {s["id"]: _dur(s) - child_time.get(s["id"], 0.0) for s in spans}

    def named(self, name: str, **attrs):
        return [s for s in self.spans if s["name"] == name
                and all(s["attrs"].get(k) == v for k, v in attrs.items())]

    def total_s(self, name: str, **attrs) -> float:
        return sum(_dur(s) for s in self.named(name, **attrs))

    def median_us(self, name: str, **attrs) -> float:
        return 1e6 * statistics.median(_dur(s) for s in self.named(name, **attrs))

    def count(self, name: str, **attrs) -> int:
        return len(self.named(name, **attrs))

    def attr_sum(self, name: str, attr: str, **attrs):
        return sum(s["attrs"][attr] for s in self.named(name, **attrs))

    def per_unit_us(self, name: str, attr: str, **attrs) -> float:
        """Span time per unit of a counted attribute (e.g. per trial)."""
        return 1e6 * self.total_s(name, **attrs) / self.attr_sum(name, attr, **attrs)

    def layer_self_s(self, layer: str) -> float:
        """Time inside the layer's spans not covered by their child spans."""
        return sum(self._self[s["id"]] for s in self.spans
                   if s["name"].split(".", 1)[0] == layer)


def _dur(span) -> float:
    return span["end"] - span["start"]
