"""Spans recorded around the benchmark's calls into the package.

A span has a name, a start, an end, a parent and the id of the operation
it belongs to, plus size attributes.  Spans stay in memory and are written
out when the run ends.  The untraced run uses :data:`OFF`, whose spans
record nothing.
"""

from __future__ import annotations

import contextlib
import time


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.op: int | None = None
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "op": self.op,
            "attrs": attrs,
        }
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record["attrs"]
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()


class _Off:
    """A tracer that records nothing; attributes go to a scratch dict."""

    op: int | None = None

    def __init__(self) -> None:
        self._null = contextlib.nullcontext({})

    def span(self, name: str, **attrs):
        return self._null


OFF = _Off()


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def per_op(spans: list[dict], name: str, ops: set | None = None) -> float:
    """Self time of the spans called ``name`` per operation, over the
    operations in ``ops`` (default: all)."""
    if ops is None:
        ops = {s["op"] for s in spans if s["name"] == "op"}
    own = self_times(spans)
    total = sum(t for s, t in zip(spans, own) if s["name"] == name and s["op"] in ops)
    return total / len(ops)
