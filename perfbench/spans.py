"""Spans around the benchmark's own calls into walshlab.

A traced pass wraps each public call in a span (name, start, end, parent, run
id). The parent of a call is the benchmark's per-item span. Spans stay in
memory and are written out when the run ends. An untraced pass goes through
`Untraced`, whose methods only make the call.
"""
from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter
from typing import NamedTuple


class Span(NamedTuple):
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    work: int  # points or functions the call processed; 0 where it has no size
    attrs: dict | None


class Tracer:
    """Records one span per call, with the current item span as its parent."""

    traced = True

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._last = 0
        self._item: int | None = None
        self._item_start = 0.0

    def _new_id(self) -> int:
        self._last += 1
        return self._last

    def begin_item(self) -> None:
        self._item = self._new_id()
        self._item_start = perf_counter()

    def end_item(self) -> None:
        self.spans.append(Span(self._item, None, "bench.item", self._item_start, perf_counter(), 0, None))
        self._item = None

    def call(self, name: str, fn, *args, work: int = 0, attrs: dict | None = None, **kwargs):
        start = perf_counter()
        out = fn(*args, **kwargs)
        self.spans.append(Span(self._new_id(), self._item, name, start, perf_counter(), work, attrs))
        return out

    def record(self, name: str, start: float, end: float, parent: int | None) -> None:
        """Add a span measured by the caller, such as one claim of a suite call."""
        self.spans.append(Span(self._new_id(), parent, name, start, end, 0, None))

    @property
    def last_span(self) -> Span:
        return self.spans[-1]

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                doc = {"run": self.run_id, **s._asdict()}
                fh.write(json.dumps(doc) + "\n")


class Untraced:
    """Same interface as `Tracer`; records nothing."""

    traced = False
    last_span = None

    def begin_item(self) -> None:
        pass

    def end_item(self) -> None:
        pass

    def call(self, name: str, fn, *args, work: int = 0, attrs: dict | None = None, **kwargs):
        return fn(*args, **kwargs)

    def record(self, name: str, start: float, end: float, parent: int | None) -> None:
        pass


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time its child spans cover."""
    child = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    return {s.id: s.end - s.start - child[s.id] for s in spans}
