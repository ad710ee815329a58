"""In-memory span recorder for the traced pass.

Spans are recorded from the benchmark's own files, around the calls
into each layer (spans inside ``src/`` are a later change).  A span is
``(name, start, end, parent, request)``; spans of one operation share a
request id.  Nothing is written until :meth:`Recorder.write`, which
emits Chrome trace-event JSON loadable in Perfetto beside the repo's
other exporters.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover (children are clipped to the parent and
merged first, so overlapping children are not subtracted twice).
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager, nullcontext
from typing import Dict, Iterator, List, Optional

from ledger.stats import median


class Span:
    __slots__ = ("name", "start", "end", "parent", "request")

    def __init__(self, name: str, start: float, parent: Optional[int],
                 request: Optional[int]) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request

    @property
    def seconds(self) -> float:
        return self.end - self.start


class NullRecorder:
    """Tracing off: the end-to-end passes time nothing but the op."""

    def span(self, name: str, request: Optional[int] = None):
        return nullcontext()


OFF = NullRecorder()


class Recorder:
    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, request: Optional[int] = None) -> Iterator[Span]:
        """Time the body as a child of whichever span is open."""
        parent = self._stack[-1] if self._stack else None
        if request is None and parent is not None:
            request = self.spans[parent].request
        rec = Span(name, time.perf_counter(), parent, request)
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None, request: Optional[int] = None) -> int:
        """Insert a finished span (synthetic trees, externally timed work)."""
        rec = Span(name, start, parent, request)
        rec.end = end
        self.spans.append(rec)
        return len(self.spans) - 1

    # -- reductions -------------------------------------------------------
    def self_seconds(self) -> List[float]:
        """Per span, in recording order: duration minus the union of its
        children's intervals."""
        children: Dict[int, List[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out = []
        for i, s in enumerate(self.spans):
            covered = 0.0
            edge = s.start
            for c in sorted(children.get(i, ()), key=lambda c: c.start):
                lo, hi = max(c.start, edge), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    edge = hi
            out.append(s.seconds - covered)
        return out

    def durations(self, name: str) -> List[float]:
        return [s.seconds for s in self.spans if s.name == name]

    def per_request(self, name: str) -> List[float]:
        """Total duration of ``name`` spans per request id, for layers an
        operation enters more than once (warm-up + measured run)."""
        totals: Dict[Optional[int], float] = {}
        for s in self.spans:
            if s.name == name:
                totals[s.request] = totals.get(s.request, 0.0) + s.seconds
        return list(totals.values())

    def p50(self, name: str) -> float:
        values = self.per_request(name)
        return median(values) if values else 0.0

    def self_total(self, name: str) -> float:
        return sum(
            t for s, t in zip(self.spans, self.self_seconds()) if s.name == name
        )

    # -- export -----------------------------------------------------------
    def chrome_events(self) -> List[dict]:
        t0 = min((s.start for s in self.spans), default=0.0)
        events = [{
            "ph": "M", "name": "process_name", "pid": 1, "tid": 1,
            "args": {"name": f"repro ledger: {self.workload}"},
        }]
        for i, (s, self_s) in enumerate(zip(self.spans, self.self_seconds())):
            events.append({
                "ph": "X", "name": s.name, "cat": s.name.rsplit(".", 1)[0],
                "pid": 1, "tid": 1,
                "ts": (s.start - t0) * 1e6, "dur": s.seconds * 1e6,
                "args": {
                    "id": i, "parent": s.parent, "request": s.request,
                    "workload": self.workload, "self_us": self_s * 1e6,
                },
            })
        return events

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": self.chrome_events(),
                       "displayTimeUnit": "ms"}, fh)
            fh.write("\n")
