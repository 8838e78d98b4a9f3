"""In-memory span tracing applied to simrec from the outside.

Spans are recorded at the boundary of each simrec module the benchmark calls
into: around a call site (``Tracer.span``), through a generic delegating proxy
that wraps every method call of an object (``Tracer.proxy``), or by swapping a
module attribute for a wrapped version for the duration of a block
(``Tracer.patch``). Nothing inside ``src/simrec`` is changed.

A span is (run id, span id, parent id, name, start, end). The first dotted
component of a name is its layer. Spans stay in memory and are written out
once, when the run ends. ``NullTracer`` has the same interface and records
nothing, so the untraced run executes the same benchmark code.
"""

from __future__ import annotations

import itertools
import json
import math
import threading
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence


@dataclass(frozen=True)
class Span:
    id: int
    parent: int  # 0 for a root span
    name: str
    start: float
    end: float

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans from any thread; parents follow the calling thread's stack.

    A span opened on a worker thread with nothing open on that thread takes
    the innermost span open on the thread that created the tracer as its
    parent, so calls fanned out by a thread pool nest under the batch call
    that started them.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._owner = threading.get_ident()
        self._stacks: dict[int, list[int]] = {}

    def _stack(self) -> list[int]:
        return self._stacks.setdefault(threading.get_ident(), [])

    def _parent(self, stack: list[int]) -> int:
        if stack:
            return stack[-1]
        owner = self._stacks.get(self._owner)
        return owner[-1] if owner else 0

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        stack = self._stack()
        span_id = next(self._ids)
        parent = self._parent(stack)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, parent, name, start, end))

    def wrap(self, fn: Callable, name: str) -> Callable:
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def proxy(self, target: Any, prefix: str) -> Any:
        return Proxy(target, prefix, self)

    @contextmanager
    def patch(self, module: Any, attr: str, name: str) -> Iterator[None]:
        """Trace every call to ``module.attr`` made while the block runs."""
        original = getattr(module, attr)
        setattr(module, attr, self.wrap(original, name))
        try:
            yield
        finally:
            setattr(module, attr, original)

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as handle:
            for s in sorted(self.spans, key=lambda s: s.id):
                row = {
                    "run": self.run_id,
                    "id": s.id,
                    "parent": s.parent,
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                }
                handle.write(json.dumps(row) + "\n")


class NullTracer:
    """The untraced stand-in: same interface, records nothing."""

    def span(self, name: str) -> nullcontext:
        return nullcontext()

    def wrap(self, fn: Callable, name: str) -> Callable:
        return fn

    def proxy(self, target: Any, prefix: str) -> Any:
        return target

    def patch(self, module: Any, attr: str, name: str) -> nullcontext:
        return nullcontext()


class Proxy:
    """Delegates every attribute to ``target``; method calls become spans.

    Delegation is generic (``__getattr__``), so a method added to or renamed in
    the wrapped interface shows up as a new span name instead of breaking the
    harness.
    """

    def __init__(self, target: Any, prefix: str, tracer: Tracer) -> None:
        object.__setattr__(self, "_target", target)
        object.__setattr__(self, "_prefix", prefix)
        object.__setattr__(self, "_tracer", tracer)

    def __getattr__(self, name: str) -> Any:
        value = getattr(self._target, name)
        if callable(value):
            return self._tracer.wrap(value, f"{self._prefix}.{name}")
        return value


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Wall time each span spends running with none of its children running.

    On one thread this is the span's duration minus the part of it its child
    spans cover. Where spans on worker threads overlap, each instant is split
    evenly among the innermost spans running at that instant, so the self
    times of a round add up to its wall time.
    """
    events = sorted(
        [(s.start, 1, s) for s in spans] + [(s.end, 0, s) for s in spans],
        key=lambda e: (e[0], e[1], e[2].id if e[1] else -e[2].id),
    )
    out = {s.id: 0.0 for s in spans}
    active: set[int] = set()
    running_children: dict[int, int] = defaultdict(int)
    innermost: set[int] = set()
    last = events[0][0] if events else 0.0
    for when, starting, span in events:
        if innermost and when > last:
            share = (when - last) / len(innermost)
            for span_id in innermost:
                out[span_id] += share
        last = when
        parent = span.parent if span.parent in active else 0
        if starting:
            active.add(span.id)
            innermost.add(span.id)
            if parent:
                running_children[parent] += 1
                innermost.discard(parent)
        else:
            active.discard(span.id)
            innermost.discard(span.id)
            if parent:
                running_children[parent] -= 1
                if running_children[parent] == 0:
                    innermost.add(parent)
    return out


def descendants(spans: Sequence[Span], root: Span) -> list[Span]:
    """``root`` and every span below it."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)
    out, todo = [], [root]
    while todo:
        s = todo.pop()
        out.append(s)
        todo.extend(children.get(s.id, ()))
    return out


class SpanView:
    """Per-name lookups over the spans of one round."""

    def __init__(self, spans: Sequence[Span]) -> None:
        self.spans = spans
        self._by_name: dict[str, list[Span]] = defaultdict(list)
        for s in spans:
            self._by_name[s.name].append(s)
        self._self = self_times(spans)

    def count(self, name: str) -> int:
        return len(self._by_name.get(name, ()))

    def total(self, name: str) -> float:
        """Summed duration of every span with this name."""
        return sum(s.duration for s in self._by_name.get(name, ()))

    def quantile(self, name: str, q: float, scale: float = 1.0) -> float:
        """Nearest-rank q-th percentile of this name's durations, times ``scale``."""
        spans = self._by_name.get(name, ())
        return percentile([s.duration for s in spans], q) * scale if spans else 0.0

    def self_total(self, name: str) -> float:
        """Summed self time of every span with this name."""
        return sum(self._self[s.id] for s in self._by_name.get(name, ()))

    def self_by_layer(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.layer] += self._self[s.id]
        return dict(out)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]
