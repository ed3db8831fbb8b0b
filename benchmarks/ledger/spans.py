"""In-memory span recorder for the traced run.

A span is ``(id, parent id, op id, thread, name, start ns, end ns)``.  Spans
of one op share its op id; every span but an op's root has a parent.  Nothing
is written while the workload runs: :func:`dump` serialises the spans when it
ends.  A layer's *self time* is its span's duration minus the part of that
interval its child spans cover.

This module knows nothing about the engine; ``layers.py`` decides which calls
get a span.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional

__all__ = ["Tracer", "self_times", "layer_of", "layer_shares", "validate",
           "dump"]

_clock = time.perf_counter_ns


class Span:
    __slots__ = ("span_id", "parent_id", "op_id", "thread", "name", "start",
                 "end")

    def __init__(self, span_id: int, parent_id: Optional[int], op_id: int,
                 thread: int, name: str, start: int) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.op_id = op_id
        self.thread = thread
        self.name = name
        self.start = start
        self.end = start

    @property
    def duration(self) -> int:
        return self.end - self.start

    def as_dict(self) -> Dict[str, Any]:
        return {"id": self.span_id, "parent": self.parent_id,
                "op": self.op_id, "thread": self.thread, "name": self.name,
                "start_ns": self.start, "end_ns": self.end}


class Tracer:
    """Records spans per thread; each client thread keeps its own stack."""

    def __init__(self) -> None:
        self._ids = itertools.count(1)  # next() on a count is atomic
        self._local = threading.local()
        self._per_thread: List[List[Span]] = []
        self._register = threading.Lock()

    def _state(self) -> Any:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.spans = []
            local.op_id = -1
            with self._register:
                local.thread = len(self._per_thread)
                self._per_thread.append(local.spans)
        return local

    def _stack(self) -> List[Span]:
        return self._state().stack

    def begin(self, name: str, op_id: Optional[int] = None) -> Span:
        """Open a span under the innermost open span of this thread.

        ``op_id`` starts a new op: the span becomes a root and every span
        opened beneath it inherits the id.
        """
        state = self._state()
        if op_id is not None:
            state.op_id = op_id
        parent = state.stack[-1].span_id if state.stack else None
        span = Span(next(self._ids), parent, state.op_id, state.thread, name,
                    _clock())
        state.stack.append(span)
        return span

    def finish(self, span: Span) -> None:
        span.end = _clock()
        state = self._local
        state.stack.pop()
        state.spans.append(span)

    def wrap(self, name: str, function: Callable[..., Any]
             ) -> Callable[..., Any]:
        """``function`` with a span around each call made inside an op."""
        begin, finish = self.begin, self.finish

        stack_of = self._stack

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not stack_of():  # outside an op: the harness verifying
                return function(*args, **kwargs)
            span = begin(name)
            try:
                return function(*args, **kwargs)
            finally:
                finish(span)

        return traced

    def wrap_iterator(self, name: str, iterator: Iterator[Any]
                      ) -> Iterator[Any]:
        """``iterator`` with a span around each ``next()``.

        The engine's operators are generators: their work happens while the
        consumer pulls, so the span has to sit on the pull, not on the call
        that created the generator.
        """
        begin, finish, stack_of = self.begin, self.finish, self._stack
        iterator = iter(iterator)
        while True:
            span = begin(name) if stack_of() else None
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                if span is not None:
                    finish(span)
            yield item

    def spans(self) -> List[Span]:
        merged = [span for spans in self._per_thread for span in spans]
        merged.sort(key=lambda span: span.span_id)
        return merged


def self_times(spans: List[Span]) -> Dict[int, int]:
    """Self time in ns per span id: duration minus what its children cover.

    Children of one span run on the same thread one after another, so the
    part they cover is the sum of their durations.
    """
    own = {span.span_id: span.duration for span in spans}
    for span in spans:
        if span.parent_id is not None:
            own[span.parent_id] -= span.duration
    return own


def layer_of(name: str) -> str:
    """``sql.parse`` belongs to layer ``sql``; a root ``op`` to ``harness``."""
    return name.split(".", 1)[0] if "." in name else "harness"


def layer_shares(spans: List[Span]) -> Dict[str, Any]:
    """Self time per layer and per span name, and each layer's share of the
    time of all root spans (the ops)."""
    own = self_times(spans)
    root_ns = sum(span.duration for span in spans if span.parent_id is None)
    by_layer: Dict[str, int] = {}
    by_name: Dict[str, Dict[str, int]] = {}
    for span in spans:
        layer = layer_of(span.name)
        by_layer[layer] = by_layer.get(layer, 0) + own[span.span_id]
        entry = by_name.setdefault(span.name,
                                   {"calls": 0, "total_ns": 0, "self_ns": 0})
        entry["calls"] += 1
        entry["total_ns"] += span.duration
        entry["self_ns"] += own[span.span_id]
    shares = {layer: 100.0 * ns / root_ns if root_ns else 0.0
              for layer, ns in by_layer.items()}
    return {"root_ns": root_ns, "self_ns": by_layer, "share_pct": shares,
            "by_name": by_name}


def validate(spans: List[Span]) -> List[str]:
    """Problems with the span tree; empty when it is well-formed."""
    problems: List[str] = []
    by_id = {span.span_id: span for span in spans}
    for span in spans:
        if span.end < span.start:
            problems.append(f"span {span.span_id} ends before it starts")
        if span.parent_id is None:
            continue
        parent = by_id.get(span.parent_id)
        if parent is None:
            problems.append(f"span {span.span_id} ({span.name}) has no "
                            f"recorded parent {span.parent_id}")
            continue
        if span.start < parent.start or span.end > parent.end:
            problems.append(f"span {span.span_id} ({span.name}) lies outside "
                            f"its parent {parent.span_id} ({parent.name})")
        if span.op_id != parent.op_id:
            problems.append(f"span {span.span_id} ({span.name}) is in op "
                            f"{span.op_id}, its parent in {parent.op_id}")
    for span_id, own in self_times(spans).items():
        if own < 0:
            problems.append(f"span {span_id} ({by_id[span_id].name}) has "
                            f"negative self time {own} ns")
    total = sum(layer_shares(spans)["share_pct"].values())
    if total > 100.0 + 1e-6:
        problems.append(f"layer shares sum to {total:.3f} % > 100 %")
    return problems


def dump(path: str, workload: str, spans: List[Span]) -> None:
    with open(path, "w") as handle:
        json.dump({"workload": workload,
                   "spans": [span.as_dict() for span in spans]}, handle)
