"""quacktrace span/trace core: low-overhead in-process query profiling.

The embedded-analytics premise (paper §5/§6) is that the database lives
*inside* the application process, so the application -- not a DBA with a
server console -- owns the diagnosis of slow queries.  This module gives it
the raw material: every executed statement becomes a tree of
:class:`Span`\\ s (query -> operators -> morsels) carrying wall/CPU time,
rows, chunks, and bytes processed, plus morsel and worker identifiers for
parallel pipelines.

Each :class:`~repro.database.Database` owns one :class:`Tracer`, which
also keeps that database's completed spans.  A statement is traced when
its effective config has ``trace_enabled`` (``EXPLAIN ANALYZE`` profiles
with a private tracer otherwise).  Discipline (same as the quacksan
wrappers): an untraced statement pays **no allocation and no
indirection** on the hot path -- ``ExecutionContext.tracer`` is ``None``
and :meth:`~repro.execution.physical.PhysicalOperator.run` returns the raw
``execute()`` generator untouched.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from typing import (TYPE_CHECKING, Any, ContextManager, Deque, Dict,
                    Iterator, List, Optional)

if TYPE_CHECKING:
    from ..types import DataChunk

__all__ = ["Span", "Tracer", "CAPACITY"]

#: Completed spans a tracer keeps before the oldest fall out.
CAPACITY = 8192

_span_ids = itertools.count(1)


class Span:
    """One timed unit of engine work: a query, an operator, or a morsel.

    Spans form a tree through ``parent_id``; all spans of one statement
    share a ``trace_id`` (the root query span's own id).  Counters are
    cumulative over the span's whole life -- a streaming operator span stays
    open across client polls and closes when its generator is exhausted or
    abandoned.
    """

    __slots__ = ("span_id", "parent_id", "trace_id", "name", "kind",
                 "started_at", "wall_ns", "cpu_ns", "rows", "chunks",
                 "bytes_processed", "vectors", "thread_ident", "attrs",
                 "closed")

    def __init__(self, name: str, kind: str, parent: Optional["Span"],
                 attrs: Optional[Dict[str, Any]] = None) -> None:
        self.span_id = next(_span_ids)
        self.parent_id = parent.span_id if parent is not None else 0
        self.trace_id = parent.trace_id if parent is not None else self.span_id
        self.name = name
        self.kind = kind
        self.started_at = time.time()
        self.wall_ns = 0
        self.cpu_ns = 0
        self.rows = 0
        self.chunks = 0
        self.bytes_processed = 0
        self.vectors = 0
        self.thread_ident = threading.get_ident()
        self.attrs: Dict[str, Any] = attrs or {}
        self.closed = False

    # -- accounting --------------------------------------------------------
    def add_timing(self, wall_ns: int, cpu_ns: int) -> None:
        self.wall_ns += wall_ns
        self.cpu_ns += cpu_ns

    def record_chunk(self, chunk: "DataChunk") -> None:
        self.rows += chunk.size
        self.chunks += 1
        self.vectors += chunk.column_count
        self.bytes_processed += chunk.nbytes()

    @property
    def wall_ms(self) -> float:
        return self.wall_ns / 1e6

    @property
    def cpu_ms(self) -> float:
        return self.cpu_ns / 1e6

    def __repr__(self) -> str:
        return (f"Span({self.name!r}, kind={self.kind}, rows={self.rows}, "
                f"wall={self.wall_ms:.3f}ms)")


class Tracer:
    """Creates spans, tracks the per-thread current span, keeps the
    completed ones.

    The current-span stack is thread-local: a worker thread entering a
    morsel span nests fragment-operator spans under it without touching the
    coordinator's stack.  Parent links therefore stay correct across the
    generator-chain pull model *and* the morsel worker pool.

    Completed spans land in a bounded ring of :data:`CAPACITY` spans, the
    oldest falling out first: observability must never become the memory
    leak it exists to diagnose.  The ring is thread-safe -- morsel workers
    close spans concurrently with the coordinator.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._spans: Deque[Span] = deque(maxlen=CAPACITY)
        self._lock = threading.Lock()

    # -- completed spans ---------------------------------------------------
    def spans(self) -> List[Span]:
        """Snapshot of all retained spans, oldest first."""
        with self._lock:
            return list(self._spans)

    def trace(self, trace_id: int) -> List[Span]:
        """All retained spans of one statement, oldest first."""
        with self._lock:
            return [span for span in self._spans if span.trace_id == trace_id]

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    # -- current-span stack ------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def current(self) -> Optional[Span]:
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def push(self, span: Span) -> None:
        self._stack().append(span)

    def pop(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    # -- span lifecycle ----------------------------------------------------
    def start_span(self, name: str, kind: str = "span",
                   parent: Optional[Span] = None,
                   attrs: Optional[Dict[str, Any]] = None) -> Span:
        """Open a span; the caller must close it via :meth:`end_span`."""
        return Span(name, kind, parent if parent is not None else self.current(),
                    attrs)

    def end_span(self, span: Span) -> None:
        if not span.closed:
            span.closed = True
            with self._lock:
                self._spans.append(span)

    def start_query(self, sql: str) -> Span:
        """Open the root span of one statement (caller: the connection)."""
        span = self.start_span(sql.strip(), kind="query", parent=None)
        self.push(span)
        return span

    def finish_query(self, span: Span, wall_ns: int, cpu_ns: int) -> None:
        """Close a query root span with its end-to-end timing."""
        self.pop(span)
        span.add_timing(wall_ns, cpu_ns)
        self.end_span(span)

    # -- instrumentation helpers ------------------------------------------
    def span(self, name: str, kind: str = "span",
             **attrs: Any) -> ContextManager[Optional[Span]]:
        """Context manager for one-shot engine work (WAL write, checkpoint)
        inside a traced statement.

        Outside one -- no span current on this thread -- it returns one
        shared no-op context: a thread-local read, and no span is created.
        """
        if self.current() is None:
            return _NOOP_SPAN_CONTEXT
        return _SpanContext(self, name, kind, attrs)

    def trace_operator(self, operator: Any,
                       parent: Optional[Span] = None) -> Iterator["DataChunk"]:
        """Wrap a physical operator's chunk generator in a span.

        The span accumulates the wall/CPU time of every pull on this
        operator (inclusive of its children -- the renderer derives self
        time by subtracting child spans) plus rows/chunks/bytes yielded.
        The current-span stack is pushed around each pull so child
        operators started during a pull link to this span.
        """
        span = self.start_span(operator._explain_line(), kind="operator",
                               parent=parent)
        estimated = getattr(operator, "estimated_rows", None)
        if estimated is not None:
            span.attrs["est_rows"] = int(round(estimated))
        source = operator.execute()
        try:
            while True:
                self.push(span)
                wall = time.perf_counter_ns()
                cpu = time.thread_time_ns()
                try:
                    # In a list popped by the yield, not held while
                    # suspended: an UPDATE writes the rows the chunk's
                    # storage views show (ColumnData._unshare would copy).
                    handoff = [next(source)]
                except StopIteration:
                    return
                finally:
                    span.add_timing(time.perf_counter_ns() - wall,
                                    time.thread_time_ns() - cpu)
                    self.pop(span)
                span.record_chunk(handoff[0])
                yield handoff.pop()
        finally:
            source.close()
            self.end_span(span)


class _NoopSpanContext:
    """``tracer.span(...)`` outside a traced statement: does nothing."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: Any) -> None:
        return None


_NOOP_SPAN_CONTEXT = _NoopSpanContext()


class _SpanContext:
    """``with tracer.span(...)`` -- times one block of engine work."""

    __slots__ = ("_tracer", "_name", "_kind", "_attrs", "_span", "_wall",
                 "_cpu")

    def __init__(self, tracer: Tracer, name: str, kind: str,
                 attrs: Dict[str, Any]) -> None:
        self._tracer = tracer
        self._name = name
        self._kind = kind
        self._attrs = attrs
        self._span: Optional[Span] = None
        self._wall = 0
        self._cpu = 0

    def __enter__(self) -> Span:
        self._span = self._tracer.start_span(self._name, self._kind,
                                             attrs=dict(self._attrs))
        self._tracer.push(self._span)
        self._wall = time.perf_counter_ns()
        self._cpu = time.thread_time_ns()
        return self._span

    def __exit__(self, *exc: Any) -> None:
        span = self._span
        if span is None:
            return
        span.add_timing(time.perf_counter_ns() - self._wall,
                        time.thread_time_ns() - self._cpu)
        self._tracer.pop(span)
        self._tracer.end_span(span)
