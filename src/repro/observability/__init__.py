"""quacktrace: the engine's observability layer.

Because the database is embedded (paper §5/§6), the host application owns
diagnosis -- there is no server console to ssh into.  This package is the
application-facing answer, three coordinated pieces:

* **spans/traces** (:mod:`.trace`) -- a low-overhead :class:`Tracer` the
  executor, morsel driver, WAL/checkpoint path, and buffer manager emit
  into.  Off by default; enabled process-wide with ``REPRO_TRACE=1`` or
  ``config.trace_enabled``, and forced per-query by ``EXPLAIN ANALYZE``.
  Disabled cost: ``ExecutionContext.tracer`` is ``None`` and every hot-path
  check is a single ``is None`` test -- the same discipline as the quacksan
  lock wrappers.
* **metrics** (:mod:`.metrics`) -- an always-on process-wide
  :class:`MetricsRegistry` (counters/gauges/histograms with fixed bucket
  bounds) exported via ``connection.metrics()`` and a Prometheus-style text
  dump.
* **surfacing** (:mod:`.render`, :mod:`.accounting`) -- ``EXPLAIN
  ANALYZE`` operator trees built from real spans, the statement log (one
  record per statement, with a slow-query view over a configurable
  threshold), and :func:`render_trace` for pretty-printing.

Everything here is pull-only: the package starts no thread and opens no
socket or file of its own.  A host that wants history scrapes
``metrics_text()`` (or ``QueryServer.scrape()``) on its own schedule.
"""

from __future__ import annotations

import os
from typing import Any, ContextManager, Optional

from .accounting import StatementLog, StatementRecord
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    registry,
)
from .render import render_span_tree, render_trace, worker_summary
from .trace import Span, TraceSink, Tracer

__all__ = [
    "Tracer",
    "Span",
    "TraceSink",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "registry",
    "StatementLog",
    "StatementRecord",
    "render_trace",
    "render_span_tree",
    "worker_summary",
    "tracing_enabled",
    "enable_tracing",
    "disable_tracing",
    "get_tracer",
    "engine_span",
]

_ENV_TRUTHY = ("1", "true", "on", "yes")

_tracer: Optional[Tracer] = None


def _env_enabled() -> bool:
    return os.environ.get("REPRO_TRACE", "").strip().lower() in _ENV_TRUTHY


def tracing_enabled() -> bool:
    """Is the process-wide tracer collecting right now?"""
    return _tracer is not None


def enable_tracing(sink: Optional[TraceSink] = None) -> Tracer:
    """Install (or return) the process-wide tracer.

    Idempotent: when already enabled the existing tracer is returned (a
    custom ``sink`` only applies on the first call).
    """
    global _tracer
    if _tracer is None:
        _tracer = Tracer(sink)
    return _tracer


def disable_tracing() -> None:
    """Remove the process-wide tracer; contexts created after this pay
    nothing again.  In-flight traced queries keep their local references."""
    global _tracer
    _tracer = None


def get_tracer() -> Optional[Tracer]:
    """The process-wide tracer, or ``None`` while tracing is disabled."""
    return _tracer


if _env_enabled():  # honored at import so engine singletons are traced
    enable_tracing()


class _NoopSpanContext:
    """Shared do-nothing context manager: the disabled-tracing fast path."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: Any) -> None:
        return None


_NOOP_SPAN_CONTEXT = _NoopSpanContext()


def engine_span(name: str, kind: str = "engine",
                **attrs: Any) -> ContextManager[Any]:
    """Span context manager for engine internals without a database handle.

    The WAL, checkpoint, and buffer-manager paths call this directly; while
    tracing is disabled it returns one shared no-op object (no allocation).
    """
    tracer = _tracer
    if tracer is None:
        return _NOOP_SPAN_CONTEXT
    return tracer.span(name, kind, **attrs)
