"""quacktrace: the engine's observability layer.

Because the database is embedded (paper §5/§6), the host application owns
diagnosis -- there is no server console to ssh into.  This package is the
application-facing answer, three coordinated pieces:

* **spans/traces** (:mod:`.trace`) -- a low-overhead :class:`Tracer` the
  executor, morsel driver and WAL/checkpoint path emit into.  Each
  database owns one, which also keeps its completed spans.  A statement is
  traced when its connection's config has ``trace_enabled`` (default
  ``REPRO_TRACE``, set by ``PRAGMA trace_enabled``); ``EXPLAIN ANALYZE``
  of an untraced statement profiles with a private tracer.  Untraced cost:
  ``ExecutionContext.tracer`` is ``None`` and every hot-path check is a
  single ``is None`` test -- the same discipline as the quacksan lock
  wrappers.
* **metrics** (:mod:`.metrics`) -- always-on, per database: each number
  is read from the component that counts it (``Database.metrics()``) and
  exported via ``connection.metrics()`` and a Prometheus-style text dump.
* **surfacing** (:mod:`.render`, :mod:`.accounting`) -- ``EXPLAIN
  ANALYZE`` operator trees built from real spans, and the statement log:
  one record per statement, the only per-statement surface.  Slow
  statements are a ``WHERE wall_ms > ?`` over ``repro_statement_log()``.

Everything here is pull-only: the package starts no thread and opens no
socket or file of its own.  A host that wants history scrapes
``metrics_text()`` (or ``QueryServer.scrape()``) on its own schedule.
"""

from __future__ import annotations

from .accounting import StatementLog, StatementRecord
from .metrics import Metric
from .render import render_span_tree, worker_summary
from .trace import Span, Tracer

__all__ = [
    "Tracer",
    "Span",
    "Metric",
    "StatementLog",
    "StatementRecord",
    "render_span_tree",
    "worker_summary",
]
