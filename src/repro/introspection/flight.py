"""Crash flight recorder: the last moments of the engine, preserved as JSON.

The resilience pillar (paper §6) assumes consumer hardware and unattended
deployments: when an embedded engine fails there is no server log to pull,
only whatever the process left behind.  On demand -- ``PRAGMA
flight_dump``, or automatically when an *engine fault* escapes execution --
this module writes a single self-contained JSON file
(``repro_flight_<pid>.json``) holding the newest statements of the
database's :class:`~repro.observability.accounting.StatementLog` (SQL,
duration, rows, outcome), the database's non-zero metrics (each counts
from zero at open, so these are the deltas since then), its recent trace
spans, and the active configuration.  The module keeps no state of its
own: :meth:`Database.dump_flight <repro.database.Database.dump_flight>`
hands it everything it writes.

An engine fault is an error that indicts the engine rather than the query:
internal errors, detected corruption, memory faults, hardware faults -- or
any exception that is not part of the :mod:`repro.errors` hierarchy at all
(an escaping ``KeyError`` is by definition an engine bug).  User errors
(parser, binder, constraint, ...) are in the statement log but never
trigger a dump.
"""

from __future__ import annotations

import json
import logging
import os
import time
from typing import TYPE_CHECKING, Any, Dict, Optional, Sequence

from ..errors import (
    CorruptionError,
    Error,
    HardwareError,
    InternalError,
    MemoryFaultError,
)

if TYPE_CHECKING:
    from ..observability.accounting import StatementRecord
    from ..observability.metrics import Metric

__all__ = ["dump", "try_dump", "is_engine_fault", "statement_entry",
           "MAX_DUMPED_STATEMENTS", "MAX_SQL_CHARS", "MAX_DUMPED_SPANS"]

logger = logging.getLogger("repro.flight")

#: Most-recent statements included in a dump.
MAX_DUMPED_STATEMENTS = 128
#: SQL text is truncated in the dump: it must stay small even when the
#: application sends megabyte statements.
MAX_SQL_CHARS = 500
#: Most-recent trace spans included in a dump.
MAX_DUMPED_SPANS = 200

#: Exception types that indict the engine itself.
_FAULT_TYPES = (InternalError, CorruptionError, MemoryFaultError,
                HardwareError)


def is_engine_fault(error: BaseException) -> bool:
    """Does this exception warrant an automatic flight dump?"""
    if isinstance(error, _FAULT_TYPES):
        return True
    # Anything escaping the engine that is not a repro error (and not an
    # interpreter-control exception) is an unclassified engine bug.
    if isinstance(error, Error):
        return False
    return isinstance(error, Exception)


def statement_entry(record: "StatementRecord") -> Dict[str, Any]:
    """One statement of a dump, rendered from its statement-log record."""
    entry: Dict[str, Any] = {
        "sql": record.sql[:MAX_SQL_CHARS],
        "timestamp": record.timestamp,
        "duration_ms": round(record.wall_ms, 3),
        "rows": record.rows_out,
        "status": "error" if record.error else "ok",
    }
    if record.error:
        entry["error"] = f"{record.error}: {record.message}"
    return entry


def dump(directory: Optional[str] = None, reason: str = "",
         error: Optional[BaseException] = None,
         spans: Optional[Sequence[Any]] = None,
         config: Optional[Dict[str, Any]] = None,
         statements: Sequence["StatementRecord"] = (),
         metrics: Sequence["Metric"] = ()) -> str:
    """Write ``repro_flight_<pid>.json``; returns the file path.

    ``statements`` is the statement log, oldest first; the newest
    :data:`MAX_DUMPED_STATEMENTS` of it are written.  ``metrics`` is the
    database's metric list; its non-zero scalars become ``metric_deltas``.
    """
    payload: Dict[str, Any] = {
        "format": "repro-flight-recorder-v1",
        "pid": os.getpid(),
        "created_at": time.time(),
        "reason": reason,
        "statements": [statement_entry(record) for record
                       in statements[-MAX_DUMPED_STATEMENTS:]],
        "metric_deltas": {metric.name: metric.value for metric in metrics
                          if metric.kind != "histogram" and metric.value},
    }
    if error is not None:
        payload["error"] = {"type": type(error).__name__,
                            "message": str(error)}
    if config is not None:
        payload["config"] = config
    payload["spans"] = [
        {"span_id": span.span_id, "parent_id": span.parent_id,
         "trace_id": span.trace_id, "name": span.name, "kind": span.kind,
         "wall_ms": span.wall_ms, "cpu_ms": span.cpu_ms,
         "rows": span.rows, "chunks": span.chunks}
        for span in (spans or [])[-MAX_DUMPED_SPANS:]
    ]
    path = os.path.join(directory or os.getcwd(),
                        f"repro_flight_{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, default=str)
    return path


def try_dump(directory: Optional[str] = None, reason: str = "",
             error: Optional[BaseException] = None,
             spans: Optional[Sequence[Any]] = None,
             config: Optional[Dict[str, Any]] = None,
             statements: Sequence["StatementRecord"] = (),
             metrics: Sequence["Metric"] = ()) -> Optional[str]:
    """Best-effort :func:`dump` for failure paths: a dump that cannot be
    written (read-only filesystem, disk full) must never mask the original
    engine error it is documenting."""
    try:
        return dump(directory, reason, error, spans, config, statements,
                    metrics)
    except OSError as dump_error:
        logger.warning("flight-recorder dump failed: %s", dump_error)
        return None
