"""Crash flight recorder: the last moments of the engine, preserved as JSON.

The resilience pillar (paper §6) assumes consumer hardware and unattended
deployments: when an embedded engine fails there is no server log to pull,
only whatever the process left behind.  On demand -- ``PRAGMA
flight_dump``, or automatically when an *engine fault* escapes execution --
this module writes a single self-contained JSON file
(``repro_flight_<pid>.json``) holding the newest statements of the
database's :class:`~repro.observability.accounting.StatementLog` (SQL,
duration, rows, outcome), metric deltas since the recorder started, the
database's recent trace spans, and the active configuration.  The
recorder keeps no statements or spans of its own.

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

from .. import observability
from ..errors import (
    CorruptionError,
    Error,
    HardwareError,
    InternalError,
    MemoryFaultError,
)

if TYPE_CHECKING:
    from ..observability.accounting import StatementRecord

__all__ = ["FlightRecorder", "is_engine_fault", "statement_entry",
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


class FlightRecorder:
    """Metric baseline plus JSON dumping of the statement log's tail."""

    def __init__(self) -> None:
        self._baseline: Dict[str, float] = self._scalar_metrics()

    # -- metric deltas -----------------------------------------------------
    @staticmethod
    def _scalar_metrics() -> Dict[str, float]:
        """Scalar counter/gauge values from the process registry."""
        out: Dict[str, float] = {}
        for name, value in observability.registry().snapshot().items():
            if isinstance(value, (int, float)):
                out[name] = float(value)
        return out

    def metric_deltas(self) -> Dict[str, float]:
        """Change of every scalar metric since the recorder was created."""
        current = self._scalar_metrics()
        deltas: Dict[str, float] = {}
        for name, value in current.items():
            delta = value - self._baseline.get(name, 0.0)
            if delta:
                deltas[name] = delta
        return deltas

    # -- dumping -----------------------------------------------------------
    def dump(self, directory: Optional[str] = None, reason: str = "",
             error: Optional[BaseException] = None,
             spans: Optional[Sequence[Any]] = None,
             config: Optional[Dict[str, Any]] = None,
             statements: Sequence["StatementRecord"] = ()) -> str:
        """Write ``repro_flight_<pid>.json``; returns the file path.

        ``statements`` is the statement log, oldest first; the newest
        :data:`MAX_DUMPED_STATEMENTS` of it are written.
        """
        payload: Dict[str, Any] = {
            "format": "repro-flight-recorder-v1",
            "pid": os.getpid(),
            "created_at": time.time(),
            "reason": reason,
            "statements": [statement_entry(record) for record
                           in statements[-MAX_DUMPED_STATEMENTS:]],
            "metric_deltas": self.metric_deltas(),
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

    def try_dump(self, directory: Optional[str] = None, reason: str = "",
                 error: Optional[BaseException] = None,
                 spans: Optional[Sequence[Any]] = None,
                 config: Optional[Dict[str, Any]] = None,
                 statements: Sequence["StatementRecord"] = ()
                 ) -> Optional[str]:
        """Best-effort :meth:`dump` for failure paths: a recorder that
        cannot write (read-only filesystem, disk full) must never mask the
        original engine error it is documenting."""
        try:
            return self.dump(directory, reason, error, spans, config,
                             statements)
        except OSError as dump_error:
            logger.warning("flight-recorder dump failed: %s", dump_error)
            return None
