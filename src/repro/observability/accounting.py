"""The statement log: one record per finished statement, every view of it.

Aggregate metrics say the buffer cache missed 10k times; this module says
*which statement* of *which session* caused them.  Every statement a
connection finishes -- success or error, served or direct -- produces one
:class:`StatementRecord` carrying wall/CPU time, rows in (scanned) and out
(returned), vectors touched, buffer-manager hits/misses over the
statement's window, a peak-memory estimate, on error the exception, and
the optimizer decisions and plan checks taken while it ran, attributed to
``(session_id, statement_seq)``.  The record is created when the statement
starts and appended once to the :class:`StatementLog` when it ends, and
every per-statement surface reads that log:

* ``repro_statement_log()`` -- the last :data:`RECENT_ENTRIES` statements;
* ``repro_optimizer()`` -- the newest of those that ran the optimizer;
* ``repro_plan_checks()`` -- the newest of those that carries plan checks.

Slow statements are a query over the same ring (``WHERE wall_ms > ?``),
joined to ``repro_traces()`` on ``trace_id`` when tracing was on.  The
log also owns the database's statement metrics, which are unbounded:
statements recorded, rows returned, and the latency histogram
(:meth:`StatementLog.totals`).  Appends take the innermost
``statement_log`` sanitizer lock, so any engine thread may record while
holding its own locks.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from collections import deque
from itertools import accumulate
from typing import Any, Deque, Dict, List, Optional, Tuple

from ..sanitizer import SanLock
from .metrics import DEFAULT_TIME_BUCKETS

__all__ = ["StatementRecord", "StatementLog", "RECENT_ENTRIES"]

#: Statements retained for ``repro_statement_log()``.
RECENT_ENTRIES = 512


class StatementRecord:
    """Resource bill of one statement, created when it starts.

    ``error``/``message`` are the exception's type name and text (empty on
    success).  ``trace_id`` is the statement's root span id in its
    database's tracer, 0 when it ran untraced.
    While the statement runs, the optimizer appends ``(phase, decision,
    detail, estimated_rows)`` tuples to ``decisions`` and quackplan appends
    ``(stage, invariant, status, operator, detail)`` tuples to
    ``plan_checks``; each stays None when that stage never ran.
    """

    __slots__ = ("session_id", "statement_seq", "sql", "timestamp", "wall_ms",
                 "cpu_ms", "rows_out", "rows_scanned", "vectors",
                 "buffer_hits", "buffer_misses", "memory_bytes", "error",
                 "message", "decisions", "plan_checks", "trace_id")

    def __init__(self, session_id: int, statement_seq: int, sql: str,
                 wall_ms: float = 0.0, cpu_ms: float = 0.0,
                 rows_out: int = 0, rows_scanned: int = 0, vectors: int = 0,
                 buffer_hits: int = 0, buffer_misses: int = 0,
                 memory_bytes: int = 0, error: str = "", message: str = "",
                 timestamp: Optional[float] = None) -> None:
        self.session_id = session_id
        self.statement_seq = statement_seq
        self.sql = sql
        self.timestamp = time.time() if timestamp is None else timestamp
        self.wall_ms = wall_ms
        self.cpu_ms = cpu_ms
        self.rows_out = rows_out
        self.rows_scanned = rows_scanned
        self.vectors = vectors
        self.buffer_hits = buffer_hits
        self.buffer_misses = buffer_misses
        self.memory_bytes = memory_bytes
        self.error = error
        self.message = message
        self.decisions: Optional[List[Tuple[str, str, str,
                                            Optional[float]]]] = None
        self.plan_checks: Optional[List[Tuple[str, str, str, str,
                                              str]]] = None
        self.trace_id = 0

    def as_row(self) -> Tuple[int, int, str, float, float, float, int, int,
                              int, int, int, int, str, int]:
        """Row shape of the ``repro_statement_log()`` system table."""
        return (self.session_id, self.statement_seq, self.sql,
                self.timestamp, self.wall_ms, self.cpu_ms, self.rows_out,
                self.rows_scanned, self.vectors, self.buffer_hits,
                self.buffer_misses, self.memory_bytes, self.error,
                self.trace_id)

    def __repr__(self) -> str:
        return (f"StatementRecord(session={self.session_id}, "
                f"seq={self.statement_seq}, wall={self.wall_ms:.3f}ms, "
                f"rows_out={self.rows_out})")


class StatementLog:
    """Bounded ring of the most recent statements, plus their totals.

    Thread-safe behind the ``statement_log`` sanitizer lock (innermost
    in the declared hierarchy; see :mod:`repro.sanitizer.hierarchy`).
    Readers copy under the lock and work on the copy.
    """

    def __init__(self) -> None:
        self._lock = SanLock("statement_log")
        self._recent: Deque[StatementRecord] = deque(maxlen=RECENT_ENTRIES)
        self._total_recorded = 0
        self._rows_returned = 0
        self._seconds_sum = 0.0
        #: Statements per latency bucket (not cumulative); slower than the
        #: last bound counts only in ``_total_recorded``.
        self._seconds_buckets = [0] * len(DEFAULT_TIME_BUCKETS)

    @property
    def total_recorded(self) -> int:
        """Statements recorded since creation (not bounded by the ring)."""
        return self._total_recorded

    def record(self, record: StatementRecord) -> None:
        """Append one finished statement."""
        seconds = record.wall_ms / 1e3
        bucket = bisect_left(DEFAULT_TIME_BUCKETS, seconds)
        with self._lock:
            self._recent.append(record)
            self._total_recorded += 1
            self._rows_returned += record.rows_out
            self._seconds_sum += seconds
            if bucket < len(self._seconds_buckets):
                self._seconds_buckets[bucket] += 1

    def totals(self) -> Tuple[int, int, Dict[str, Any]]:
        """``(statements, rows returned, latency histogram)`` since
        creation, read together; the histogram has the
        :class:`~repro.observability.metrics.Metric` shape."""
        with self._lock:
            count, rows = self._total_recorded, self._rows_returned
            seconds_sum = self._seconds_sum
            buckets = list(self._seconds_buckets)
        return count, rows, {
            "count": count, "sum": seconds_sum,
            "buckets": dict(zip(DEFAULT_TIME_BUCKETS, accumulate(buckets)))}

    def records(self) -> List[StatementRecord]:
        """Recent statements, oldest first (copy-then-release)."""
        with self._lock:
            return list(self._recent)

    def newest_with(self, attribute: str) -> Optional[StatementRecord]:
        """The newest recorded statement whose ``attribute`` is not None."""
        for record in reversed(self.records()):
            if getattr(record, attribute) is not None:
                return record
        return None

    def rows(self) -> List[Tuple[int, int, str, float, float, float, int,
                                 int, int, int, int, int, str, int]]:
        """System-table rows, oldest first."""
        return [record.as_row() for record in self.records()]

    def clear(self) -> None:
        with self._lock:
            self._recent.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._recent)
