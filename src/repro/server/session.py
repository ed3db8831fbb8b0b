"""Sessions: one served client's connection, stats, and resource scope.

A :class:`Session` wraps a dedicated
:class:`~repro.client.connection.Connection` whose config is a private copy
of the database's -- session ``PRAGMA``s (memory limit, threads, tracing
thresholds) apply to this session only and die with it.  The options only
database-owned components read (cache sizes, admission limits, WAL and
checkpoint policy) change the database config instead.  Every
statement passes through the shared
:class:`~repro.server.admission.AdmissionController` first, and the
granted ticket caps the session's thread/memory knobs for the statement's
duration, so one heavy OLAP query cannot starve a thousand light ones.

The :class:`SessionRegistry` hangs off the
:class:`~repro.database.Database` and is the source of the
``repro_sessions()`` system table.  Lock discipline: the registry's
``server.sessions`` lock guards the session map *and* every session's
mutable stats (each session aliases it as ``_registry_lock``), so the
system-table snapshot is one consistent critical section.  The lock is
never held across engine work -- statistics are flipped before and after
``connection.execute``, each statement's bill is folded in by the
connection's observe site (which holds ``connection``, the lock *above*
``server.sessions`` in the declared hierarchy), and a closing session
leaves the registry's critical section before taking the connection lock
(the nested order would be inverted).
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from ..errors import ClosedHandleError
from ..sanitizer import SanLock

if TYPE_CHECKING:
    from ..client.connection import Connection
    from ..client.result import QueryResult
    from ..observability.accounting import StatementRecord
    from .admission import AdmissionController

__all__ = ["Session", "SessionRegistry"]


class Session:
    """One served client: a private connection plus admission-scoped stats."""

    def __init__(self, registry: "SessionRegistry",
                 admission: Optional["AdmissionController"],
                 connection: "Connection", session_id: int,
                 name: str) -> None:
        self._registry = registry
        # Alias of the registry's ``server.sessions`` lock: stats writes and
        # the ``repro_sessions()`` snapshot share one critical section.
        self._registry_lock = registry._lock
        self._admission = admission
        self.connection = connection
        self.session_id = session_id
        self.name = name
        self.state = "idle"
        self.statements = 0
        self.rows_returned = 0
        self.errors = 0
        self.last_sql = ""
        self.created_at = time.time()
        # Live-activity fields (repro_activity()): what this session is
        # doing *right now*.  Guarded by _registry_lock like all stats.
        self.active_sql = ""
        self.active_phase = ""
        self.active_since = 0.0
        self.active_seq = 0
        # Accumulated resource accounting: the sums over this session's
        # ``repro_statement_log()`` rows, one bill per statement.
        self.wall_ms = 0.0
        self.cpu_ms = 0.0
        self.rows_scanned = 0
        self.buffer_hits = 0
        self.buffer_misses = 0
        self.peak_memory = 0
        self._closed = False
        # Stamp the accounting attribution key onto the connection so every
        # StatementRecord carries (session_id, seq), and subscribe to the
        # bills.
        connection._session_id = session_id
        connection._bill_sink = self._fold_bill

    # -- execution ----------------------------------------------------------
    def execute(self, sql: str, parameters: Any = None) -> "QueryResult":
        """Run SQL through admission control (eager -- results materialized).

        Eager mode is deliberate: the admission ticket (and its thread/
        memory grant) is released when this call returns, so the whole
        execution must happen inside it.
        """
        return self._serve(sql, parameters, many=False)

    def executemany(self, sql: str, parameter_sets: Any) -> "QueryResult":
        """One statement over many parameter sets: one admission ticket and
        one bill (see ``Connection.executemany``)."""
        return self._serve(sql, list(parameter_sets), many=True)

    def _serve(self, sql: str, parameters: Any, many: bool) -> "QueryResult":
        if self._closed:
            raise ClosedHandleError(
                f"Session {self.name!r} has been closed")
        with self._registry_lock:
            self.state = "active"
            self.last_sql = sql
            self.statements += 1
            self.active_sql = sql
            self.active_phase = "admission"
            self.active_since = time.time()
            self.active_seq = self.connection._statement_seq + 1
        ticket = None
        config = self.connection.session_config
        saved_threads = granted_threads = config.threads
        saved_memory = granted_memory = config.memory_limit
        try:
            # Admitted inside the ``try``: a timed-out admission counts as
            # an error and still clears the activity fields below.
            if self._admission is not None:
                ticket = self._admission.admit()
                # The grant only ever tightens the session's own knobs.
                granted_threads = max(1, min(saved_threads, ticket.threads))
                granted_memory = min(saved_memory, ticket.memory_limit)
                config.threads = granted_threads
                config.memory_limit = granted_memory
            with self._registry_lock:
                self.active_phase = "executing"
            run = self.connection.executemany if many \
                else self.connection.execute
            return run(sql, parameters)
        except Exception:
            with self._registry_lock:
                self.errors += 1
            raise
        finally:
            # Undo the grant clamp, but keep a value the statement itself
            # changed (``PRAGMA threads=...`` issued through the session
            # becomes the session's new baseline).
            if config.threads == granted_threads:
                config.threads = saved_threads
            if config.memory_limit == granted_memory:
                config.memory_limit = saved_memory
            if ticket is not None:
                self._admission.release()
            with self._registry_lock:
                self.active_sql = ""
                self.active_phase = ""
                self.active_since = 0.0
                self.active_seq = 0
                if not self._closed:
                    self.state = "idle"

    def _fold_bill(self, bill: "StatementRecord") -> None:
        """Add one finished statement's bill to the session totals.

        Called by the connection's observe site for *every* statement, so a
        multi-statement string or a streamed result is billed in full.
        """
        with self._registry_lock:
            self.rows_returned += bill.rows_out
            self.wall_ms += bill.wall_ms
            self.cpu_ms += bill.cpu_ms
            self.rows_scanned += bill.rows_scanned
            self.buffer_hits += bill.buffer_hits
            self.buffer_misses += bill.buffer_misses
            if bill.memory_bytes > self.peak_memory:
                self.peak_memory = bill.memory_bytes

    def stats(self) -> Dict[str, Any]:
        """Accumulated resource accounting of this session (one snapshot)."""
        with self._registry_lock:
            return {
                "statements": self.statements,
                "rows_returned": self.rows_returned,
                "errors": self.errors,
                "wall_ms": self.wall_ms,
                "cpu_ms": self.cpu_ms,
                "rows_scanned": self.rows_scanned,
                "buffer_hits": self.buffer_hits,
                "buffer_misses": self.buffer_misses,
                "peak_memory": self.peak_memory,
            }

    # -- lifecycle ----------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        with self._registry_lock:
            if self._closed:
                return
            self._closed = True
            self.state = "closed"
        self._registry.unregister(self)
        # Outside the registry lock: ``connection`` is above
        # ``server.sessions`` in the hierarchy, nesting here would invert it.
        self.connection.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else self.state
        return f"Session({self.session_id}, {self.name!r}, {state})"


class SessionRegistry:
    """All live sessions of a database, snapshot-able for introspection."""

    def __init__(self) -> None:
        self._lock = SanLock("server.sessions")
        self._sessions: Dict[int, Session] = {}
        self._next_id = 1
        self.opened = 0
        self.closed = 0
        self.peak = 0

    def create(self, connection: "Connection",
               admission: Optional["AdmissionController"] = None,
               name: Optional[str] = None) -> Session:
        """Register a new session wrapping ``connection``."""
        with self._lock:
            session_id = self._next_id
            self._next_id += 1
        session = Session(self, admission, connection, session_id,
                          name or f"session-{session_id}")
        with self._lock:
            self._sessions[session_id] = session
            self.opened += 1
            if len(self._sessions) > self.peak:
                self.peak = len(self._sessions)
        return session

    def unregister(self, session: Session) -> None:
        with self._lock:
            if self._sessions.pop(session.session_id, None) is not None:
                self.closed += 1

    def active_sessions(self) -> List[Session]:
        with self._lock:
            return list(self._sessions.values())

    def snapshot(self) -> List[Dict[str, Any]]:
        """Copy-then-release: per-session stats rows for ``repro_sessions()``."""
        with self._lock:
            rows = []
            for session in self._sessions.values():
                rows.append({
                    "session_id": session.session_id,
                    "name": session.name,
                    "state": session.state,
                    "statements": session.statements,
                    "rows_returned": session.rows_returned,
                    "errors": session.errors,
                    "last_sql": session.last_sql,
                    "created_at": session.created_at,
                    "wall_ms": session.wall_ms,
                    "cpu_ms": session.cpu_ms,
                    "rows_scanned": session.rows_scanned,
                    "buffer_hits": session.buffer_hits,
                    "buffer_misses": session.buffer_misses,
                    "peak_memory": session.peak_memory,
                })
            return rows

    def activity_snapshot(self) -> List[Dict[str, Any]]:
        """Live per-session activity rows for ``repro_activity()``.

        Only sessions with a statement in flight appear.  ``rows_so_far``
        is a best-effort read of the in-flight execution context's scan
        counter -- the same lock-free post-hoc read the executor uses --
        so a dashboard can see a runaway scan *while it runs*.
        """
        now = time.time()
        with self._lock:
            rows = []
            for session in self._sessions.values():
                if not session.active_sql:
                    continue
                rows_so_far = 0
                context = session.connection._active_context
                if context is not None:
                    rows_so_far = int(context.stats.get("rows_scanned", 0))
                rows.append({
                    "session_id": session.session_id,
                    "name": session.name,
                    "statement_seq": session.active_seq,
                    "sql": session.active_sql,
                    "phase": session.active_phase,
                    "started_at": session.active_since,
                    "elapsed_ms": (now - session.active_since) * 1000.0,
                    "rows_so_far": rows_so_far,
                })
            return rows

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "active": len(self._sessions),
                "opened": self.opened,
                "closed": self.closed,
                "peak": self.peak,
            }
