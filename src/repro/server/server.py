"""QueryServer: the concurrent serving front end over one embedded database.

The paper's thesis is an *embedded* engine, but its motivating deployments
(§2: the dashboard reader next to the ETL writer) still need a serving
shape: many logical clients multiplexed onto one
:class:`~repro.database.Database` in one process.  ``QueryServer`` is that
front end:

* each :meth:`session` gets a private connection with a **copy** of the
  database config (session PRAGMAs cannot leak, except on the options
  only the database's own components read, which go to its config),
* every statement passes **admission control**
  (``config.max_concurrent_queries`` / ``admission_timeout_ms``) and runs
  under its fair-share thread/memory grant,
* all sessions share the database's **plan cache** and **result cache**
  (see :mod:`repro.server.cache`), so a thousand dashboard sessions issuing
  the same handful of queries parse and optimize them once.

The server can wrap an existing ``Database`` (embedded co-tenancy) or own a
fresh one (``QueryServer(path=...)``) that it closes on exit.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Optional

from .session import Session, SessionRegistry

__all__ = ["QueryServer"]


class QueryServer:
    """Multiplexes many client sessions onto one shared database."""

    def __init__(self, database: Any = None, path: str = ":memory:",
                 config: Any = None) -> None:
        if database is None:
            from ..config import DatabaseConfig
            from ..database import Database

            if isinstance(config, dict) or config is None:
                config = DatabaseConfig.from_dict(config)
            database = Database(path, config)
            self._owns_database = True
        else:
            self._owns_database = False
        self.database = database
        self.admission = database.admission
        self.sessions: SessionRegistry = database.session_registry

    # -- sessions -----------------------------------------------------------
    def session(self, name: Optional[str] = None) -> Session:
        """Open a new client session (usable as a context manager).

        The session's connection carries a private copy of the database
        config: ``PRAGMA`` statements issued through it are scoped to the
        session and reset when it closes.
        """
        self.database.check_open()
        from ..client.connection import Connection

        session_config = dataclasses.replace(self.database.config)
        connection = Connection(self.database, config=session_config)
        return self.sessions.create(connection, self.admission, name)

    def execute(self, sql: str, parameters: Any = None):
        """One-shot convenience: run SQL in a throwaway session."""
        session = self.session()
        try:
            return session.execute(sql, parameters)
        finally:
            session.close()

    # -- introspection ------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Point-in-time serving statistics (sessions, caches, admission)."""
        return {
            "sessions": self.sessions.stats(),
            "admission": self.admission.stats(),
            "plan_cache": self.database.plan_cache.stats(),
            "result_cache": self.database.result_cache.stats(),
        }

    def scrape(self) -> str:
        """One Prometheus-text scrape page of this database's metrics.

        The embedded counterpart of a ``/metrics`` endpoint: the host
        application mounts this method on whatever HTTP surface it already
        has and the engine becomes scrape-able without its own listener.
        The page is the same one ``connection.metrics_text()`` renders,
        read from the database's components at the moment of the scrape.
        """
        from ..observability.metrics import render_text

        return render_text(self.database.metrics())

    # -- lifecycle ----------------------------------------------------------
    def close(self) -> None:
        """Close every live session, then the database if this server owns it."""
        for session in self.sessions.active_sessions():
            session.close()
        if self._owns_database:
            self.database.close()

    def __enter__(self) -> "QueryServer":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"QueryServer({self.database!r}, "
                f"sessions={len(self.sessions)})")
