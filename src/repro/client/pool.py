"""Connection pooling for the serving workload.

``repro.connect(path, pool_size=N)`` returns a :class:`ConnectionPool`: N
real connections over one shared :class:`~repro.database.Database`, handed
out as :class:`PooledConnection` proxies.  Each underlying connection
carries a *private copy* of the database config, re-created every time the
connection returns to the pool -- a session's ``PRAGMA``s (memory limit,
threads, slow-query threshold) can never leak into the next borrower.
Open transactions left behind by a borrower are rolled back on release.

A released proxy is dead: every further operation raises
:class:`~repro.errors.InterfaceError` (never an internal engine error),
the PEP 249 contract for closed handles.
"""

from __future__ import annotations

import dataclasses
import threading
from typing import TYPE_CHECKING, Any, List, Optional

from ..errors import InterfaceError, InvalidInputError

if TYPE_CHECKING:
    from ..database import Database
    from .connection import Connection

__all__ = ["ConnectionPool", "PooledConnection"]


class ConnectionPool:
    """A fixed set of connections over one database, borrowed and returned."""

    def __init__(self, database: "Database", size: int,
                 owns_database: bool = False) -> None:
        if size < 1:
            raise InvalidInputError("pool_size must be >= 1")
        from .connection import Connection

        self._database = database
        self._owns_database = owns_database
        self._size = size
        # Plain stdlib primitives: the pool is client-side bookkeeping, not
        # an engine lock (it nests nothing and nothing nests inside it).
        self._condition = threading.Condition(threading.Lock())
        self._free: List["Connection"] = [
            Connection(database, config=self._fresh_config())
            for _ in range(size)
        ]
        self._borrowed = 0
        self._closed = False

    def _fresh_config(self):
        return dataclasses.replace(self._database.config)

    @property
    def size(self) -> int:
        return self._size

    @property
    def available(self) -> int:
        with self._condition:
            return len(self._free)

    # -- borrow / return ----------------------------------------------------
    def acquire(self, timeout: Optional[float] = None) -> "PooledConnection":
        """Borrow a connection, blocking until one is free."""
        with self._condition:
            while True:
                if self._closed:
                    raise InterfaceError("Connection pool has been closed")
                if self._free:
                    connection = self._free.pop()
                    self._borrowed += 1
                    return PooledConnection(self, connection)
                if not self._condition.wait(timeout):
                    raise InterfaceError(
                        f"No pooled connection became available within "
                        f"{timeout}s ({self._size} borrowed)")

    def connection(self, timeout: Optional[float] = None) -> "PooledConnection":
        """Alias of :meth:`acquire` reading well in ``with`` statements."""
        return self.acquire(timeout)

    def _release(self, connection: "Connection") -> None:
        # Reset before re-pooling: abandon any open transaction and restore
        # a pristine session config so PRAGMAs don't leak across borrowers.
        if connection.in_transaction:
            connection.rollback()
        connection._config = self._fresh_config()
        with self._condition:
            self._borrowed -= 1
            if self._closed:
                connection.close()
            else:
                self._free.append(connection)
                self._condition.notify()

    # -- lifecycle ----------------------------------------------------------
    def close(self) -> None:
        """Close idle connections now, borrowed ones as they are returned."""
        with self._condition:
            if self._closed:
                return
            self._closed = True
            idle, self._free = self._free, []
            self._condition.notify_all()
        for connection in idle:
            connection.close()
        if self._owns_database:
            self._database.close()

    def __enter__(self) -> "ConnectionPool":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"ConnectionPool(size={self._size}, {state})"


class PooledConnection:
    """A borrowed connection; returning it to the pool invalidates the proxy.

    Supports the full :class:`~repro.client.connection.Connection` API by
    delegation.  ``close()`` returns the connection to the pool instead of
    closing it; afterwards every call raises
    :class:`~repro.errors.InterfaceError`.
    """

    __slots__ = ("_pool", "_connection", "_released")

    def __init__(self, pool: ConnectionPool, connection: "Connection") -> None:
        self._pool = pool
        self._connection = connection
        self._released = False

    def __getattr__(self, name: str) -> Any:
        if self._released:
            raise InterfaceError(
                "Connection was returned to the pool; acquire a new one")
        return getattr(self._connection, name)

    @property
    def released(self) -> bool:
        return self._released

    def close(self) -> None:
        """Return the underlying connection to the pool (idempotent)."""
        if self._released:
            return
        self._released = True
        self._pool._release(self._connection)

    def __enter__(self) -> "PooledConnection":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "released" if self._released else "borrowed"
        return f"PooledConnection({state})"
