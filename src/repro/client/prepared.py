"""Prepared statements: parse once, execute many times with parameters.

``Connection.prepare(sql)`` returns a :class:`PreparedStatement` holding the
statement's AST.  Each :meth:`execute` first consults the database's shared
plan cache (a warm statement skips parse *and* bind *and* optimize); on a
cache miss the retained AST at least skips the parse.  Both paramstyles
work -- ``?`` markers bound from a sequence, ``:name`` markers bound from a
mapping -- and values never defeat the cache, because plans are keyed on
the parameter *type* fingerprint, not the values.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable

from ..errors import ClosedHandleError, InvalidInputError
from ..sql import parse
if TYPE_CHECKING:
    from .connection import Connection
    from .result import QueryResult

__all__ = ["PreparedStatement"]


class PreparedStatement:
    """One pre-parsed SQL statement bound to a connection."""

    def __init__(self, connection: "Connection", sql: str) -> None:
        statements = parse(sql)
        if not statements:
            raise InvalidInputError("No statement to prepare")
        if len(statements) > 1:
            raise InvalidInputError(
                "prepare() takes exactly one statement; got "
                f"{len(statements)} (split multi-statement scripts)")
        self._connection = connection
        self._sql = sql
        self._statements = statements
        self._closed = False

    @property
    def sql(self) -> str:
        return self._sql

    @property
    def connection(self) -> "Connection":
        return self._connection

    def _check_usable(self) -> None:
        if self._closed:
            raise ClosedHandleError("Prepared statement has been closed")
        self._connection._check_open()

    def execute(self, parameters: Any = None,
                stream: bool = False) -> "QueryResult":
        """Run the statement with this execution's parameter values."""
        self._check_usable()
        return self._connection._execute(self._sql, self._statements,
                                         parameters, stream)

    def executemany(self, parameter_sets: Iterable[Any]) -> "QueryResult":
        """Run over many parameter sets as one statement; see
        :meth:`Connection.executemany <repro.client.connection.Connection.executemany>`."""
        self._check_usable()
        return self._connection._executemany(self._sql, self._statements,
                                             parameter_sets)

    def close(self) -> None:
        self._closed = True

    def __enter__(self) -> "PreparedStatement":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"PreparedStatement({self._sql!r}, {state})"
