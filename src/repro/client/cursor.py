"""Cursors: the DB-API 2.0 surface plus the value-at-a-time baseline.

Paper §5: *"Common examples are the ODBC and JDBC APIs, but also the SQLite
APIs. ... when transferring large result sets, the function call overhead
for each value becomes excessive."*

This cursor serves two audiences at once:

* **PEP 249 (DB-API 2.0)** -- ``execute``/``executemany``, ``fetchone``/
  ``fetchmany``/``fetchall`` with ``arraysize``, a 7-tuple ``description``
  whose ``type_code`` is the column's
  :class:`~repro.types.LogicalTypeId`, context-manager support, and strict
  closed-cursor semantics.  ``repro.client`` exports the module-level
  ``apilevel``/``threadsafety``/``paramstyle`` attributes.  The row methods
  delegate to the result's one row reader.
* **the C3 transfer baseline** -- the deliberately traditional ``step()``
  advances one row and ``column_value(i)`` fetches one value per call, so
  the transfer experiment can measure exactly the per-value overhead the
  paper criticizes against the chunk-based bulk API of
  :class:`~repro.client.result.QueryResult`.  These two are kept slow on
  purpose; they move the same read position as the row methods.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import ClosedHandleError, InvalidInputError
from ..types import DataChunk
from .result import ColumnDescription, QueryResult

if TYPE_CHECKING:
    from .connection import Connection

__all__ = ["Cursor"]


class Cursor:
    """DB-API 2.0 cursor (also exposes SQLite-style stepping)."""

    def __init__(self, connection: "Connection") -> None:
        self._connection = connection
        self._result: Optional[QueryResult] = None
        # Where step() stands: (chunk, row index), for column_value().
        self._at: Optional[Tuple[DataChunk, int]] = None
        self._closed = False
        #: DB-API: how many rows :meth:`fetchmany` returns by default.
        self.arraysize: int = 1
        #: DB-API: affected/returned row count of the last statement.
        self.rowcount: int = -1
        #: DB-API: 7-tuple column descriptions of the last result.
        self.description: Optional[List[ColumnDescription]] = None

    # -- properties -------------------------------------------------------
    @property
    def connection(self) -> "Connection":
        """The connection this cursor belongs to (DB-API extension)."""
        return self._connection

    def _check_usable(self) -> None:
        if self._closed:
            # InterfaceError-family (and still an InvalidInputError for
            # callers written against the historical exception).
            raise ClosedHandleError("Cursor has been closed")

    # -- execution -------------------------------------------------------
    def execute(self, sql: str, parameters: Any = None) -> "Cursor":
        """Run SQL; ``parameters`` is a sequence (qmark) or mapping (named)."""
        self._check_usable()
        self.finalize()
        self._result = self._connection.execute(sql, parameters, stream=True)
        self.rowcount = self._result.rowcount
        self.description = self._result.description or None
        return self

    def executemany(self, sql: str,
                    parameter_sets: Iterable[Sequence[Any]]) -> "Cursor":
        """Run one statement over many parameter sets (DB-API); see
        :meth:`Connection.executemany <repro.client.connection.Connection.executemany>`."""
        self._check_usable()
        self.finalize()
        self.rowcount = self._connection.executemany(sql, parameter_sets).rowcount
        self.description = None
        return self

    def _reader(self, caller: str) -> QueryResult:
        self._check_usable()
        if self._result is None:
            raise InvalidInputError(f"{caller}() before execute()")
        return self._result

    # -- SQLite-style stepping API ------------------------------------------------
    def step(self) -> bool:
        """Advance to the next row; False when the result is exhausted."""
        self._at = self._reader("step").step()
        return self._at is not None

    def column_count(self) -> int:
        return len(self._reader("column_count").names)

    def column_name(self, index: int) -> str:
        return self._reader("column_name").names[index]

    def column_value(self, index: int) -> Any:
        """One value of the current row -- one function call per value."""
        if self._at is None:
            raise InvalidInputError("column_value() before a successful step()")
        chunk, row = self._at
        return chunk.columns[index].get_value(row)

    # -- DB-API row access -----------------------------------------------------
    def fetchone(self) -> Optional[Tuple[Any, ...]]:
        return self._reader("fetchone").fetchone()

    def fetchmany(self, size: Optional[int] = None) -> List[Tuple[Any, ...]]:
        """Up to ``size`` rows (default :attr:`arraysize`), [] when done."""
        return self._reader("fetchmany").fetchmany(
            self.arraysize if size is None else size)

    def fetchall(self) -> List[Tuple[Any, ...]]:
        return self._reader("fetchall").fetchall()

    def __iter__(self) -> Iterator[Tuple[Any, ...]]:
        """Iterate over remaining rows (DB-API extension)."""
        return iter(self._reader("iter"))

    # -- DB-API no-ops ---------------------------------------------------------
    def setinputsizes(self, sizes: Sequence[Any]) -> None:
        """Required by PEP 249; this engine needs no sizing hints."""

    def setoutputsize(self, size: int, column: Optional[int] = None) -> None:
        """Required by PEP 249; this engine needs no sizing hints."""

    # -- lifecycle ---------------------------------------------------------------------
    def finalize(self) -> None:
        """Release the current result; the cursor stays reusable."""
        if self._result is not None:
            self._result.close()
            self._result = None
        self._at = None

    def close(self) -> None:
        """Release resources and make the cursor unusable (DB-API)."""
        self.finalize()
        self._closed = True

    def __enter__(self) -> "Cursor":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
