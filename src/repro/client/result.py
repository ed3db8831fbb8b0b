"""Query results: bulk chunk access, zero-copy NumPy export, row access.

Transfer efficiency (paper §5/§6) is the whole point of this module:

* :meth:`QueryResult.fetch_chunk` hands the client the engine's own
  chunks -- "exactly identical to the internal representation ... handed
  over without requiring copying";
* :meth:`QueryResult.fetch_numpy` exposes whole columns as NumPy arrays
  (zero-copy for a single chunk and for a table scan's unfiltered chunks,
  which join into one read-only view of the table's storage);
* :meth:`QueryResult.fetchone` / :meth:`fetchmany` / :meth:`fetchall`
  provide the familiar DB-API row-oriented access on top of the bulk path:
  each chunk is turned into rows once, column by column, and the row
  methods hand out slices of that list.

A streaming result keeps its transaction open until exhausted or closed --
the client application literally acts as the root operator of the query
plan, polling the engine for chunks.
"""

from __future__ import annotations

import sys
from itertools import chain
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..errors import ConnectionError as ResultClosedError
from ..storage.table_data import SCAN_CHUNK_ROWS
from ..types import DataChunk, LogicalType, LogicalTypeId, Vector

__all__ = ["QueryResult", "ColumnDescription"]

#: DB-API 2.0 column description: (name, type_code, display_size,
#: internal_size, precision, scale, null_ok).
ColumnDescription = Tuple[str, LogicalTypeId, Optional[int], Optional[int],
                          Optional[int], Optional[int], Optional[bool]]


class QueryResult:
    """Result of one statement, and the engine's only row reader.

    Every row-shaped read -- ``fetchone``/``fetchmany``/``fetchall``/
    iteration here, a :class:`~repro.client.cursor.Cursor`'s methods of the
    same names, and the cursor's value-at-a-time ``step()`` -- moves the one
    position this object keeps, so they interleave freely and each row is
    handed out once.  ``fetchmany()`` without a size returns one row: a
    result has no ``arraysize``; the cursor passes its own.
    """

    def __init__(self, names: List[str], types: List[LogicalType],
                 chunks: Iterator[DataChunk], rowcount: int = -1,
                 on_close: Optional[Callable[[], None]] = None) -> None:
        self.names = names
        self.types = types
        self.rowcount = rowcount
        self._source: Optional[Iterator[DataChunk]] = chunks
        # The rest of a source chunk larger than one hand-over, as views.
        self._pieces: Optional[Iterator[DataChunk]] = None
        self._on_close = on_close
        self._closed = False
        # Row-access state: the chunk being read, its rows (built on first
        # use, all at once) and the index of its next unread row.
        self._current: Optional[DataChunk] = None
        self._rows: Optional[List[Tuple[Any, ...]]] = None
        self._position = 0

    # -- metadata ----------------------------------------------------------
    @property
    def columns(self) -> List[str]:
        """Column names, in result order."""
        return list(self.names)

    @property
    def dtypes(self) -> List[LogicalType]:
        """Logical column types, in result order."""
        return list(self.types)

    @property
    def description(self) -> List[ColumnDescription]:
        """DB-API 2.0 column descriptions (7-tuples).

        ``type_code`` is the column's :class:`~repro.types.LogicalTypeId`;
        ``internal_size`` is the per-value width of the physical NumPy
        representation (pointer width for VARCHAR).
        """
        out: List[ColumnDescription] = []
        for name, dtype in zip(self.names, self.types):
            out.append((name, dtype.id, None, dtype.numpy_dtype.itemsize,
                        None, None, None))
        return out

    # -- lifecycle ---------------------------------------------------------
    def _finish(self) -> None:
        """Release underlying resources (runs the commit callback once).

        The result stays readable -- further fetches simply report
        exhaustion -- unlike :meth:`close`, which forbids further access.
        """
        self._source = None
        if self._on_close is not None:
            callback, self._on_close = self._on_close, None
            callback()

    def close(self) -> None:
        """Release the result (and its transaction for streaming results)."""
        if self._closed:
            return
        self._closed = True
        self._current = self._rows = self._pieces = None
        self._finish()

    def __enter__(self) -> "QueryResult":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise ResultClosedError("Result has been closed")

    # -- bulk (chunk) API ------------------------------------------------------
    def fetch_chunk(self) -> Optional[DataChunk]:
        """The next chunk in the engine's internal representation, or None.

        This is the paper's zero-copy hand-over: the returned chunk's NumPy
        arrays are the engine's own vectors (for a table scan, read-only
        views of its storage).  A chunk is at most ``SCAN_CHUNK_ROWS``
        rows: a larger engine batch is handed over as views of it, that
        many rows at a time.  Dictionary-coded VARCHAR columns are decoded
        here, once per chunk, so the row paths built on this one (rows,
        cursors) read plain arrays.
        """
        self._check_open()
        if self._pieces is not None:
            piece = next(self._pieces, None)
            if piece is not None:
                return piece.flatten()
            self._pieces = None
        if self._source is None:
            return None
        for chunk in self._source:
            size = chunk.size
            if size > SCAN_CHUNK_ROWS:
                self._pieces = chunk.split(SCAN_CHUNK_ROWS)
                return next(self._pieces).flatten()
            if size:
                return chunk.flatten()
        self._finish()
        return None

    def chunks(self) -> Iterator[DataChunk]:
        """Iterate over all remaining chunks."""
        while True:
            chunk = self.fetch_chunk()
            if chunk is None:
                return
            yield chunk

    def _drain(self) -> DataChunk:
        """Every remaining row as one chunk (itself, when there is only
        one), joined while still coded so each VARCHAR column decodes once.
        Starts at the row reader's position: the unread rest of the chunk
        it stands on comes first."""
        self._check_open()
        unread = []
        if self._current is not None and self._position < self._current.size:
            unread.append(self._current.slice(slice(self._position, None)))
        self._current = self._rows = None
        self._position = 0
        collected = [chunk for chunk in chain(unread, self._pieces or (),
                                              self._source or ())
                     if chunk.size]
        self._finish()
        if not collected:
            return DataChunk.empty(self.types)
        if len(collected) == 1:
            return collected[0].flatten()
        return DataChunk.concat_many(collected).flatten()

    def fetch_numpy(self) -> Dict[str, np.ndarray]:
        """Columns as NumPy arrays (masked arrays when NULLs are present).

        Zero-copy for a single chunk and for a table scan's unfiltered
        chunks, which join into one read-only view of the table's storage
        (``.copy()`` it to write); other results are concatenated once.
        """
        out: Dict[str, np.ndarray] = {}
        for name, vector in zip(self.names, self._drain().columns):
            if vector.all_valid():
                out[name] = vector.data
            else:
                out[name] = np.ma.masked_array(vector.data, mask=~vector.validity)
        return out

    def materialize(self) -> "QueryResult":
        """Drain the source eagerly; the result then owns plain chunks."""
        collected = list(self.chunks())
        self._source = iter(collected)
        return self

    # -- row API ---------------------------------------------------------------
    def _advance(self) -> bool:
        """Stand on an unread row, pulling chunks as needed; False when done."""
        self._check_open()
        while self._current is None or self._position >= self._current.size:
            self._current = self.fetch_chunk()
            self._rows = None
            self._position = 0
            if self._current is None:
                return False
        return True

    def step(self) -> Optional[Tuple[DataChunk, int]]:
        """Consume one row *without* converting it: the chunk and index it
        sits at, or None when done (for value-at-a-time readers)."""
        if not self._advance():
            return None
        self._position += 1
        return self._current, self._position - 1

    def fetchmany(self, size: int = 1) -> List[Tuple[Any, ...]]:
        """Up to ``size`` rows as tuples of Python values, [] when done."""
        rows: List[Tuple[Any, ...]] = []
        while len(rows) < size and self._advance():
            if self._rows is None:
                self._rows = self._current.to_rows()
            stop = min(self._position + size - len(rows), len(self._rows))
            rows += self._rows[self._position:stop]
            self._position = stop
        return rows

    def fetchone(self) -> Optional[Tuple[Any, ...]]:
        """The next row as a tuple of Python values, or None when done."""
        rows = self.fetchmany(1)
        return rows[0] if rows else None

    def fetchall(self) -> List[Tuple[Any, ...]]:
        """All remaining rows as Python tuples."""
        return self.fetchmany(sys.maxsize)

    def to_rows(self) -> List[Tuple[Any, ...]]:
        """All remaining rows as Python tuples (alias of :meth:`fetchall`)."""
        return self.fetchall()

    def to_dict(self) -> Dict[str, List[Any]]:
        """All rows as ``{column_name: [python values]}``."""
        return self._drain().to_pydict(self.names)

    def fetchvalue(self) -> Any:
        """First column of the first row (scalar convenience)."""
        row = self.fetchone()
        return row[0] if row is not None else None

    def __iter__(self) -> Iterator[Tuple[Any, ...]]:
        return iter(self.fetchone, None)

    def __repr__(self) -> str:
        columns = ", ".join(f"{name}:{dtype}"
                            for name, dtype in zip(self.names, self.types))
        return f"QueryResult([{columns}])"
