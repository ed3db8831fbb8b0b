"""CSV sniffing and chunked reading.

Paper §2: *"the database can directly scan existing files (e.g. CSV),
reshape the result and then append it to a persistent table"* -- ETL belongs
inside the database.  The sniffer auto-detects delimiter, header presence,
and per-column types from a sample; the reader streams the file as
:class:`~repro.types.chunk.DataChunk`\\ s of :data:`VECTOR_SIZE` rows so
arbitrarily large files never need to fit in memory.
"""

from __future__ import annotations

import csv
import io
import itertools
import operator
from typing import Iterator, List, Optional, Sequence

import numpy as np

from ..errors import InvalidInputError
from ..types import (
    BIGINT,
    BOOLEAN,
    DATE,
    DOUBLE,
    LogicalType,
    TIMESTAMP,
    VARCHAR,
    VECTOR_SIZE,
    DataChunk,
    Vector,
    cast_vector,
)

__all__ = ["SniffResult", "sniff_csv", "read_csv_chunks"]

_SAMPLE_LINES = 128
_CANDIDATE_DELIMITERS = [",", ";", "\t", "|"]
_BOOLEAN_TOKENS = {"true", "false", "t", "f"}
_NULL_TOKENS = {"", "null", "na", "n/a", "none"}


class SniffResult:
    """Outcome of CSV sniffing: dialect, header, column names and types."""

    def __init__(self, delimiter: str, has_header: bool, names: List[str],
                 types: List[LogicalType]) -> None:
        self.delimiter = delimiter
        self.has_header = has_header
        self.names = names
        self.types = types

    def options(self) -> dict:
        return {"delimiter": self.delimiter, "header": self.has_header}

    def __repr__(self) -> str:
        columns = ", ".join(f"{n}:{t}" for n, t in zip(self.names, self.types))
        return f"SniffResult(delimiter={self.delimiter!r}, header={self.has_header}, [{columns}])"


def _is_null_token(token: str) -> bool:
    return token.strip().lower() in _NULL_TOKENS


def _token_type(token: str) -> LogicalType:
    """The narrowest type a single CSV token can be parsed as."""
    text = token.strip()
    lowered = text.lower()
    if lowered in _BOOLEAN_TOKENS:
        return BOOLEAN
    try:
        int(text)
        return BIGINT
    except ValueError:
        pass
    try:
        float(text)
        return DOUBLE
    except ValueError:
        pass
    import datetime

    try:
        datetime.date.fromisoformat(text)
        return DATE
    except ValueError:
        pass
    try:
        datetime.datetime.fromisoformat(text)
        return TIMESTAMP
    except ValueError:
        pass
    return VARCHAR


_TYPE_ORDER = [BOOLEAN, BIGINT, DOUBLE, DATE, TIMESTAMP, VARCHAR]


def _widen(current: Optional[LogicalType], candidate: LogicalType) -> LogicalType:
    if current is None:
        return candidate
    if current == candidate:
        return current
    pair = {current, candidate}
    if pair == {BIGINT, DOUBLE}:
        return DOUBLE
    if pair == {DATE, TIMESTAMP}:
        return TIMESTAMP
    return VARCHAR


def sniff_csv(path: str, delimiter: Optional[str] = None,
              header: Optional[bool] = None) -> SniffResult:
    """Detect dialect, header, and column types from a file sample."""
    try:
        with open(path, "r", newline="", encoding="utf-8-sig") as handle:
            sample_lines = []
            for _ in range(_SAMPLE_LINES):
                line = handle.readline()
                if not line:
                    break
                sample_lines.append(line)
    except OSError as exc:
        raise InvalidInputError(f"Cannot open CSV file {path!r}: {exc}") from None
    if not sample_lines:
        # A zero-byte file is a valid (if vacuous) CSV: no columns, no rows.
        # COPY FROM treats it as loading zero rows, matching the header-only
        # case; consumers that do need a schema (read_csv) reject it.
        return SniffResult(delimiter or ",", bool(header), [], [])
    sample = "".join(sample_lines)

    if delimiter is None:
        # Pick the delimiter that yields the most consistent column count.
        best = (",", -1, 1)
        for candidate in _CANDIDATE_DELIMITERS:
            rows = list(csv.reader(io.StringIO(sample), delimiter=candidate))
            if not rows:
                continue
            counts = [len(row) for row in rows if row]
            if not counts:
                continue
            most_common = max(set(counts), key=counts.count)
            consistency = counts.count(most_common)
            if most_common > 1 and (consistency, most_common) > (best[1], best[2]):
                best = (candidate, consistency, most_common)
        delimiter = best[0]

    rows = [row for row in csv.reader(io.StringIO(sample), delimiter=delimiter)
            if row]
    if not rows:
        # Only blank lines: same treatment as a zero-byte file.
        return SniffResult(delimiter, bool(header), [], [])
    width = max(len(row) for row in rows)

    first_row_types = [_token_type(token) if not _is_null_token(token) else None
                       for token in rows[0]]
    if header is None:
        # Heuristic: a header row is all-VARCHAR while later rows are not.
        data_rows = rows[1:]
        first_all_text = all(dtype == VARCHAR for dtype in first_row_types
                             if dtype is not None) and any(
            dtype is not None for dtype in first_row_types)
        later_has_non_text = any(
            not _is_null_token(token) and _token_type(token) != VARCHAR
            for row in data_rows for token in row
        )
        header = bool(first_all_text and (later_has_non_text or not data_rows))

    data_rows = rows[1:] if header else rows
    types: List[Optional[LogicalType]] = [None] * width
    for row in data_rows:
        for index in range(width):
            token = row[index] if index < len(row) else ""
            if _is_null_token(token):
                continue
            types[index] = _widen(types[index], _token_type(token))
    resolved = [dtype if dtype is not None else VARCHAR for dtype in types]

    if header:
        names = [token.strip() or f"column{i}" for i, token in enumerate(rows[0])]
        while len(names) < width:
            names.append(f"column{len(names)}")
    else:
        names = [f"column{i}" for i in range(width)]
    return SniffResult(delimiter, header, names, resolved)


def _text_column(rows: List[List[str]], index: int) -> Vector:
    """Column ``index`` of ``rows`` as a VARCHAR vector, NULL tokens NULL."""
    data = np.array(list(map(operator.itemgetter(index), rows)), dtype=object)
    # _is_null_token's test, as C-level maps over the column.
    validity = np.fromiter(map(_NULL_TOKENS.__contains__,
                               map(str.lower, map(str.strip, data))),
                           np.bool_, len(data))
    np.logical_not(validity, out=validity)
    data[~validity] = None
    return Vector(VARCHAR, data, validity)


def _rows_to_chunk(rows: List[List[str]], types: Sequence[LogicalType],
                   first_record: int = 1) -> DataChunk:
    """Parse raw string rows into a typed chunk (NULL tokens -> NULL).

    Column by column: each column is cut out of the rows once and cast as
    a whole.  Short rows are padded with NULL; a row wider than ``types``
    is an error naming its record number (``first_record`` is the number
    of ``rows[0]``).
    """
    width = len(types)
    widths = set(map(len, rows))
    if max(widths, default=0) > width:
        offset = next(i for i, row in enumerate(rows) if len(row) > width)
        raise InvalidInputError(
            f"CSV record {first_record + offset} has {len(rows[offset])} "
            f"fields, but only {width} are expected")
    if min(widths, default=width) < width:
        rows = [row + [""] * (width - len(row)) for row in rows]
    return DataChunk([cast_vector(_text_column(rows, index), dtype)
                      for index, dtype in enumerate(types)])


def read_csv_chunks(path: str, types: Sequence[LogicalType],
                    delimiter: str = ",", header: bool = True,
                    chunk_size: int = 8 * VECTOR_SIZE) -> Iterator[DataChunk]:
    """Stream a CSV file as typed chunks of at most ``chunk_size`` rows.

    Records are numbered from 1 in error messages, counting neither the
    header nor blank lines.
    """
    try:
        handle = open(path, "r", newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise InvalidInputError(f"Cannot open CSV file {path!r}: {exc}") from None
    with handle:
        reader = csv.reader(handle, delimiter=delimiter)
        if header:
            next(reader, None)
        records = filter(None, reader)  # blank lines are skipped
        first_record = 1
        while True:
            rows = list(itertools.islice(records, chunk_size))
            if not rows:
                return
            yield _rows_to_chunk(rows, types, first_record)
            first_record += len(rows)
