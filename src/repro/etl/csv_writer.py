"""CSV export (``COPY ... TO 'file.csv'``)."""

from __future__ import annotations

import csv
from typing import Iterable, List, Sequence

import numpy as np

from ..errors import InvalidInputError
from ..types import DataChunk, VARCHAR, Vector, cast_vector

__all__ = ["write_csv"]


def write_csv(path: str, chunks: Iterable[DataChunk], names: Sequence[str],
              delimiter: str = ",", header: bool = True,
              null_string: str = "") -> int:
    """Write chunks to a CSV file; returns the number of rows written.

    Values are rendered through the engine's VARCHAR cast so that output
    text round-trips through the CSV reader (ISO dates, ``true``/``false``
    booleans, ``repr`` floats).
    """
    rows_written = 0
    try:
        handle = open(path, "w", newline="", encoding="utf-8")
    except OSError as exc:
        raise InvalidInputError(f"Cannot open {path!r} for writing: {exc}") from None
    with handle:
        writer = csv.writer(handle, delimiter=delimiter)
        if header:
            writer.writerow(list(names))
        for chunk in chunks:
            if chunk.size == 0:
                continue
            writer.writerows(zip(*(_column_text(column, null_string)
                                   for column in chunk.columns)))
            rows_written += chunk.size
    return rows_written


def _column_text(column: Vector, null_string: str) -> List[str]:
    """One column's CSV fields, rendered at once (NULL -> ``null_string``)."""
    column = cast_vector(column, VARCHAR)
    texts = column.data
    if not column.all_valid():
        texts = np.where(column.validity, texts, null_string)
    return texts.tolist()
