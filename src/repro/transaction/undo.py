"""Undo buffer entries for in-place MVCC updates.

The paper (§6): *"This variant updates data in-place immediately, and keeps
previous states stored in a separate undo buffer for concurrent transactions
and aborts."*  An :class:`UpdateUndo` captures, for one column of one table,
the pre-image of the rows a transaction overwrote.  Readers whose snapshot
must not see the write apply the pre-image on top of the current data;
rollback re-installs it permanently.
"""

from __future__ import annotations

from typing import Any

import numpy as np

__all__ = ["UpdateUndo", "DeleteUndo", "InsertUndo"]


class UpdateUndo:
    """Pre-image of an in-place column update.

    Attributes
    ----------
    version:
        The writer's version tag.  Starts as the transaction id; rewritten to
        the commit id when the writer commits.
    column:
        The :class:`~repro.storage.table_data.ColumnData` that was updated.
    rows:
        Sorted int64 array of physical row indices that were overwritten.
    old_data / old_validity:
        The values (dictionary codes for VARCHAR) and validity bits those
        rows held before the update.
    prev_writer:
        Per-row version tags of the previous writers (restored on rollback so
        conflict detection keeps working after an abort).
    """

    __slots__ = ("version", "column", "rows", "old_data", "old_validity", "prev_writer")

    def __init__(self, version: int, column: Any, rows: np.ndarray,
                 old_data: np.ndarray, old_validity: np.ndarray,
                 prev_writer: np.ndarray) -> None:
        self.version = version
        self.column = column
        self.rows = rows
        self.old_data = old_data
        self.old_validity = old_validity
        self.prev_writer = prev_writer

    def nbytes(self) -> int:
        """Approximate memory held by this undo entry."""
        return (self.rows.nbytes + self.old_validity.nbytes
                + self.prev_writer.nbytes + self.old_data.nbytes)


class DeleteUndo:
    """Record of rows a transaction marked deleted (for rollback/commit)."""

    __slots__ = ("table", "rows", "prev_writer")

    def __init__(self, table: Any, rows: np.ndarray, prev_writer: np.ndarray) -> None:
        self.table = table
        self.rows = rows
        self.prev_writer = prev_writer


class InsertUndo:
    """Record of a contiguous range of rows a transaction appended."""

    __slots__ = ("table", "start_row", "count")

    def __init__(self, table: Any, start_row: int, count: int) -> None:
        self.table = table
        self.start_row = start_row
        self.count = count
