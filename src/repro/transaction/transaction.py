"""The transaction object: snapshot, undo logs, and commit/rollback logic."""

from __future__ import annotations

import enum
from typing import Any, List, Optional, TYPE_CHECKING

import numpy as np

from ..errors import InternalError, TransactionContextError
from .undo import DeleteUndo, InsertUndo, UpdateUndo
from .version import ABORTED_MARKER, NOT_DELETED

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from .manager import TransactionManager

__all__ = ["Transaction", "TransactionState"]


class TransactionState(enum.Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


class Transaction:
    """A single MVCC transaction.

    A transaction sees the database as of ``start_time`` (plus its own
    writes).  All of its modifications are tagged with ``transaction_id``;
    commit atomically rewrites those tags to the assigned commit id, making
    the writes visible to transactions that start later.
    """

    def __init__(self, manager: "TransactionManager", transaction_id: int,
                 start_time: int) -> None:
        self._manager = manager
        self.transaction_id = transaction_id
        self.start_time = start_time
        self.state = TransactionState.ACTIVE
        self.commit_id: Optional[int] = None
        #: Undo records, in the order the writes happened.
        self.insert_log: List[InsertUndo] = []
        self.delete_log: List[DeleteUndo] = []
        self.update_log: List[UpdateUndo] = []
        #: Catalog modifications: (entry, action) with action in {create, drop}.
        self.catalog_log: List[tuple] = []
        #: Logical WAL records to persist on commit (storage layer fills this).
        self.wal_records: List[Any] = []
        #: Tables whose data this transaction modified (for checkpoint dirtiness).
        self.modified_tables: set = set()
        #: The manager's data version when this transaction began -- the
        #: result cache keys read-only snapshots on it (unlike commit ids,
        #: it only advances when a commit actually wrote something).
        self.start_data_version = 0

    # -- state guards -----------------------------------------------------
    @property
    def is_active(self) -> bool:
        return self.state is TransactionState.ACTIVE

    def check_active(self) -> None:
        if self.state is not TransactionState.ACTIVE:
            raise TransactionContextError(
                f"Transaction is {self.state.value}; no further operations allowed"
            )

    def has_writes(self) -> bool:
        return bool(self.insert_log or self.delete_log or self.update_log
                    or self.catalog_log)

    # -- record keeping (called by storage/catalog layers) -----------------
    def record_insert(self, undo: InsertUndo) -> None:
        self.check_active()
        self.insert_log.append(undo)
        self.modified_tables.add(undo.table)

    def record_delete(self, undo: DeleteUndo) -> None:
        self.check_active()
        self.delete_log.append(undo)
        self.modified_tables.add(undo.table)

    def record_update(self, undo: UpdateUndo) -> None:
        self.check_active()
        self.update_log.append(undo)

    def record_catalog(self, entry: Any, action: str) -> None:
        self.check_active()
        if action not in ("create", "drop"):
            raise InternalError(f"Unknown catalog action {action!r}")
        self.catalog_log.append((entry, action))

    def undo_memory(self) -> int:
        """Approximate bytes held in update undo buffers."""
        return sum(entry.nbytes() for entry in self.update_log)

    # -- commit / rollback internals (driven by TransactionManager) --------
    def apply_commit(self, commit_id: int) -> None:
        """Rewrite all version tags from the transaction id to ``commit_id``.

        Called by the manager with the global commit lock held.
        """
        self.commit_id = commit_id
        for insert in self.insert_log:
            table = insert.table
            rows = slice(insert.start_row, insert.start_row + insert.count)
            table.inserted_by[rows] = commit_id
        for delete in self.delete_log:
            delete.table.deleted_by[delete.rows] = commit_id
            delete.table.last_writer[delete.rows] = commit_id
        for update in self.update_log:
            update.version = commit_id
            update.column.set_writer(update.rows, commit_id)
        for entry, action in self.catalog_log:
            if action == "create":
                entry.created_by = commit_id
            else:
                entry.dropped_by = commit_id
        self.state = TransactionState.COMMITTED

    def apply_rollback(self) -> None:
        """Undo every modification, newest first."""
        # Updates: restore pre-images and unhook the undo entries.
        for update in reversed(self.update_log):
            update.column.rollback_update(update)
        # Deletes: clear the tombstones and restore the previous writer tag.
        for delete in reversed(self.delete_log):
            delete.table.deleted_by[delete.rows] = NOT_DELETED
            delete.table.last_writer[delete.rows] = delete.prev_writer
        # Inserts: the rows stay physically present but become invisible to
        # everyone; the next checkpoint must compact them away, or they
        # would resurrect on reload (checkpoint-loaded rows are pre-history,
        # visible to all).
        for insert in reversed(self.insert_log):
            table = insert.table
            rows = slice(insert.start_row, insert.start_row + insert.count)
            table.inserted_by[rows] = ABORTED_MARKER
            table.needs_compaction = True
            with table.lock:
                for column in table.columns:
                    column.stats.mark_stale_locked()
        for entry, action in reversed(self.catalog_log):
            if action == "create":
                entry.created_by = ABORTED_MARKER
            else:
                entry.dropped_by = None
        self.state = TransactionState.ABORTED

    def __repr__(self) -> str:
        return (f"Transaction(id={self.transaction_id}, start={self.start_time}, "
                f"state={self.state.value})")
