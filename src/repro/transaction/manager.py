"""Transaction manager: begins, commits, aborts, and garbage-collects.

Lock-free in spirit, lock-based in implementation: the paper's argument for
MVCC is that long-running OLAP queries must not block concurrent ETL writers
(§2, dashboard scenario).  Readers here never take the commit lock -- they
only capture a snapshot timestamp at begin; the short critical sections below
serialize only begin/commit bookkeeping, not query execution.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from ..errors import Error, InternalError, TransactionContextError, TransactionError
from ..sanitizer import SanLock
from .transaction import Transaction, TransactionState
from .version import TRANSACTION_ID_START

__all__ = ["TransactionManager"]


class TransactionManager:
    """Hands out transactions and assigns commit timestamps."""

    def __init__(self) -> None:
        self._lock = SanLock("transaction_manager")
        # Commit timestamps start at 1; 0 is reserved for "pre-history"
        # (bootstrap catalog entries and checkpoint-loaded data).
        self._last_commit_id = 1
        self._next_transaction_id = TRANSACTION_ID_START
        #: Bumped only by commits that wrote data or catalog entries --
        #: unlike ``_last_commit_id`` (which advances on every commit,
        #: including read-only autocommits), this is a stable cache key:
        #: the result cache keys entries on it.
        self._data_version = 0
        #: Bumped only by commits that carry catalog (DDL) changes; the
        #: plan cache invalidates on it.
        self._catalog_version = 0
        self._active: Dict[int, Transaction] = {}
        #: Callbacks run (under the commit lock) with each committing
        #: transaction, before its tags flip -- the WAL hooks in here.
        self.pre_commit_hooks: List[Callable[[Transaction, int], None]] = []
        #: Callbacks run (under the commit lock) after a commit that
        #: dropped a catalog entry, with the oldest snapshot still in use:
        #: the catalog prunes here, so a database that never checkpoints
        #: (in-memory) still lets go of dropped tables.
        self.drop_commit_hooks: List[Callable[[int], None]] = []
        #: Committed transactions whose undo buffers may still be needed by
        #: older active snapshots; cleaned up as snapshots advance.
        self._retired: List[Transaction] = []

    # -- lifecycle ----------------------------------------------------------
    def begin(self) -> Transaction:
        """Start a transaction whose snapshot is "everything committed so far"."""
        with self._lock:
            transaction = Transaction(self, self._next_transaction_id, self._last_commit_id)
            transaction.start_data_version = self._data_version
            self._next_transaction_id += 1
            self._active[transaction.transaction_id] = transaction
            return transaction

    def commit(self, transaction: Transaction) -> int:
        """Commit: assign a commit id, flip version tags, run WAL hooks."""
        transaction.check_active()
        with self._lock:
            commit_id = self._last_commit_id + 1
            # Capture before apply_commit: the hooks and tag flips must not
            # be able to perturb what "this transaction wrote".
            wrote_data = transaction.has_writes()
            wrote_catalog = bool(transaction.catalog_log)
            try:
                for hook in self.pre_commit_hooks:
                    hook(transaction, commit_id)
            except Error:
                # A failed WAL write must not leave a half-committed state;
                # engine errors (WALError, ...) already carry context.
                del self._active[transaction.transaction_id]
                transaction.apply_rollback()
                raise
            except Exception as exc:
                del self._active[transaction.transaction_id]
                transaction.apply_rollback()
                raise TransactionError(
                    f"pre-commit hook failed for transaction "
                    f"{transaction.transaction_id} (rolled back): {exc}"
                ) from exc
            # Flip all version tags BEFORE publishing the new commit id:
            # a reader that begins mid-flip must snapshot the previous commit
            # id, under which both the old (transaction-id) and the new
            # (commit-id) tags are invisible -- no torn reads.
            transaction.apply_commit(commit_id)
            self._last_commit_id = commit_id
            if wrote_data:
                self._data_version += 1
            if wrote_catalog:
                self._catalog_version += 1
            del self._active[transaction.transaction_id]
            if transaction.update_log:
                self._retired.append(transaction)
            self._vacuum_locked()
            if any(action == "drop" for _, action in transaction.catalog_log):
                oldest = self._lowest_active_start_locked()
                for hook in self.drop_commit_hooks:
                    hook(oldest)
            return commit_id

    def rollback(self, transaction: Transaction) -> None:
        """Abort: restore all pre-images and drop the transaction."""
        transaction.check_active()
        with self._lock:
            transaction.apply_rollback()
            del self._active[transaction.transaction_id]
            self._vacuum_locked()

    def run_quiesced(self, work: Callable[[Transaction], Any]) -> Any:
        """Run ``work(bootstrap)`` while the engine is provably quiescent.

        The manager lock is held for the entire call: no transaction can
        begin, commit, or roll back while *work* runs.  Checkpoints need
        exactly this -- checking ``active_count() == 0`` and *then* writing
        the snapshot leaves a window in which a fresh transaction commits
        between the snapshot and the WAL truncation, losing its log records
        (and racing the WAL file handle).  Raises
        :class:`TransactionContextError` when any transaction is active.

        *work* may only descend the lock hierarchy (catalog, table data,
        buffer manager); it must not call back into the manager's locking
        methods.
        """
        with self._lock:
            if self._active:
                raise TransactionContextError(
                    "Cannot CHECKPOINT while other transactions are active"
                )
            bootstrap = Transaction(self, self._next_transaction_id,
                                    self._last_commit_id)
            self._next_transaction_id += 1
            self._active[bootstrap.transaction_id] = bootstrap
            try:
                return work(bootstrap)
            finally:
                if bootstrap.is_active:
                    bootstrap.apply_rollback()
                self._active.pop(bootstrap.transaction_id, None)
                self._vacuum_locked()

    # -- snapshot bookkeeping -------------------------------------------------
    @property
    def data_version(self) -> int:
        """Monotonic count of commits that wrote data or catalog entries.

        Read lock-free (a single int load): the caches use it as a key, and
        a racing read merely classifies the reader as having arrived just
        before/after a concurrent commit -- both orders are serializable.
        """
        return self._data_version

    @property
    def catalog_version(self) -> int:
        """Monotonic count of commits that changed the catalog (DDL)."""
        return self._catalog_version

    def active_count(self) -> int:
        with self._lock:
            return len(self._active)

    def lowest_active_start(self) -> int:
        """Oldest snapshot still in use (== last commit id if none active)."""
        with self._lock:
            return self._lowest_active_start_locked()

    def snapshot_active(self) -> List[dict]:
        """Plain-data summaries of the active transactions, id order.

        Copy-then-release (the introspection discipline): every field is
        extracted while ``_lock`` is held, and the returned dicts share no
        mutable state with the live transactions.
        """
        with self._lock:
            return [
                {
                    "transaction_id": txn.transaction_id,
                    "start_time": txn.start_time,
                    "state": txn.state.value,
                    "has_writes": txn.has_writes(),
                    "wal_records": len(txn.wal_records),
                    "modified_tables": len(txn.modified_tables),
                }
                for _, txn in sorted(self._active.items())
            ]

    def _lowest_active_start_locked(self) -> int:
        if not self._active:
            return self._last_commit_id
        return min(txn.start_time for txn in self._active.values())

    def _vacuum_locked(self) -> None:
        """Drop undo buffers no active snapshot can still need.

        An update undo entry with commit id ``v`` is needed only by snapshots
        with ``start_time < v``; once every active transaction started at or
        after ``v``, the pre-image is garbage.
        """
        threshold = self._lowest_active_start_locked()
        remaining = []
        for transaction in self._retired:
            if transaction.commit_id is not None and transaction.commit_id <= threshold:
                for update in transaction.update_log:
                    update.column.remove_undo(update)
            else:
                remaining.append(transaction)
        self._retired = remaining

    def retired_undo_memory(self) -> int:
        """Bytes of committed-but-unreclaimed undo buffers (for monitoring)."""
        with self._lock:
            return sum(txn.undo_memory() for txn in self._retired)
