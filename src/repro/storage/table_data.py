"""In-memory transactional column store backing every base table.

Implements the paper's combined OLAP & ETL storage requirements (§2):

* **column partitioning** -- each column is stored and versioned separately,
  so bulk updates touch only the columns they change;
* **bulk granularity** -- appends, updates, and deletes operate on whole row
  batches with vectorized version checks, not per-row latching;
* **in-place MVCC** -- updates overwrite the master copy immediately and park
  the pre-image in per-column undo buffers (HyPer-style, §6), so OLAP scans
  of the latest snapshot read plain contiguous NumPy arrays;
* **coded strings** -- a VARCHAR column's master copy is ``int32`` codes into
  one append-only per-column :class:`~repro.types.StringDictionary`; scans
  hand the codes out as they are, and undo pre-images are codes too;
* **dirty-range tracking** -- each column remembers which row range changed
  since the last checkpoint, letting the checkpointer skip rewriting
  unchanged columns ("unchanged columns should not be rewritten", §2).
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import InternalError, TransactionConflict
from ..optimizer.statistics import (ColumnStatistics,
                                    compute_column_statistics)
from ..sanitizer import SanRLock, tracked_access
from ..transaction.transaction import Transaction
from ..transaction.undo import DeleteUndo, InsertUndo, UpdateUndo
from ..transaction.version import ABORTED_MARKER, NOT_DELETED, versions_visible
from ..types import (DataChunk, LogicalType, LogicalTypeId, StringDictionary,
                     VECTOR_SIZE, Vector)
from ..types.dictionary import CODE_DTYPE

__all__ = ["ColumnData", "TableData", "SEGMENT_ROWS"]

#: Rows per persisted column segment; also the checkpoint rewrite granularity.
SEGMENT_ROWS = 65536

#: Rows per scan chunk.  A multiple of the standard vector size: the Python
#: interpreter pays a fixed cost per operator invocation, so scans hand out
#: larger chunks than a C++ engine would to keep the per-value overhead low
#: (the same amortization argument as the paper's vectorized execution,
#: tuned for this substrate).
SCAN_CHUNK_ROWS = 8 * VECTOR_SIZE

_INITIAL_CAPACITY = 1024


def _allocate(dtype: LogicalType, capacity: int) -> np.ndarray:
    if dtype.id is LogicalTypeId.VARCHAR:
        return np.zeros(capacity, dtype=CODE_DTYPE)  # code 0 = NULL
    return np.zeros(capacity, dtype=dtype.numpy_dtype)


class ColumnData:
    """One column of a table: master copy, validity, undo chain, dirty range."""

    __slots__ = ("dtype", "table", "data", "dictionary", "validity",
                 "undo_entries", "dirty_lo", "dirty_hi", "persisted_segments",
                 "_zone_cache", "stats")

    def __init__(self, dtype: LogicalType, table: "TableData") -> None:
        self.dtype = dtype
        self.table = table
        self.data = _allocate(dtype, _INITIAL_CAPACITY)
        #: VARCHAR only: what the codes in ``data`` mean.  Grows under the
        #: table lock, is replaced (never rewritten) by :meth:`compact`.
        self.dictionary: Optional[StringDictionary] = \
            StringDictionary(lock=table.lock) \
            if dtype.id is LogicalTypeId.VARCHAR else None
        self.validity = np.zeros(_INITIAL_CAPACITY, dtype=np.bool_)
        #: Chronologically ordered undo entries (pre-images of updates).
        self.undo_entries: List[UpdateUndo] = []
        #: Half-open dirty row range since the last checkpoint (lo > hi = clean).
        self.dirty_lo = 0
        self.dirty_hi = -1
        #: Opaque per-segment persistence info owned by the checkpointer;
        #: entry i describes rows [i*SEGMENT_ROWS, (i+1)*SEGMENT_ROWS).
        self.persisted_segments: list = []
        #: Zonemap: lazily computed (min, max) per scan-chunk window, keyed
        #: on the full ``(start, end)`` window so a tail segment that grows
        #: between calls can never satisfy a wider window from stale cached
        #: bounds.  Lets scans "skip irrelevant blocks of rows" (paper §6).
        #: Invalidated wholesale by any write to the column.
        self._zone_cache: dict = {}
        #: Optimizer summary (min/max/NDV/null count); advisory only.
        self.stats = ColumnStatistics(dtype)

    # -- capacity -----------------------------------------------------------
    def ensure_capacity(self, rows: int) -> None:
        if rows <= len(self.data):
            return
        new_capacity = max(len(self.data) * 2, rows, _INITIAL_CAPACITY)
        new_data = _allocate(self.dtype, new_capacity)
        new_validity = np.zeros(new_capacity, dtype=np.bool_)
        count = self.table.row_count
        new_data[:count] = self.data[:count]
        new_validity[:count] = self.validity[:count]
        self.data = new_data
        self.validity = new_validity

    # -- dirtiness ------------------------------------------------------------
    def mark_dirty(self, lo: int, hi: int) -> None:
        """Record that rows [lo, hi] changed since the last checkpoint."""
        if self.dirty_hi < self.dirty_lo:
            self.dirty_lo, self.dirty_hi = lo, hi
        else:
            self.dirty_lo = min(self.dirty_lo, lo)
            self.dirty_hi = max(self.dirty_hi, hi)
        self._zone_cache.clear()

    def is_dirty(self) -> bool:
        return self.dirty_hi >= self.dirty_lo

    def mark_clean(self) -> None:
        self.dirty_lo, self.dirty_hi = 0, -1

    # -- writes (caller holds the table lock) ----------------------------------
    def _physical(self, vector: Vector) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """``vector``'s values as this column stores them; for VARCHAR also
        the entries they added to the dictionary (all the statistics need)."""
        if self.dictionary is None:
            return vector.data, None
        known = self.dictionary.size
        return vector.encode_into(self.dictionary), self.dictionary.entries(known)

    def write_at(self, row_start: int, vector: Vector) -> None:
        """Install freshly appended values (no undo needed: new rows)."""
        count = len(vector)
        values, new_entries = self._physical(vector)
        self.data[row_start:row_start + count] = values
        self.validity[row_start:row_start + count] = vector.validity
        self.mark_dirty(row_start, row_start + count - 1)
        self.stats.observe_append_locked(values, vector.validity, new_entries)

    def load_segment(self, row_start: int, vector: Vector) -> None:
        """Install checkpointed rows: no statistics (the checkpoint carries
        its own), nothing to mark dirty."""
        values, _ = self._physical(vector)
        self.data[row_start:row_start + len(vector)] = values
        self.validity[row_start:row_start + len(vector)] = vector.validity

    def update(self, transaction: Transaction, rows: np.ndarray, vector: Vector) -> UpdateUndo:
        """In-place update of ``rows`` with undo capture (rows must be sorted)."""
        # Overwritten rows' appended values must reach NDV before they go.
        self.folded_stats()
        old_data = self.data[rows].copy()
        old_validity = self.validity[rows].copy()
        prev_writer = self.table.last_writer[rows].copy()
        undo = UpdateUndo(transaction.transaction_id, self, rows,
                          old_data, old_validity, prev_writer)
        values, new_entries = self._physical(vector)
        self.data[rows] = values
        self.validity[rows] = vector.validity
        self.undo_entries.append(undo)
        self.mark_dirty(int(rows[0]), int(rows[-1]))
        self.stats.observe_update_locked(values, vector.validity, new_entries)
        return undo

    def folded_stats(self) -> ColumnStatistics:
        """The summary, with every stored row's value in its NDV.

        The one fold site: appends leave NDV alone, and every NDV reader
        (the cost model, ``repro_column_stats()``, the checkpoint's
        metadata) comes here first.  The pending rows ``[watermark,
        row_count)`` are read as stored, a segment at a time so temporaries
        stay bounded.  A VARCHAR summary widens from its new dictionary
        entries on append and never has pending rows.
        """
        table = self.table
        with table.lock, tracked_access(("table_data", id(table)), True,
                                        table.lock):
            stats = self.stats
            if self.dictionary is None:
                end = table.row_count
                for start in range(stats.watermark, end, SEGMENT_ROWS):
                    stop = min(start + SEGMENT_ROWS, end)
                    stats.fold_pending_locked(self.data[start:stop],
                                              self.validity[start:stop])
            return stats

    def exact_statistics(self, row_count: int) -> ColumnStatistics:
        """Statistics recomputed from the first ``row_count`` rows."""
        data = self.data[:row_count]
        validity = self.validity[:row_count]
        return compute_column_statistics(
            data, validity, self.dtype,
            None if self.dictionary is None
            else self.dictionary.take(np.unique(data[validity])))

    def set_writer(self, rows: np.ndarray, version: int) -> None:
        """Flip the last-writer tags of ``rows`` (commit-time)."""
        self.table.last_writer[rows] = version

    def rollback_update(self, undo: UpdateUndo) -> None:
        """Re-install the pre-image and restore previous writer tags."""
        with self.table.lock:
            self.data[undo.rows] = undo.old_data
            self.validity[undo.rows] = undo.old_validity
            self.table.last_writer[undo.rows] = undo.prev_writer
            self.remove_undo(undo)

    def remove_undo(self, undo: UpdateUndo) -> None:
        """Detach a no-longer-needed undo entry (GC or rollback)."""
        try:
            self.undo_entries.remove(undo)
        except ValueError:
            pass  # already detached

    # -- reads ------------------------------------------------------------------
    def fetch_range(self, start: int, end: int, transaction: Transaction,
                    zero_copy: bool = False) -> Vector:
        """Rows [start, end) as seen by ``transaction``'s snapshot.

        Starts from the master copy and walks the undo chain newest-to-oldest,
        re-installing pre-images of every version the snapshot must not see.

        The returned vector is a *copy* of the master data by default: the
        engine updates columns in place (HyPer-style MVCC), so a view would
        retroactively change under the reader if a concurrent transaction
        updated these rows after the fetch.  ``zero_copy=True`` skips the
        copy and is only used when the caller guarantees no concurrent
        writers for the lifetime of the vector (e.g. the bulk client API on
        a quiesced database).
        """
        data = self.data[start:end]
        validity = self.validity[start:end]
        if not zero_copy:
            data = data.copy()
            validity = validity.copy()
        invisible = [
            undo for undo in self.undo_entries
            if not (undo.version == transaction.transaction_id
                    or undo.version <= transaction.start_time)
        ]
        if invisible:
            copied = not zero_copy
            for undo in reversed(invisible):
                lo = int(np.searchsorted(undo.rows, start))
                hi = int(np.searchsorted(undo.rows, end))
                if lo >= hi:
                    continue
                if not copied:
                    data = data.copy()
                    validity = validity.copy()
                    copied = True
                positions = undo.rows[lo:hi] - start
                data[positions] = undo.old_data[lo:hi]
                validity[positions] = undo.old_validity[lo:hi]
        if self.dictionary is not None:
            return Vector.from_codes(data, self.dictionary, validity)
        return Vector(self.dtype, data, validity)

    def undo_memory(self) -> int:
        return sum(entry.nbytes() for entry in self.undo_entries)

    # -- zonemap ----------------------------------------------------------------
    def zone_bounds(self, start: int, end: int):
        """(min, max) over the *current* values of rows [start, end), or None.

        Only usable when snapshot reconstruction cannot matter: any live
        undo entry disables the zonemap for this column, because an older
        snapshot may need pre-image values outside the current bounds.
        (Invisible inserted rows merely *widen* the bounds; deleted rows
        keep their values -- both conservative, both safe.)
        """
        if self.dtype.id is LogicalTypeId.VARCHAR or \
                self.dtype.id is LogicalTypeId.BOOLEAN:
            return None
        with self.table.lock:
            if self.undo_entries:
                return None
            cached = self._zone_cache.get((start, end))
            if cached is not None:
                return cached
            window = self.data[start:end]
            if window.size == 0:
                return None
            # NULL slots hold zeros; including them only widens the bounds,
            # which keeps skipping conservative.
            bounds = (window.min(), window.max())
            self._zone_cache[(start, end)] = bounds
            return bounds


class TableData:
    """Versioned storage of one table: columns plus row-version arrays."""

    def __init__(self, types: Sequence[LogicalType]) -> None:
        self.lock = SanRLock("table_data")
        self.row_count = 0
        self.columns: List[ColumnData] = [ColumnData(dtype, self) for dtype in types]
        self.inserted_by = np.zeros(_INITIAL_CAPACITY, dtype=np.int64)
        self.deleted_by = np.zeros(_INITIAL_CAPACITY, dtype=np.int64)
        self.last_writer = np.zeros(_INITIAL_CAPACITY, dtype=np.int64)
        #: True when rows were deleted/aborted since the last checkpoint, which
        #: forces compaction (and hence a full rewrite) at checkpoint time.
        self.needs_compaction = False

    @property
    def types(self) -> List[LogicalType]:
        return [column.dtype for column in self.columns]

    # -- capacity ---------------------------------------------------------------
    def _ensure_capacity(self, rows: int) -> None:
        if rows > len(self.inserted_by):
            new_capacity = max(len(self.inserted_by) * 2, rows)
            for name in ("inserted_by", "deleted_by", "last_writer"):
                old = getattr(self, name)
                grown = np.zeros(new_capacity, dtype=np.int64)
                grown[: self.row_count] = old[: self.row_count]
                setattr(self, name, grown)
        for column in self.columns:
            column.ensure_capacity(rows)

    # -- writes -------------------------------------------------------------------
    def append_chunk(self, transaction: Transaction, chunk: DataChunk) -> int:
        """Bulk-append a chunk; returns the first physical row id."""
        if chunk.column_count != len(self.columns):
            raise InternalError(
                f"append of {chunk.column_count} columns into "
                f"{len(self.columns)}-column table"
            )
        with self.lock, tracked_access(("table_data", id(self)), True,
                                       self.lock):
            start = self.row_count
            count = chunk.size
            self._ensure_capacity(start + count)
            for column, vector in zip(self.columns, chunk.columns):
                if vector.dtype != column.dtype:
                    raise InternalError(
                        f"append type mismatch: {vector.dtype} into {column.dtype}"
                    )
                column.write_at(start, vector)
            self.inserted_by[start:start + count] = transaction.transaction_id
            self.deleted_by[start:start + count] = NOT_DELETED
            self.last_writer[start:start + count] = 0
            self.row_count = start + count
            transaction.record_insert(InsertUndo(self, start, count))
            return start

    def _check_write_conflict(self, transaction: Transaction, rows: np.ndarray) -> None:
        """First-writer-wins: raise if another transaction already wrote rows.

        A conflicting writer is any version tag newer than our snapshot that
        is not our own id -- i.e. either still in flight or committed after we
        started (HyPer's serializable write rule).
        """
        writers = self.last_writer[rows]
        conflicts = (writers > transaction.start_time) & (writers != transaction.transaction_id)
        if conflicts.any():
            raise TransactionConflict(
                "write-write conflict: row was modified by a concurrent transaction"
            )
        deleters = self.deleted_by[rows]
        conflicts = ((deleters != NOT_DELETED)
                     & (deleters > transaction.start_time)
                     & (deleters != transaction.transaction_id))
        if conflicts.any():
            raise TransactionConflict(
                "write-write conflict: row was deleted by a concurrent transaction"
            )

    def delete_rows(self, transaction: Transaction, rows: np.ndarray) -> int:
        """Tombstone ``rows`` for this transaction; returns the delete count."""
        if rows.size == 0:
            return 0
        rows = np.sort(rows.astype(np.int64))
        with self.lock, tracked_access(("table_data", id(self)), True,
                                       self.lock):
            self._check_write_conflict(transaction, rows)
            # Skip rows this transaction already deleted (idempotent bulk delete).
            fresh = rows[self.deleted_by[rows] != transaction.transaction_id]
            if fresh.size == 0:
                return 0
            prev_writer = self.last_writer[fresh].copy()
            self.deleted_by[fresh] = transaction.transaction_id
            self.last_writer[fresh] = transaction.transaction_id
            self.needs_compaction = True
            for column in self.columns:
                column.stats.mark_stale_locked()
            transaction.record_delete(DeleteUndo(self, fresh, prev_writer))
            return int(fresh.size)

    def update_rows(self, transaction: Transaction, rows: np.ndarray,
                    column_indices: Sequence[int], chunk: DataChunk) -> int:
        """Bulk in-place update of selected columns at ``rows``.

        ``chunk`` carries one vector per entry of ``column_indices``, aligned
        with ``rows``.  Only the named columns are versioned and marked dirty;
        untouched columns keep their segments (paper §2).
        """
        if rows.size == 0:
            return 0
        order = np.argsort(rows, kind="stable")
        rows = rows[order].astype(np.int64)
        with self.lock, tracked_access(("table_data", id(self)), True,
                                       self.lock):
            self._check_write_conflict(transaction, rows)
            for column_index, vector in zip(column_indices, chunk.columns):
                column = self.columns[column_index]
                ordered = vector.slice(order)
                undo = column.update(transaction, rows, ordered)
                transaction.record_update(undo)
            self.last_writer[rows] = transaction.transaction_id
            transaction.modified_tables.add(self)
            return int(rows.size)

    # -- reads ------------------------------------------------------------------
    def visible_mask(self, transaction: Transaction, start: int, end: int) -> np.ndarray:
        """Boolean mask over [start, end): rows visible to the snapshot."""
        inserted = self.inserted_by[start:end]
        deleted = self.deleted_by[start:end]
        visible = versions_visible(inserted, transaction.transaction_id,
                                   transaction.start_time)
        visible &= inserted != ABORTED_MARKER
        tombstoned = deleted != NOT_DELETED
        if tombstoned.any():
            deleted_visible = tombstoned & versions_visible(
                deleted, transaction.transaction_id, transaction.start_time
            )
            visible &= ~deleted_visible
        return visible

    def morsel_ranges(self, morsel_rows: int = SEGMENT_ROWS) -> List[Tuple[int, int]]:
        """Half-open ``[start, end)`` row ranges for morsel-driven scans.

        Morsel boundaries are aligned to :data:`SCAN_CHUNK_ROWS` so a scan
        restricted to one morsel fetches exactly the same chunk windows a
        full serial scan would -- zonemap lookups and chunk contents stay
        bit-identical, only the degree of parallelism changes.
        """
        step = max(SCAN_CHUNK_ROWS,
                   (morsel_rows // SCAN_CHUNK_ROWS) * SCAN_CHUNK_ROWS)
        with self.lock:
            total = self.row_count
        return [(start, min(start + step, total))
                for start in range(0, total, step)]

    def scan(self, transaction: Transaction,
             column_indices: Optional[Sequence[int]] = None,
             chunk_size: int = SCAN_CHUNK_ROWS,
             with_row_ids: bool = False,
             range_predicate=None,
             start_row: int = 0,
             end_row: Optional[int] = None) -> Iterator:
        """Vector Volcano scan: yield chunks of rows visible to the snapshot.

        With ``with_row_ids`` each item is ``(chunk, row_ids)`` where
        ``row_ids`` are the physical rows backing the chunk (used by UPDATE
        and DELETE to address their targets).

        ``range_predicate(start, end)`` -- when provided -- is consulted per
        row range *before* any column data is fetched; returning False skips
        the range entirely (zonemap scan skipping, paper §6).

        ``start_row``/``end_row`` restrict the scan to a physical row range
        (morsel-driven parallel scans hand disjoint ranges to workers).
        """
        if column_indices is None:
            column_indices = range(len(self.columns))
        column_indices = list(column_indices)
        with self.lock:
            total = self.row_count
        if end_row is not None:
            total = min(total, end_row)
        for start in range(start_row, total, chunk_size):
            end = min(start + chunk_size, total)
            if range_predicate is not None and not range_predicate(start, end):
                continue
            with self.lock, tracked_access(("table_data", id(self)), False,
                                           self.lock):
                mask = self.visible_mask(transaction, start, end)
                if not mask.any():
                    continue
                vectors = [
                    self.columns[index].fetch_range(start, end, transaction)
                    for index in column_indices
                ]
            all_visible = bool(mask.all())
            if all_visible:
                chunk = DataChunk(vectors)
            else:
                chunk = DataChunk([vector.slice(mask) for vector in vectors])
            if with_row_ids:
                if all_visible:
                    row_ids = np.arange(start, end, dtype=np.int64)
                else:
                    row_ids = start + np.flatnonzero(mask).astype(np.int64)
                yield chunk, row_ids
            else:
                yield chunk

    def count_visible(self, transaction: Transaction) -> int:
        """Number of rows visible to the snapshot (used by COUNT(*) fast path)."""
        with self.lock:
            total = self.row_count
            if total == 0:
                return 0
            mask = self.visible_mask(transaction, 0, total)
            return int(np.count_nonzero(mask))

    # -- checkpoint support ----------------------------------------------------
    def compact(self, keep_mask: np.ndarray) -> None:
        """Physically drop rows not in ``keep_mask``.

        Only legal when no transaction other than the checkpointer is active;
        the storage manager guarantees that.  Undo chains must be empty.
        """
        with self.lock, tracked_access(("table_data", id(self)), True,
                                       self.lock):
            for column in self.columns:
                if column.undo_entries:
                    raise InternalError("compact with live undo entries")
            keep = np.flatnonzero(keep_mask)
            new_count = int(keep.size)
            for column in self.columns:
                column.data = column.data[keep].copy()
                column.validity = column.validity[keep].copy()
                if column.dictionary is not None:
                    # Drop entries no surviving row references.  A new
                    # object, so vectors and result sets still holding the
                    # old dictionary keep resolving their codes.
                    column.dictionary, column.data = \
                        column.dictionary.referenced(column.data, self.lock)
                if new_count:
                    column.mark_dirty(0, new_count - 1)
                else:
                    # Nothing survived: there is no row 0 to dirty.  The
                    # zone cache still describes the dropped rows, so it
                    # must be cleared even without a dirty range.
                    column.mark_clean()
                    column._zone_cache.clear()
                column.stats = column.exact_statistics(new_count)
            self.inserted_by = np.zeros(max(new_count, _INITIAL_CAPACITY), dtype=np.int64)
            self.deleted_by = np.zeros(max(new_count, _INITIAL_CAPACITY), dtype=np.int64)
            self.last_writer = np.zeros(max(new_count, _INITIAL_CAPACITY), dtype=np.int64)
            self.row_count = new_count
            for column in self.columns:
                column.ensure_capacity(max(new_count, _INITIAL_CAPACITY))
            self.needs_compaction = False

    def memory_usage(self) -> int:
        """Approximate resident bytes of this table (data + versions + undo)."""
        with self.lock:
            total = self.inserted_by.nbytes + self.deleted_by.nbytes + self.last_writer.nbytes
            for column in self.columns:
                total += column.data.nbytes
                if column.dictionary is not None:
                    total += column.dictionary.nbytes()
                total += column.validity.nbytes
                total += column.undo_memory()
            return total
