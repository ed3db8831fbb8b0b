"""In-memory transactional column store backing every base table.

Implements the paper's combined OLAP & ETL storage requirements (§2):

* **column partitioning** -- each column is stored and versioned separately,
  so bulk updates touch only the columns they change;
* **bulk granularity** -- appends, updates, and deletes operate on whole row
  batches with vectorized version checks, not per-row latching;
* **in-place MVCC** -- updates overwrite the master copy immediately and park
  the pre-image in per-column undo buffers (HyPer-style, §6), so OLAP scans
  of the latest snapshot read plain contiguous NumPy arrays;
* **zero-copy reads, copy-on-write** -- scans hand out read-only views of
  the master arrays, and the in-place writers copy a column first while a
  view of it is alive (:meth:`ColumnData._unshare`);
* **coded strings** -- a VARCHAR column's master copy is ``int32`` codes into
  one append-only per-column :class:`~repro.types.StringDictionary`; scans
  hand the codes out as they are, and undo pre-images are codes too;
* **dirty-range tracking** -- each column remembers which row range changed
  since the last checkpoint, letting the checkpointer skip rewriting
  unchanged columns ("unchanged columns should not be rewritten", §2).
"""

from __future__ import annotations

import sys
from types import SimpleNamespace
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import InternalError, TransactionConflict
from ..optimizer.statistics import (ColumnStatistics,
                                    compute_column_statistics)
from ..sanitizer import SanRLock, tracked_access
from ..transaction.transaction import Transaction
from ..transaction.undo import DeleteUndo, InsertUndo, UpdateUndo
from ..transaction.version import ABORTED_MARKER, NOT_DELETED, versions_visible
from ..types import (BIGINT, DataChunk, LogicalType, LogicalTypeId,
                     StringDictionary, VECTOR_SIZE, Vector)
from ..types.dictionary import CODE_DTYPE

__all__ = ["ColumnData", "TableData", "SEGMENT_ROWS", "ROW_ID_COLUMN",
           "SCAN_CHUNK_ROWS", "aligned_morsel_rows"]

#: Rows per persisted column segment; also the checkpoint rewrite granularity.
SEGMENT_ROWS = 65536

#: The column id that reads a table's physical row ids in a scan's column
#: list (DuckDB's ``COLUMN_IDENTIFIER_ROW_ID``).  Beyond any real column and
#: not negative, so it never aliases ``columns[-1]``: every reader of scan
#: column ids checks for it.  Only DML source plans scan it.
ROW_ID_COLUMN = 2 ** 64 - 1

#: Rows per scan chunk: the unit a scan prunes by zone map and bills as
#: ``rows_scanned``, and the most rows one streamed ``fetch_chunk`` hands a
#: client.  A multiple of the standard vector size.  A scan *fetches* in
#: larger batches (see :meth:`TableData.scan`): the Python interpreter pays
#: a fixed cost per fetch and per operator invocation, so each run of
#: surviving chunks in a morsel is read at once (the amortization argument
#: of the paper's vectorized execution, tuned for this substrate).
SCAN_CHUNK_ROWS = 8 * VECTOR_SIZE


def aligned_morsel_rows(morsel_rows: int) -> int:
    """``morsel_rows`` rounded down to whole scan chunks, at least one.

    The one alignment rule for morsels (:meth:`TableData.morsel_ranges`)
    and for a scan's batch windows, so an aggregate's morsel fragments read
    exactly the batches a whole-table scan reads there.
    """
    return max(SCAN_CHUNK_ROWS,
               int(morsel_rows) // SCAN_CHUNK_ROWS * SCAN_CHUNK_ROWS)


_INITIAL_CAPACITY = 1024


def shared(array: np.ndarray) -> bool:
    """True while anything besides its owning attribute holds ``array``: a
    NumPy view holds its base, so any live view of a column counts."""
    return sys.getrefcount(array) > _OWNED_REFERENCES


def _references(array: np.ndarray) -> int:  # shared()'s count, frame for frame
    return sys.getrefcount(array)


def _owned_references() -> int:
    """What :func:`shared` counts for an array only one attribute holds;
    measured, because interpreters count stack references differently."""
    owner = SimpleNamespace(data=np.zeros(1))
    return _references(owner.data)


_OWNED_REFERENCES = _owned_references()


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
        undo = UpdateUndo(transaction.transaction_id, self, rows,
                          self.data[rows], self.validity[rows],
                          self.table.last_writer[rows])
        values, new_entries = self._physical(vector)
        self._unshare()
        self.data[rows] = values
        self.validity[rows] = vector.validity
        self.undo_entries.append(undo)
        self.mark_dirty(int(rows[0]), int(rows[-1]))
        self.stats.observe_update_locked(values, vector.validity, new_entries)
        return undo

    def _unshare(self) -> None:
        """Copy-on-write before an in-place write (``update`` and
        ``rollback_update``; appends write only rows past every reader's
        ``row_count``, compaction and growth build new arrays)."""
        if shared(self.data):
            self.data = self.data.copy()  # quacklint: disable=QLZ001 -- copy-on-write: a reader still holds a view of the old array
        if shared(self.validity):
            self.validity = self.validity.copy()  # quacklint: disable=QLZ001 -- copy-on-write: a reader still holds a view of the old array

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
            self._unshare()
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
    def fetch_range(self, start: int, end: int,
                    transaction: Transaction) -> Vector:
        """Rows [start, end) as seen by ``transaction``'s snapshot.

        Read-only views of the master arrays (:meth:`_unshare` keeps them
        valid), unless an undo entry the snapshot must not see touches the
        range: then a copy with the pre-images re-installed newest first.
        """
        data = self.data[start:end]
        validity = self.validity[start:end]
        copied = False
        for undo in reversed(self.undo_entries):
            if undo.version == transaction.transaction_id \
                    or undo.version <= transaction.start_time:
                continue
            lo = int(np.searchsorted(undo.rows, start))
            hi = int(np.searchsorted(undo.rows, end))
            if lo >= hi:
                continue
            if not copied:
                data = data.copy()  # quacklint: disable=QLZ001 -- the snapshot needs pre-images re-installed
                validity = validity.copy()  # quacklint: disable=QLZ001 -- the snapshot needs pre-images re-installed
                copied = True
            positions = undo.rows[lo:hi] - start
            data[positions] = undo.old_data[lo:hi]
            validity[positions] = undo.old_validity[lo:hi]
        if not copied:
            data.flags.writeable = False
            validity.flags.writeable = False
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
            prev_writer = self.last_writer[fresh]
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

        Morsel boundaries follow :func:`aligned_morsel_rows`, the rule that
        also cuts a scan's batch windows, so a scan restricted to one
        morsel fetches exactly the batches a whole-table scan fetches there
        -- zonemap lookups and batch contents stay bit-identical, only the
        degree of parallelism changes.
        """
        step = aligned_morsel_rows(morsel_rows)
        with self.lock:
            total = self.row_count
        return [(start, min(start + step, total))
                for start in range(0, total, step)]

    def scan(self, transaction: Transaction,
             column_indices: Optional[Sequence[int]] = None,
             chunk_size: int = SCAN_CHUNK_ROWS,
             range_predicate=None,
             start_row: int = 0,
             end_row: Optional[int] = None,
             batch_rows: Optional[int] = None) -> Iterator[DataChunk]:
        """Vector Volcano scan: yield batches of rows visible to the snapshot.

        The rows are cut into ``chunk_size``-row *chunks*, the zone and
        billing unit: ``range_predicate(start, end)`` -- when provided --
        is consulted per chunk *before* any column data is fetched, and
        returning False skips the chunk (zonemap scan skipping, paper §6).
        Each run of surviving chunks inside one ``batch_rows``-row window
        (a multiple of ``chunk_size``, such as :func:`aligned_morsel_rows`
        gives; default one chunk) is then fetched as one *batch*: one visibility
        mask, one view per column, one chunk out.  Windows start at
        ``start_row``; a morsel-aligned window never crosses a morsel
        boundary, so a batch holds at most one morsel.

        ``column_indices`` may name :data:`ROW_ID_COLUMN`, which reads as a
        BIGINT vector of the physical row ids backing the batch (UPDATE and
        DELETE address their targets by them).

        ``start_row``/``end_row`` restrict the scan to a physical row range
        (an aggregate's morsel fragments hand disjoint ranges to workers).
        """
        if column_indices is None:
            column_indices = range(len(self.columns))
        column_indices = list(column_indices)
        with self.lock:
            total = self.row_count
        if end_row is not None:
            total = min(total, end_row)
        for start, end in _runs(start_row, total, chunk_size,
                                batch_rows or chunk_size, range_predicate):
            batch = [self._fetch(transaction, column_indices, start, end)]
            if batch[0] is not None:
                # Yielded without a local: this suspended frame holds no
                # view of the columns, so a DML statement writing the rows
                # it just read does not copy them (ColumnData._unshare).
                yield batch.pop()

    def _fetch(self, transaction: Transaction, column_indices: List[int],
               start: int, end: int) -> Optional[DataChunk]:
        """The rows of [start, end) visible to the snapshot, in one chunk;
        None when there are none.  One lock acquisition covers the
        visibility mask and the column views."""
        with self.lock, tracked_access(("table_data", id(self)), False,
                                       self.lock):
            mask = self.visible_mask(transaction, start, end)
            if not mask.any():
                return None
            vectors = [
                Vector(BIGINT, np.arange(start, end, dtype=np.int64))
                if index == ROW_ID_COLUMN
                else self.columns[index].fetch_range(start, end, transaction)
                for index in column_indices
            ]
        if mask.all():
            return DataChunk(vectors)
        return DataChunk([vector.slice(mask) for vector in vectors])

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
                column.data = column.data[keep]
                column.validity = column.validity[keep]
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


def _runs(start_row: int, total: int, chunk_rows: int, window_rows: int,
          range_predicate) -> Iterator[Tuple[int, int]]:
    """``[start, end)`` of each run of chunks ``range_predicate`` keeps,
    cut at every ``window_rows`` boundary counted from ``start_row``.  The
    predicate is asked lazily, chunk by chunk, so a scan that stops early
    prunes no zone it never reached."""
    for window in range(start_row, total, window_rows):
        window_end = min(window + window_rows, total)
        if range_predicate is None:
            yield window, window_end
            continue
        run_start = None
        for start in range(window, window_end, chunk_rows):
            if range_predicate(start, min(start + chunk_rows, window_end)):
                if run_start is None:
                    run_start = start
            elif run_start is not None:
                yield run_start, start
                run_start = None
        if run_start is not None:
            yield run_start, window_end
