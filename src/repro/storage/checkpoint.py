"""Checkpointing: persisting the committed state into the single-file format.

The paper (§6): *"Checkpoints will first write new blocks that contain the
updated data to the file and as a last step update the root pointer and the
free list in the header atomically."*  And §2: *"When some columns in a
table are changed, the unchanged columns should not be rewritten in any way
for performance reasons. Partitioning columns is still required though,
otherwise changes again force an unnecessary rewrite of large amounts of
data."*

Both requirements shape the design:

* Column data is persisted in **segments** of :data:`SEGMENT_ROWS` rows.
  Each segment owns its blocks.  A checkpoint rewrites only segments whose
  rows fall inside the column's dirty range; clean segments keep the block
  ids of the previous checkpoint, so an ``UPDATE`` of one column never
  rewrites its neighbors, and appends rewrite only the tail segment.
* Blocks freed by this checkpoint are *quarantined* until the header flip:
  a crash mid-checkpoint must leave every block of the previous checkpoint
  intact, so the old header still describes a fully valid database.  The
  freed segment blocks are those live after the previous checkpoint and
  not after this one -- one rule for replaced segments, shrunk tables and
  dropped tables -- plus the old metadata and free-list chains.
"""

from __future__ import annotations

from typing import AbstractSet, List, Optional, Set

import numpy as np

from ..catalog.catalog import Catalog
from ..catalog.entry import ColumnDefinition, TableEntry, ViewEntry
from ..errors import CorruptionError, InternalError
from ..optimizer.statistics import restore_column_statistics
from ..types import DataChunk, Vector, cast_scalar, type_from_string, VARCHAR
from .block_file import INVALID_BLOCK, BlockFile, MetaBlockReader, MetaBlockWriter
from .buffer_manager import BufferManager
from .compression import CompressionLevel, decode_vector, encode_vector
from .serialize import BinaryReader, BinaryWriter
from .table_data import SEGMENT_ROWS, ColumnData, TableData

__all__ = ["PersistedSegment", "CheckpointWriter", "CheckpointReader"]

#: Version 2 adds per-column optimizer statistics (min/max/NDV/null count)
#: to the catalog metadata; version-1 files still load, with empty stats
#: that the next checkpoint recomputes and persists.
_CHECKPOINT_VERSION = 2
_MIN_SUPPORTED_VERSION = 1


class PersistedSegment:
    """Bookkeeping for one persisted column segment."""

    __slots__ = ("row_start", "row_count", "head_block", "block_ids")

    def __init__(self, row_start: int, row_count: int, head_block: int,
                 block_ids: List[int]) -> None:
        self.row_start = row_start
        self.row_count = row_count
        self.head_block = head_block
        self.block_ids = block_ids


def _serialize_default(column: ColumnDefinition) -> Optional[str]:
    if column.default is None:
        return None
    return cast_scalar(column.default, VARCHAR)


def _deserialize_default(text: Optional[str], column_type) -> object:
    if text is None:
        return None
    return cast_scalar(text, column_type)


def _write_stat_scalar(writer: BinaryWriter, value) -> None:
    """Stats min/max live in the raw storage domain (DATE is int days,
    TIMESTAMP int micros), so they are tagged and written natively instead
    of round-tripping through SQL casts."""
    if value is None:
        writer.write_uint8(0)
    elif isinstance(value, bool):
        writer.write_uint8(4)
        writer.write_bool(value)
    elif isinstance(value, (int, np.integer)):
        writer.write_uint8(1)
        writer.write_int64(int(value))
    elif isinstance(value, (float, np.floating)):
        writer.write_uint8(2)
        writer.write_double(float(value))
    elif isinstance(value, str):
        writer.write_uint8(3)
        writer.write_string(value)
    else:
        writer.write_uint8(0)


def _read_stat_scalar(reader: BinaryReader):
    tag = reader.read_uint8()
    if tag == 1:
        return reader.read_int64()
    if tag == 2:
        return reader.read_double()
    if tag == 3:
        return reader.read_string()
    if tag == 4:
        return reader.read_bool()
    if tag == 0:
        return None
    raise CorruptionError(f"Unknown statistics scalar tag {tag}")


class CheckpointWriter:
    """Writes one checkpoint; one instance per checkpoint invocation."""

    def __init__(self, block_file: BlockFile, buffer_manager: BufferManager) -> None:
        self._file = block_file
        self._buffers = buffer_manager
        #: Blocks owned by the *previous* checkpoint; only freed post-flip.
        self._pending_frees: List[int] = []
        #: Statistics the C1 experiment reports: how much was actually rewritten.
        self.segments_written = 0
        self.segments_reused = 0
        self.bytes_written = 0

    # -- segment io -------------------------------------------------------------
    def _write_segment(self, column: ColumnData, row_start: int, row_count: int) -> PersistedSegment:
        writer = BinaryWriter()
        data_slice = column.data[row_start:row_start + row_count]
        validity_slice = column.validity[row_start:row_start + row_count]
        if column.dictionary is not None:
            vector = Vector.from_codes(data_slice, column.dictionary,
                                       validity_slice)
        else:
            vector = Vector(column.dtype, data_slice, validity_slice)
        data_payload, validity_payload = encode_vector(vector,
                                                       CompressionLevel.LIGHT)
        writer.write_uint64(row_start)
        writer.write_uint64(row_count)
        writer.write_bytes(data_payload)
        writer.write_bytes(validity_payload)
        payload = writer.getvalue()
        chain = MetaBlockWriter(self._file)
        chain.write(payload)
        head = chain.finalize()
        self.segments_written += 1
        self.bytes_written += len(payload)
        return PersistedSegment(row_start, row_count, head, chain.written_blocks)

    def _checkpoint_column(self, column: ColumnData, row_count: int) -> List[PersistedSegment]:
        """Rewrite dirty segments, reuse clean ones."""
        old_segments = {segment.row_start: segment for segment in column.persisted_segments}
        new_segments: List[PersistedSegment] = []
        for row_start in range(0, max(row_count, 0), SEGMENT_ROWS):
            segment_rows = min(SEGMENT_ROWS, row_count - row_start)
            old = old_segments.get(row_start)
            dirty = (column.is_dirty()
                     and column.dirty_lo < row_start + segment_rows
                     and column.dirty_hi >= row_start)
            if old is not None and not dirty and old.row_count == segment_rows:
                new_segments.append(old)
                self.segments_reused += 1
            else:
                new_segments.append(self._write_segment(column, row_start, segment_rows))
        return new_segments

    # -- metadata ------------------------------------------------------------------
    def _serialize_catalog(self, catalog: Catalog, transaction) -> bytes:
        writer = BinaryWriter()
        writer.write_uint32(_CHECKPOINT_VERSION)
        tables = list(catalog.tables(transaction))
        writer.write_uint32(len(tables))
        for table in tables:
            writer.write_string(table.name)
            writer.write_uint32(len(table.columns))
            for column in table.columns:
                writer.write_string(column.name)
                writer.write_string(str(column.dtype))
                writer.write_bool(column.nullable)
                writer.write_optional_string(_serialize_default(column))
            data: TableData = table.data
            writer.write_uint64(data.row_count)
            for column_data in data.columns:
                segments = column_data.persisted_segments
                writer.write_uint32(len(segments))
                for segment in segments:
                    writer.write_uint64(segment.row_start)
                    writer.write_uint64(segment.row_count)
                    writer.write_int64(segment.head_block)
                    writer.write_uint32(len(segment.block_ids))
                    for block_id in segment.block_ids:
                        writer.write_int64(block_id)
                stats = column_data.folded_stats()
                writer.write_uint64(stats.row_count)
                writer.write_uint64(stats.null_count)
                writer.write_double(stats.ndv)
                writer.write_bool(stats.stale)
                _write_stat_scalar(writer, stats.min_value)
                _write_stat_scalar(writer, stats.max_value)
        views = list(catalog.views(transaction))
        writer.write_uint32(len(views))
        for view in views:
            writer.write_string(view.name)
            writer.write_string(view.sql)
        return writer.getvalue()

    def write(self, catalog: Catalog, transaction, old_metadata_blocks: List[int],
              old_free_list_blocks: List[int],
              old_segment_blocks: AbstractSet[int]) -> tuple:
        """Write all dirty data + metadata, flip the header, apply frees.

        ``transaction`` supplies the snapshot (the caller guarantees it sees
        all committed data and that no other transaction is active).
        Returns ``(metadata_blocks, free_list_blocks, segment_blocks)`` for
        the next round.
        """
        # Phase 1: table data.  Compaction first (it dirties everything).
        segment_blocks: Set[int] = set()
        for table in catalog.tables(transaction):
            data: TableData = table.data
            if data.needs_compaction:
                mask = data.visible_mask(transaction, 0, data.row_count)
                data.compact(mask)
            for column_data in data.columns:
                # Updates/deletes only widen the in-memory summary; the
                # checkpoint re-derives exact statistics, but only for
                # columns whose summary went stale -- clean columns are
                # never re-scanned (paper §2).
                stats = column_data.stats
                if stats.stale or stats.row_count != data.row_count:
                    column_data.stats = column_data.exact_statistics(
                        data.row_count)
                column_data.persisted_segments = self._checkpoint_column(
                    column_data, data.row_count
                )
                column_data.mark_clean()
                for segment in column_data.persisted_segments:
                    segment_blocks.update(segment.block_ids)
        # The one free rule: a segment block live after the previous
        # checkpoint and not after this one -- replaced, shrunk away, or of
        # a dropped table -- is freed.
        self._pending_frees.extend(old_segment_blocks - segment_blocks)

        # Phase 2: catalog metadata chain.
        metadata = self._serialize_catalog(catalog, transaction)
        meta_chain = MetaBlockWriter(self._file)
        meta_chain.write(metadata)
        metadata_root = meta_chain.finalize()
        self._pending_frees.extend(old_metadata_blocks)
        self._pending_frees.extend(old_free_list_blocks)

        # Phase 3: the free list that will hold once this checkpoint is live.
        # Chicken-and-egg: the chain's own blocks must not appear inside the
        # list it stores, but allocating them changes the list.  Resolve by
        # allocating one block at a time and recomputing until the remaining
        # list fits the allocated chain (allocation only shrinks the list,
        # so this converges).
        chain_blocks: list = []
        while True:
            prospective = sorted(set(self._file.free_blocks)
                                 | set(self._pending_frees))
            free_writer = BinaryWriter()
            free_writer.write_int64_array(np.asarray(prospective, dtype=np.int64))
            payload = free_writer.getvalue()
            if MetaBlockWriter.blocks_needed(len(payload)) <= len(chain_blocks):
                break
            chain_blocks.append(self._file.allocate_block())
        free_chain = MetaBlockWriter(self._file)
        free_chain.write(payload)
        free_root = free_chain.finalize_into(chain_blocks)
        # Over-allocated chain blocks (rare boundary case) return to the
        # in-memory free set; the next checkpoint persists them.
        for unused in chain_blocks[len(free_chain.written_blocks):]:
            self._file.free_block(unused)

        # Phase 4: atomic flip, then release the old checkpoint's blocks.
        self._file.flip_header(metadata_root, free_root)
        for block_id in self._pending_frees:
            self._file.free_block(block_id)
        self._buffers.invalidate_cache()
        return (meta_chain.written_blocks, free_chain.written_blocks,
                segment_blocks)


class CheckpointReader:
    """Loads the catalog and all table data from a checkpointed file."""

    def __init__(self, block_file: BlockFile, buffer_manager: BufferManager) -> None:
        self._file = block_file
        self._buffers = buffer_manager
        self.metadata_blocks: List[int] = []
        self.free_list_blocks: List[int] = []
        self.segment_blocks: Set[int] = set()

    def _read_segment(self, column: ColumnData, segment: PersistedSegment,
                      row_count_check: int) -> None:
        reader_chain = MetaBlockReader(self._file, segment.head_block)
        reader = BinaryReader(reader_chain.data)
        row_start = reader.read_uint64()
        row_count = reader.read_uint64()
        if row_start != segment.row_start or row_count != segment.row_count:
            raise CorruptionError(
                f"Segment at block {segment.head_block} describes rows "
                f"{row_start}+{row_count}, catalog expected "
                f"{segment.row_start}+{segment.row_count}"
            )
        vector = decode_vector(column.dtype, reader.read_bytes(),
                               reader.read_bytes())
        if len(vector) != row_count:
            raise CorruptionError("Segment payload row count mismatch")
        column.load_segment(row_start, vector)

    def load(self, catalog: Catalog, bootstrap_transaction) -> None:
        """Populate ``catalog`` from the file's current root pointer."""
        if self._file.root_block == INVALID_BLOCK:
            return
        meta_reader_chain = MetaBlockReader(self._file, self._file.root_block)
        self.metadata_blocks = meta_reader_chain.blocks_read
        reader = BinaryReader(meta_reader_chain.data)
        version = reader.read_uint32()
        if not _MIN_SUPPORTED_VERSION <= version <= _CHECKPOINT_VERSION:
            raise CorruptionError(f"Unsupported checkpoint version {version}")
        table_count = reader.read_uint32()
        for _ in range(table_count):
            name = reader.read_string()
            column_count = reader.read_uint32()
            definitions = []
            for _ in range(column_count):
                column_name = reader.read_string()
                column_type = type_from_string(reader.read_string())
                nullable = reader.read_bool()
                default = _deserialize_default(reader.read_optional_string(), column_type)
                definitions.append(
                    ColumnDefinition(column_name, column_type, nullable, default)
                )
            row_count = reader.read_uint64()
            data = TableData([definition.dtype for definition in definitions])
            data._ensure_capacity(max(row_count, 1))
            for column_data in data.columns:
                segment_count = reader.read_uint32()
                segments = []
                for _ in range(segment_count):
                    row_start = reader.read_uint64()
                    segment_rows = reader.read_uint64()
                    head_block = reader.read_int64()
                    block_count = reader.read_uint32()
                    block_ids = [reader.read_int64() for _ in range(block_count)]
                    self.segment_blocks.update(block_ids)
                    segments.append(
                        PersistedSegment(row_start, segment_rows, head_block, block_ids)
                    )
                column_data.persisted_segments = segments
                if version >= 2:
                    stats_rows = reader.read_uint64()
                    stats_nulls = reader.read_uint64()
                    stats_ndv = reader.read_double()
                    stats_stale = reader.read_bool()
                    stats_min = _read_stat_scalar(reader)
                    stats_max = _read_stat_scalar(reader)
                    column_data.stats = restore_column_statistics(
                        column_data.dtype, stats_rows, stats_nulls,
                        stats_ndv, stats_stale, stats_min, stats_max)
            data.row_count = row_count
            for column_data in data.columns:
                for segment in column_data.persisted_segments:
                    self._read_segment(column_data, segment, row_count)
                column_data.mark_clean()
            # Checkpoint-loaded rows belong to "pre-history": visible to all.
            data.inserted_by[:row_count] = 0
            data.deleted_by[:row_count] = 0
            data.last_writer[:row_count] = 0
            entry = TableEntry(name, definitions, data, created_by=0)
            catalog.create_entry(entry, bootstrap_transaction)
            # Bootstrap entries are pre-history, not transactional creations.
            entry.created_by = 0
        view_count = reader.read_uint32()
        for _ in range(view_count):
            view_name = reader.read_string()
            view_sql = reader.read_string()
            entry = ViewEntry(view_name, view_sql, None, created_by=0)
            catalog.create_entry(entry, bootstrap_transaction)
            entry.created_by = 0

        if self._file.free_list_root != INVALID_BLOCK:
            free_chain = MetaBlockReader(self._file, self._file.free_list_root)
            self.free_list_blocks = free_chain.blocks_read
            free_reader = BinaryReader(free_chain.data)
            self._file.set_free_list(free_reader.read_int64_array().tolist())
