"""Storage manager: ties together block file, WAL, checkpoints, and recovery.

Startup sequence for a persistent database (paper §6 semantics):

1. open the single file, pick the newest valid header (double-header scheme);
2. load the catalog and all column segments from the checkpoint, verifying
   every block's checksum on the way in;
3. replay the sidecar WAL: committed record groups are re-applied as
   transactions; a torn tail (crash during commit) is discarded;
4. normal operation -- commits append to the WAL; checkpoints fold the WAL
   into the file and truncate it.

An in-memory database (``":memory:"``) simply runs with the WAL and block
file disabled.
"""

from __future__ import annotations

import os
from typing import List, Optional, Set

from ..catalog.catalog import Catalog
from ..catalog.entry import ColumnDefinition, TableEntry, ViewEntry
from ..config import DatabaseConfig
from ..errors import (
    CatalogError,
    Error,
    InternalError,
    StorageError,
    TransactionContextError,
    WALError,
)
from ..observability.trace import Tracer
from ..transaction.manager import TransactionManager
from ..transaction.transaction import Transaction
from ..types import DataChunk, cast_vector, type_from_string
from .block_file import BlockFile
from .buffer_manager import BufferManager
from .checkpoint import CheckpointReader, CheckpointWriter
from .table_data import TableData
from .wal import WALRecord, WALRecordType, WriteAheadLog

__all__ = ["StorageManager"]


class StorageManager:
    """Owns persistence for one database instance."""

    def __init__(self, path: str, config: DatabaseConfig,
                 buffer_manager: BufferManager, tracer: Tracer) -> None:
        self.path = path
        self.config = config
        self.buffer_manager = buffer_manager
        #: The owning database's tracer: checkpoints and WAL commit groups
        #: run inside a traced statement record a span nested under it.
        self.tracer = tracer
        self.in_memory = path == ":memory:"
        if self.in_memory:
            self.block_file: Optional[BlockFile] = None
            self.wal = WriteAheadLog(None, tracer)
        else:
            self.block_file = BlockFile(path, create=True,
                                        verify_checksums=config.verify_checksums)
            self.wal = WriteAheadLog(path + ".wal", tracer)
        self._metadata_blocks: List[int] = []
        self._free_list_blocks: List[int] = []
        #: Segment blocks live as of the last checkpoint (see
        #: :meth:`CheckpointWriter.write` for the free rule they feed).
        self._segment_blocks: Set[int] = set()
        #: Checkpoints and their bytes since the database opened (the
        #: ``repro_checkpoint*`` metrics), written under the checkpoint lock.
        self.checkpoints_written = 0
        self.checkpoint_bytes_written = 0
        #: Filled by the last checkpoint, for the C1 experiment report.
        self.last_checkpoint_stats: dict = {}

    # -- startup -------------------------------------------------------------
    def load(self, catalog: Catalog, transaction_manager: TransactionManager) -> None:
        """Load the checkpoint image and replay the WAL."""
        if self.in_memory:
            return
        bootstrap = transaction_manager.begin()
        try:
            reader = CheckpointReader(self.block_file, self.buffer_manager)
            reader.load(catalog, bootstrap)
            self._metadata_blocks = reader.metadata_blocks
            self._free_list_blocks = reader.free_list_blocks
            self._segment_blocks = reader.segment_blocks
            transaction_manager.commit(bootstrap)
        except Error:
            # Engine errors (CorruptionError, ...) already carry context.
            if bootstrap.is_active:
                transaction_manager.rollback(bootstrap)
            raise
        except Exception as exc:
            if bootstrap.is_active:
                transaction_manager.rollback(bootstrap)
            raise StorageError(
                f"loading the checkpoint image of {self.path!r} failed: {exc}"
            ) from exc
        self._replay_wal(catalog, transaction_manager)

    def _replay_wal(self, catalog: Catalog, transaction_manager: TransactionManager) -> None:
        groups = self.wal.read_all()
        for group_index, group in enumerate(groups):
            transaction = transaction_manager.begin()
            try:
                for record in group:
                    self._replay_record(record, catalog, transaction)
                transaction_manager.commit(transaction)
            except Error:
                if transaction.is_active:
                    transaction_manager.rollback(transaction)
                raise
            except Exception as exc:
                if transaction.is_active:
                    transaction_manager.rollback(transaction)
                raise WALError(
                    f"replay of committed WAL group {group_index} failed: "
                    f"{exc}"
                ) from exc

    def _replay_record(self, record: WALRecord, catalog: Catalog,
                       transaction: Transaction) -> None:
        kind = record.record_type
        payload = record.payload
        if kind is WALRecordType.CREATE_TABLE:
            definitions = []
            for name, type_text, nullable, default_text in payload["columns"]:
                column_type = type_from_string(type_text)
                from .checkpoint import _deserialize_default

                definitions.append(ColumnDefinition(
                    name, column_type, nullable,
                    _deserialize_default(default_text, column_type),
                ))
            data = TableData([definition.dtype for definition in definitions])
            entry = TableEntry(payload["name"], definitions, data,
                               transaction.transaction_id)
            catalog.create_entry(entry, transaction)
        elif kind is WALRecordType.DROP_TABLE:
            catalog.drop_entry(payload["name"], transaction, expected_type="table")
        elif kind is WALRecordType.CREATE_VIEW:
            entry = ViewEntry(payload["name"], payload["sql"], None,
                              transaction.transaction_id)
            catalog.create_entry(entry, transaction, or_replace=True)
        elif kind is WALRecordType.DROP_VIEW:
            catalog.drop_entry(payload["name"], transaction, expected_type="view")
        elif kind is WALRecordType.INSERT_CHUNK:
            table = catalog.get_table(payload["table"], transaction)
            chunk = payload["chunk"]
            aligned = DataChunk([
                cast_vector(vector, dtype)
                for vector, dtype in zip(chunk.columns, table.column_types)
            ])
            table.data.append_chunk(transaction, aligned)
        elif kind is WALRecordType.DELETE_ROWS:
            table = catalog.get_table(payload["table"], transaction)
            table.data.delete_rows(transaction, payload["rows"])
        elif kind is WALRecordType.UPDATE_ROWS:
            table = catalog.get_table(payload["table"], transaction)
            column_indices = payload["columns"]
            chunk = payload["chunk"]
            aligned = DataChunk([
                cast_vector(vector, table.columns[index].dtype)
                for vector, index in zip(chunk.columns, column_indices)
            ])
            table.data.update_rows(transaction, payload["rows"], column_indices, aligned)
        elif kind is WALRecordType.COMMIT:
            raise WALError("COMMIT record inside a record group")
        else:  # pragma: no cover
            raise WALError(f"Unknown WAL record {kind}")

    # -- commit path -------------------------------------------------------------
    def commit_hook(self, transaction: Transaction, commit_id: int) -> None:
        """Pre-commit hook: durably log the transaction before tags flip."""
        if transaction.wal_records and self.wal.enabled:
            self.wal.append_commit_group(transaction.wal_records, commit_id)

    def should_auto_checkpoint(self) -> bool:
        if self.in_memory or not self.config.wal_autocheckpoint:
            return False
        return self.wal.size() >= self.config.wal_autocheckpoint

    # -- checkpointing --------------------------------------------------------------
    def checkpoint(self, catalog: Catalog, transaction_manager: TransactionManager,
                   force: bool = False) -> bool:
        """Fold the WAL into the data file.

        Requires quiescence: the checkpoint snapshot must see every committed
        change and no transaction may be mid-flight (their undo chains would
        be unloadable).  With ``force`` the call raises when other
        transactions are active; otherwise it just returns False.
        """
        if self.in_memory:
            return False

        def write_snapshot(bootstrap: Transaction) -> None:
            writer = CheckpointWriter(self.block_file, self.buffer_manager)
            (self._metadata_blocks, self._free_list_blocks,
             self._segment_blocks) = writer.write(
                catalog, bootstrap, self._metadata_blocks,
                self._free_list_blocks, self._segment_blocks)
            self.last_checkpoint_stats = {
                "segments_written": writer.segments_written,
                "segments_reused": writer.segments_reused,
                "bytes_written": writer.bytes_written,
            }
            self.checkpoints_written += 1
            self.checkpoint_bytes_written += writer.bytes_written
            # Truncate *inside* the quiesced region: a commit group appended
            # between the snapshot and the truncation would be silently
            # discarded (durability loss) -- and would race the WAL file
            # handle being swapped.
            self.wal.truncate()

        try:
            with self.tracer.span("checkpoint", kind="checkpoint",
                                  path=self.path):
                transaction_manager.run_quiesced(write_snapshot)
        except TransactionContextError:
            if force:
                raise
            return False
        catalog.prune(transaction_manager.lowest_active_start())
        return True

    # -- shutdown ----------------------------------------------------------------
    def close(self, catalog: Catalog, transaction_manager: TransactionManager) -> None:
        """Checkpoint (if configured) and release the file handles.

        A failing checkpoint-on-close must not *mask* the failure (the
        resilience pillar: corruption stops operation, silently dropping the
        report defeats it) and must not *lose* the WAL either -- the sidecar
        stays on disk so the next open replays it.  Handles are always
        released; the failure is re-raised afterwards with context.
        """
        if self.in_memory:
            return
        checkpoint_failure: Optional[BaseException] = None
        if self.config.checkpoint_on_close:
            try:
                if self.checkpoint(catalog, transaction_manager):
                    self.wal.delete_file()
            except (Error, OSError) as exc:
                checkpoint_failure = exc
        self.wal.close()
        if self.block_file is not None:
            self.block_file.close()
        if checkpoint_failure is not None:
            raise StorageError(
                f"checkpoint-on-close of {self.path!r} failed (the WAL was "
                f"preserved for recovery): {checkpoint_failure}"
            ) from checkpoint_failure
