"""Persistent storage: single-file block format, WAL, checkpoints, buffers.

Implements the storage design of paper §6: a single database file of
fixed-size 256 KiB blocks, every block checksummed and verified on read,
a header whose root pointer flips atomically at checkpoint time, a sidecar
write-ahead log consumed by checkpoints, and a buffer manager that enforces
the configured memory limit and (optionally) memtests its buffers.
"""

from .block_file import BLOCK_SIZE, BlockFile, MetaBlockReader, MetaBlockWriter
from .buffer_manager import Buffer, BufferManager
from .checkpoint import CheckpointReader, CheckpointWriter, PersistedSegment
from .checksum import checksum, verify_checksum
from .compression import CompressionLevel, CompressionType, decode_array, encode_array
from .serialize import BinaryReader, BinaryWriter
from .storage_manager import StorageManager
from .table_data import SEGMENT_ROWS, ColumnData, TableData
from .wal import WALRecord, WALRecordType, WriteAheadLog

__all__ = [
    "BLOCK_SIZE",
    "BlockFile",
    "MetaBlockReader",
    "MetaBlockWriter",
    "Buffer",
    "BufferManager",
    "CheckpointReader",
    "CheckpointWriter",
    "PersistedSegment",
    "checksum",
    "verify_checksum",
    "CompressionLevel",
    "CompressionType",
    "encode_array",
    "decode_array",
    "BinaryReader",
    "BinaryWriter",
    "StorageManager",
    "SEGMENT_ROWS",
    "ColumnData",
    "TableData",
    "WALRecord",
    "WALRecordType",
    "WriteAheadLog",
]
