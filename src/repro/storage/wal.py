"""Write-ahead log (paper §6).

*"As an exception, the WAL is written to a separate file until consumed by a
checkpoint."*

The WAL stores *logical* records (create table, bulk append, bulk delete,
bulk update, ...) rather than physical page images: bulk ETL operations are
the common write pattern (§2), and logging them logically keeps the WAL
proportional to the change, not to the table.

Records of one transaction are buffered in memory and written -- followed by
a COMMIT record and an fsync -- only when the transaction commits.  Each
record is framed with its length and a CRC-32; replay stops at the first
torn or corrupted frame, so a crash mid-write simply loses the uncommitted
tail, never committed data.
"""

from __future__ import annotations

import enum
import os
import struct
from typing import Any, List, Optional

import numpy as np

from ..errors import CorruptionError, WALError
from ..observability.trace import Tracer
from ..types import DataChunk, LogicalType, type_from_string
from .checksum import checksum
from .compression import decode_vector, encode_vector
from .serialize import BinaryReader, BinaryWriter

__all__ = ["WALRecordType", "WALRecord", "WriteAheadLog",
           "serialize_chunk", "deserialize_chunk"]

_FRAME = struct.Struct("<QI")  # payload length, crc32


class WALRecordType(enum.IntEnum):
    CREATE_TABLE = 1
    DROP_TABLE = 2
    CREATE_VIEW = 3
    DROP_VIEW = 4
    INSERT_CHUNK = 5
    DELETE_ROWS = 6
    UPDATE_ROWS = 7
    COMMIT = 8


def serialize_chunk(writer: BinaryWriter, chunk: DataChunk) -> None:
    """Append a chunk (types, data, validity) to a binary stream."""
    writer.write_uint32(chunk.column_count)
    writer.write_uint64(chunk.size)
    for vector in chunk.columns:
        writer.write_string(str(vector.dtype))
        data, validity = encode_vector(vector)
        writer.write_bytes(data)
        writer.write_bytes(validity)


def deserialize_chunk(reader: BinaryReader) -> DataChunk:
    """Inverse of :func:`serialize_chunk`."""
    column_count = reader.read_uint32()
    row_count = reader.read_uint64()
    vectors = []
    for _ in range(column_count):
        dtype = type_from_string(reader.read_string())
        vector = decode_vector(dtype, reader.read_bytes(), reader.read_bytes())
        if len(vector) != row_count:
            raise CorruptionError("Chunk payload length mismatch in WAL")
        vectors.append(vector)
    return DataChunk(vectors)


class WALRecord:
    """One logical WAL record: a type tag plus a typed payload."""

    __slots__ = ("record_type", "payload")

    def __init__(self, record_type: WALRecordType, payload: dict) -> None:
        self.record_type = record_type
        self.payload = payload

    # -- constructors for each record kind ---------------------------------
    @classmethod
    def create_table(cls, name: str, columns: List[tuple]) -> "WALRecord":
        """``columns`` is a list of (name, type_string, nullable, default_text)."""
        return cls(WALRecordType.CREATE_TABLE, {"name": name, "columns": columns})

    @classmethod
    def drop_table(cls, name: str) -> "WALRecord":
        return cls(WALRecordType.DROP_TABLE, {"name": name})

    @classmethod
    def create_view(cls, name: str, sql: str) -> "WALRecord":
        return cls(WALRecordType.CREATE_VIEW, {"name": name, "sql": sql})

    @classmethod
    def drop_view(cls, name: str) -> "WALRecord":
        return cls(WALRecordType.DROP_VIEW, {"name": name})

    @classmethod
    def insert_chunk(cls, table: str, chunk: DataChunk) -> "WALRecord":
        return cls(WALRecordType.INSERT_CHUNK, {"table": table, "chunk": chunk})

    @classmethod
    def delete_rows(cls, table: str, rows: np.ndarray) -> "WALRecord":
        return cls(WALRecordType.DELETE_ROWS, {"table": table, "rows": rows})

    @classmethod
    def update_rows(cls, table: str, column_indices: List[int], rows: np.ndarray,
                    chunk: DataChunk) -> "WALRecord":
        return cls(WALRecordType.UPDATE_ROWS, {
            "table": table, "columns": column_indices, "rows": rows, "chunk": chunk,
        })

    @classmethod
    def commit(cls, commit_id: int) -> "WALRecord":
        return cls(WALRecordType.COMMIT, {"commit_id": commit_id})

    # -- wire format -----------------------------------------------------------
    def serialize(self) -> bytes:
        writer = BinaryWriter()
        writer.write_uint8(int(self.record_type))
        payload = self.payload
        kind = self.record_type
        if kind is WALRecordType.CREATE_TABLE:
            writer.write_string(payload["name"])
            writer.write_uint32(len(payload["columns"]))
            for name, type_text, nullable, default_text in payload["columns"]:
                writer.write_string(name)
                writer.write_string(type_text)
                writer.write_bool(nullable)
                writer.write_optional_string(default_text)
        elif kind in (WALRecordType.DROP_TABLE, WALRecordType.DROP_VIEW):
            writer.write_string(payload["name"])
        elif kind is WALRecordType.CREATE_VIEW:
            writer.write_string(payload["name"])
            writer.write_string(payload["sql"])
        elif kind is WALRecordType.INSERT_CHUNK:
            writer.write_string(payload["table"])
            serialize_chunk(writer, payload["chunk"])
        elif kind is WALRecordType.DELETE_ROWS:
            writer.write_string(payload["table"])
            writer.write_int64_array(payload["rows"])
        elif kind is WALRecordType.UPDATE_ROWS:
            writer.write_string(payload["table"])
            writer.write_uint32(len(payload["columns"]))
            for column_index in payload["columns"]:
                writer.write_uint32(column_index)
            writer.write_int64_array(payload["rows"])
            serialize_chunk(writer, payload["chunk"])
        elif kind is WALRecordType.COMMIT:
            writer.write_uint64(payload["commit_id"])
        else:  # pragma: no cover - enum is exhaustive
            raise WALError(f"Cannot serialize WAL record of type {kind}")
        return writer.getvalue()

    @classmethod
    def deserialize(cls, data: bytes) -> "WALRecord":
        reader = BinaryReader(data)
        kind = WALRecordType(reader.read_uint8())
        if kind is WALRecordType.CREATE_TABLE:
            name = reader.read_string()
            count = reader.read_uint32()
            columns = []
            for _ in range(count):
                columns.append((
                    reader.read_string(),
                    reader.read_string(),
                    reader.read_bool(),
                    reader.read_optional_string(),
                ))
            return cls.create_table(name, columns)
        if kind is WALRecordType.DROP_TABLE:
            return cls.drop_table(reader.read_string())
        if kind is WALRecordType.CREATE_VIEW:
            name = reader.read_string()
            return cls.create_view(name, reader.read_string())
        if kind is WALRecordType.DROP_VIEW:
            return cls.drop_view(reader.read_string())
        if kind is WALRecordType.INSERT_CHUNK:
            table = reader.read_string()
            return cls.insert_chunk(table, deserialize_chunk(reader))
        if kind is WALRecordType.DELETE_ROWS:
            table = reader.read_string()
            return cls.delete_rows(table, reader.read_int64_array())
        if kind is WALRecordType.UPDATE_ROWS:
            table = reader.read_string()
            count = reader.read_uint32()
            columns = [reader.read_uint32() for _ in range(count)]
            rows = reader.read_int64_array()
            return cls.update_rows(table, columns, rows, deserialize_chunk(reader))
        if kind is WALRecordType.COMMIT:
            return cls.commit(reader.read_uint64())
        raise WALError(f"Unknown WAL record type {kind}")


class WriteAheadLog:
    """Append-only, checksummed record log in a sidecar file."""

    def __init__(self, path: Optional[str], tracer: Tracer) -> None:
        #: ``None`` path disables the WAL (in-memory databases).
        self.path = path
        #: The owning database's tracer: a commit group written inside a
        #: traced statement records a span nested under its root.
        self.tracer = tracer
        self._file = open(path, "ab") if path else None
        #: Bytes and commit groups appended since the database opened (the
        #: ``repro_wal_*`` metrics).  Commit hooks run under the
        #: transaction-manager lock, so plain ints stay exact.
        self.bytes_written = 0
        self.commit_groups = 0

    @property
    def enabled(self) -> bool:
        return self._file is not None

    def size(self) -> int:
        """Current WAL size in bytes (0 when disabled)."""
        if not self.path or not os.path.exists(self.path):
            return 0
        return os.path.getsize(self.path)

    def append_commit_group(self, records: List[WALRecord], commit_id: int) -> None:
        """Durably write a transaction's records followed by its COMMIT frame."""
        if self._file is None:
            return
        frames = []
        for record in list(records) + [WALRecord.commit(commit_id)]:
            payload = record.serialize()
            frames.append(_FRAME.pack(len(payload), checksum(payload)))
            frames.append(payload)
        data = b"".join(frames)
        with self.tracer.span("wal.commit_group", kind="wal",
                              records=len(records), bytes=len(data)):
            self._file.write(data)
            self._file.flush()
            os.fsync(self._file.fileno())
        self.bytes_written += len(data)
        self.commit_groups += 1

    def read_all(self) -> List[List[WALRecord]]:
        """All *committed* record groups, in commit order.

        Stops quietly at the first torn/corrupted frame (a crash mid-write);
        an uncommitted trailing group is discarded, mirroring rollback.
        """
        if not self.path or not os.path.exists(self.path):
            return []
        with open(self.path, "rb") as handle:
            data = handle.read()
        groups: List[List[WALRecord]] = []
        current: List[WALRecord] = []
        offset = 0
        while offset + _FRAME.size <= len(data):
            length, crc = _FRAME.unpack_from(data, offset)
            start = offset + _FRAME.size
            end = start + length
            if end > len(data):
                break  # torn write
            payload = data[start:end]
            if checksum(payload) != crc:
                break  # corrupted tail
            try:
                record = WALRecord.deserialize(payload)
            except (CorruptionError, ValueError, WALError):
                break
            if record.record_type is WALRecordType.COMMIT:
                groups.append(current)
                current = []
            else:
                current.append(record)
            offset = end
        return groups

    def truncate(self) -> None:
        """Discard all records (called after a successful checkpoint)."""
        if self._file is None:
            return
        self._file.close()
        self._file = open(self.path, "wb")
        self._file.flush()
        os.fsync(self._file.fileno())
        self._file.close()
        self._file = open(self.path, "ab")

    def close(self) -> None:
        if self._file is not None and not self._file.closed:
            self._file.flush()
            self._file.close()

    def delete_file(self) -> None:
        """Close and remove the WAL file (clean shutdown after checkpoint)."""
        self.close()
        if self.path and os.path.exists(self.path):
            os.remove(self.path)
