"""WAL tests: record round trips, commit groups, torn tails, replay."""

import os

import numpy as np
import pytest

from repro.observability import Tracer
from repro.storage.serialize import BinaryReader, BinaryWriter
from repro.storage.wal import (
    WALRecord,
    WALRecordType,
    WriteAheadLog,
    deserialize_chunk,
    serialize_chunk,
)
from repro.types import DataChunk, INTEGER, VARCHAR


@pytest.fixture
def wal_path(tmp_path):
    return str(tmp_path / "test.wal")


def sample_chunk():
    return DataChunk.from_pylists([[1, 2, None], ["a", None, "c"]],
                                  [INTEGER, VARCHAR])


class TestChunkSerialization:
    def test_round_trip(self):
        writer = BinaryWriter()
        serialize_chunk(writer, sample_chunk())
        decoded = deserialize_chunk(BinaryReader(writer.getvalue()))
        assert decoded.to_rows() == sample_chunk().to_rows()
        assert decoded.types == [INTEGER, VARCHAR]

    def test_empty_chunk(self):
        writer = BinaryWriter()
        chunk = DataChunk.from_pylists([[], []], [INTEGER, VARCHAR])
        serialize_chunk(writer, chunk)
        decoded = deserialize_chunk(BinaryReader(writer.getvalue()))
        assert decoded.size == 0


class TestRecordSerialization:
    def roundtrip(self, record):
        return WALRecord.deserialize(record.serialize())

    def test_create_table(self):
        record = WALRecord.create_table(
            "t", [("a", "INTEGER", False, None), ("b", "VARCHAR", True, "dflt")])
        decoded = self.roundtrip(record)
        assert decoded.record_type is WALRecordType.CREATE_TABLE
        assert decoded.payload["name"] == "t"
        assert decoded.payload["columns"] == [
            ("a", "INTEGER", False, None), ("b", "VARCHAR", True, "dflt")]

    def test_drop_records(self):
        assert self.roundtrip(WALRecord.drop_table("t")).payload["name"] == "t"
        assert self.roundtrip(WALRecord.drop_view("v")).payload["name"] == "v"

    def test_create_view(self):
        decoded = self.roundtrip(WALRecord.create_view("v", "SELECT 1"))
        assert decoded.payload["sql"] == "SELECT 1"

    def test_insert_chunk(self):
        decoded = self.roundtrip(WALRecord.insert_chunk("t", sample_chunk()))
        assert decoded.payload["table"] == "t"
        assert decoded.payload["chunk"].to_rows() == sample_chunk().to_rows()

    def test_delete_rows(self):
        rows = np.array([3, 7, 11], dtype=np.int64)
        decoded = self.roundtrip(WALRecord.delete_rows("t", rows))
        np.testing.assert_array_equal(decoded.payload["rows"], rows)

    def test_update_rows(self):
        rows = np.array([0, 5], dtype=np.int64)
        chunk = DataChunk.from_pylists([[10, 20]], [INTEGER])
        decoded = self.roundtrip(WALRecord.update_rows("t", [1], rows, chunk))
        assert decoded.payload["columns"] == [1]
        assert decoded.payload["chunk"].to_rows() == [(10,), (20,)]

    def test_commit(self):
        decoded = self.roundtrip(WALRecord.commit(42))
        assert decoded.payload["commit_id"] == 42


class TestWALFile:
    def test_append_and_read_groups(self, wal_path):
        wal = WriteAheadLog(wal_path, Tracer())
        wal.append_commit_group([WALRecord.drop_table("a")], 2)
        wal.append_commit_group(
            [WALRecord.create_view("v", "SELECT 1"), WALRecord.drop_view("v")], 3)
        wal.close()
        groups = WriteAheadLog(wal_path, Tracer()).read_all()
        assert len(groups) == 2
        assert groups[0][0].record_type is WALRecordType.DROP_TABLE
        assert len(groups[1]) == 2

    def test_disabled_wal(self):
        wal = WriteAheadLog(None, Tracer())
        assert not wal.enabled
        wal.append_commit_group([WALRecord.drop_table("x")], 1)
        assert wal.read_all() == []
        assert wal.size() == 0

    def test_torn_tail_is_discarded(self, wal_path):
        wal = WriteAheadLog(wal_path, Tracer())
        wal.append_commit_group([WALRecord.drop_table("good")], 2)
        wal.close()
        # Append half of a frame: a torn write.
        with open(wal_path, "ab") as handle:
            handle.write(b"\x40\x00\x00\x00\x00\x00\x00\x00\x12")
        groups = WriteAheadLog(wal_path, Tracer()).read_all()
        assert len(groups) == 1

    def test_corrupted_tail_is_discarded(self, wal_path):
        wal = WriteAheadLog(wal_path, Tracer())
        wal.append_commit_group([WALRecord.drop_table("good")], 2)
        size_after_first = os.path.getsize(wal_path)
        wal.append_commit_group([WALRecord.drop_table("bad")], 3)
        wal.close()
        # Flip a byte in the second group's payload.
        with open(wal_path, "r+b") as handle:
            handle.seek(size_after_first + 14)
            handle.write(b"\xff")
        groups = WriteAheadLog(wal_path, Tracer()).read_all()
        assert len(groups) == 1
        assert groups[0][0].payload["name"] == "good"

    def test_uncommitted_group_is_discarded(self, wal_path):
        wal = WriteAheadLog(wal_path, Tracer())
        wal.append_commit_group([WALRecord.drop_table("good")], 2)
        wal.close()
        # Write a record frame without a COMMIT.
        record = WALRecord.drop_table("uncommitted").serialize()
        import struct
        import zlib

        with open(wal_path, "ab") as handle:
            handle.write(struct.pack("<QI", len(record),
                                     zlib.crc32(record) & 0xFFFFFFFF))
            handle.write(record)
        groups = WriteAheadLog(wal_path, Tracer()).read_all()
        assert len(groups) == 1

    def test_truncate(self, wal_path):
        wal = WriteAheadLog(wal_path, Tracer())
        wal.append_commit_group([WALRecord.drop_table("a")], 2)
        assert wal.size() > 0
        wal.truncate()
        assert wal.size() == 0
        assert wal.read_all() == []
        # The WAL stays usable after truncation.
        wal.append_commit_group([WALRecord.drop_table("b")], 3)
        assert len(wal.read_all()) == 1
        wal.close()

    def test_delete_file(self, wal_path):
        wal = WriteAheadLog(wal_path, Tracer())
        wal.append_commit_group([WALRecord.drop_table("a")], 2)
        wal.delete_file()
        assert not os.path.exists(wal_path)
