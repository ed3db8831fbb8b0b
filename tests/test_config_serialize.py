"""Config parsing and binary serialization unit tests."""

import numpy as np
import pytest

from repro.config import DatabaseConfig, parse_memory_size
from repro.errors import CorruptionError, InvalidInputError
from repro.storage.serialize import BinaryReader, BinaryWriter


class TestMemorySizeParsing:
    @pytest.mark.parametrize("text,expected", [
        ("100", 100),
        ("1KB", 1000),
        ("2MB", 2 * 10**6),
        ("3GB", 3 * 10**9),
        ("1KiB", 1024),
        ("2MiB", 2 << 20),
        ("1GiB", 1 << 30),
        ("1.5MB", 1_500_000),
        (" 64 MiB ", 64 << 20),
        (12345, 12345),
    ])
    def test_valid(self, text, expected):
        assert parse_memory_size(text) == expected

    @pytest.mark.parametrize("bad", ["", "lots", "12XB", -5, 0, "MB",
                                     "-1GB", pytest.param("0", id="'0'"),
                                     "0KB"])
    def test_invalid(self, bad):
        with pytest.raises(InvalidInputError):
            parse_memory_size(bad)


class TestDatabaseConfig:
    def test_defaults(self):
        config = DatabaseConfig()
        assert config.memory_limit == 1 << 31
        assert config.threads == 1
        assert config.verify_checksums is True

    def test_from_dict(self):
        config = DatabaseConfig.from_dict({
            "memory_limit": "128MB",
            "threads": 4,
            "verify_checksums": "off",
            "buffer_memtest": "on",
        })
        assert config.memory_limit == 128 * 10**6
        assert config.threads == 4
        assert config.verify_checksums is False
        assert config.buffer_memtest is True

    def test_unknown_option(self):
        with pytest.raises(InvalidInputError):
            DatabaseConfig.from_dict({"quack_level": 11})

    def test_bad_boolean(self):
        with pytest.raises(InvalidInputError):
            DatabaseConfig.from_dict({"verify_checksums": "perhaps"})

    def test_threads_must_be_positive(self):
        with pytest.raises(InvalidInputError):
            DatabaseConfig.from_dict({"threads": 0})

    def test_get_option(self):
        config = DatabaseConfig()
        assert config.get_option("threads") == 1
        with pytest.raises(InvalidInputError):
            config.get_option("nonsense")

    def test_wal_autocheckpoint_zero_disables(self):
        # Zero in any unit is "off", not a non-positive size.
        for off in (0, "0", "0KB", "0MB", " 0 GiB "):
            config = DatabaseConfig.from_dict({"wal_autocheckpoint": off})
            assert config.wal_autocheckpoint == 0

    def test_pragma_rejects_negative_memory_limit(self, con):
        with pytest.raises(InvalidInputError):
            con.execute("PRAGMA memory_limit = '-1GB'")
        assert con.database.config.memory_limit == 1 << 31


class TestBinarySerialization:
    def test_scalar_round_trips(self):
        writer = BinaryWriter()
        writer.write_bool(True)
        writer.write_bool(False)
        writer.write_uint8(255)
        writer.write_uint32(4_000_000_000)
        writer.write_uint64(2**60)
        writer.write_int64(-(2**60))
        writer.write_double(3.14159)
        reader = BinaryReader(writer.getvalue())
        assert reader.read_bool() is True
        assert reader.read_bool() is False
        assert reader.read_uint8() == 255
        assert reader.read_uint32() == 4_000_000_000
        assert reader.read_uint64() == 2**60
        assert reader.read_int64() == -(2**60)
        assert reader.read_double() == pytest.approx(3.14159)
        assert reader.exhausted()

    def test_strings(self):
        writer = BinaryWriter()
        writer.write_string("hello 🦆")
        writer.write_optional_string(None)
        writer.write_optional_string("there")
        reader = BinaryReader(writer.getvalue())
        assert reader.read_string() == "hello 🦆"
        assert reader.read_optional_string() is None
        assert reader.read_optional_string() == "there"

    def test_bytes_and_arrays(self):
        writer = BinaryWriter()
        writer.write_bytes(b"\x00\x01\x02")
        writer.write_int64_array(np.array([1, -2, 3], dtype=np.int64))
        reader = BinaryReader(writer.getvalue())
        assert reader.read_bytes() == b"\x00\x01\x02"
        np.testing.assert_array_equal(reader.read_int64_array(), [1, -2, 3])

    def test_truncated_stream_raises(self):
        writer = BinaryWriter()
        writer.write_uint64(7)
        data = writer.getvalue()[:4]
        with pytest.raises(CorruptionError):
            BinaryReader(data).read_uint64()

    def test_hostile_length_raises(self):
        writer = BinaryWriter()
        writer.write_string("x")
        data = bytearray(writer.getvalue())
        data[0] = 0xFF  # inflate declared length
        data[1] = 0xFF
        with pytest.raises(CorruptionError):
            BinaryReader(bytes(data)).read_string()

    def test_hostile_array_length(self):
        writer = BinaryWriter()
        writer.write_int64_array(np.array([1], dtype=np.int64))
        data = bytearray(writer.getvalue())
        data[0] = 0xFF  # declared count far beyond the stream
        data[3] = 0x7F
        with pytest.raises(CorruptionError):
            BinaryReader(bytes(data)).read_int64_array()

    def test_empty_containers(self):
        writer = BinaryWriter()
        writer.write_string("")
        writer.write_bytes(b"")
        writer.write_int64_array(np.array([], dtype=np.int64))
        reader = BinaryReader(writer.getvalue())
        assert reader.read_string() == ""
        assert reader.read_bytes() == b""
        assert len(reader.read_int64_array()) == 0

    def test_offset_property(self):
        writer = BinaryWriter()
        writer.write_uint32(1)
        reader = BinaryReader(writer.getvalue())
        reader.read_uint32()
        assert reader.offset == 4
