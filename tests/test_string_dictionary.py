"""Dictionary-coded VARCHAR: vectors, MVCC, persistence, legacy codecs."""

import gc
import struct
import weakref
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.client.protocol import SocketProtocolClient
from repro.storage.compression import (
    CompressionLevel,
    CompressionType,
    decode_array,
    decode_vector,
    encode_array,
    encode_vector,
)
from repro.storage.table_data import SEGMENT_ROWS
from repro.types import VARCHAR, DataChunk, StringDictionary, Vector

_settings = settings(max_examples=80, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])

#: Few distinct strings (so codes repeat), '' next to NULL.
strings = st.one_of(st.none(), st.sampled_from(["", "a", "b", "Quack", "é🦆"]),
                    st.text(max_size=6))
string_lists = st.lists(strings, max_size=120)


def flat_of(values):
    return Vector.from_values(values, VARCHAR)


def coded_of(values, dictionary=None):
    """The dictionary-coded twin of ``flat_of(values)``."""
    vector = flat_of(values)
    vector.encode_into(dictionary if dictionary is not None
                       else StringDictionary())
    assert vector.codes is not None
    return vector


def same(coded, flat):
    assert coded.to_pylist() == flat.to_pylist()
    assert np.array_equal(coded.validity, flat.validity)
    assert len(coded) == len(flat)


class TestDictionary:
    def test_code_zero_is_null_and_entries_are_append_only(self):
        dictionary = StringDictionary()
        codes = dictionary.encode(np.array(["x", None, "", "x", "y"],
                                           dtype=object))
        assert codes.tolist() == [1, 0, 2, 1, 3]
        assert dictionary.take(codes).tolist() == ["x", None, "", "x", "y"]
        before = dictionary.entries().tolist()
        for index in range(100):  # forces the entry array to grow
            dictionary.encode(np.array([f"s{index}"], dtype=object))
        assert dictionary.entries()[:len(before)].tolist() == before
        assert dictionary.take(codes).tolist() == ["x", None, "", "x", "y"]

    def test_non_text_values_are_stored_as_text(self):
        dictionary = StringDictionary()
        codes = dictionary.encode(np.array([b"raw", np.str_("n"), 5, "5"],
                                           dtype=object))
        assert dictionary.take(codes).tolist() == ["raw", "n", "5", "5"]
        assert codes[2] == codes[3]
        assert all(type(entry) is str for entry in dictionary.entries(1))

    def test_recode_and_referenced(self):
        source = StringDictionary(["a", "b", "c"])
        target = StringDictionary(["c"])
        codes = np.array([3, 0, 1, 3], dtype=np.int32)
        moved = target.recode(codes, source)
        assert target.take(moved).tolist() == ["c", None, "a", "c"]
        assert "b" not in target.entries().tolist()
        small, local = source.referenced(codes)
        assert small.entries().tolist() == [None, "a", "c"]
        assert small.take(local).tolist() == ["c", None, "a", "c"]


class TestCodedVectorEqualsFlatTwin:
    @_settings
    @given(string_lists, st.data())
    def test_slice_copy_values_nbytes(self, values, data):
        flat, coded = flat_of(values), coded_of(values)
        same(coded, flat)
        same(coded.copy(), flat.copy())
        assert coded.nbytes() == flat.nbytes()
        assert coded.null_count() == flat.null_count()
        count = len(values)
        mask = np.array(data.draw(st.lists(st.booleans(), min_size=count,
                                           max_size=count)), dtype=np.bool_)
        same(coded.slice(mask), flat.slice(mask))
        index = np.array(data.draw(st.lists(
            st.integers(0, max(count - 1, 0)), max_size=40)) if count else [],
            dtype=np.int64)
        picked = coded.slice(index)
        assert picked.codes is not None and picked.dictionary is coded.dictionary
        same(picked, flat.slice(index))
        for position in range(count):
            assert coded.get_value(position) == flat.get_value(position)
        assert coded.codes is not None  # nothing above flattened it

    @_settings
    @given(st.lists(string_lists, min_size=1, max_size=4), st.data())
    def test_concat_many_same_different_and_mixed(self, pieces, data):
        flats = [flat_of(values) for values in pieces]
        expected = Vector.concat_many(flats)
        shared = StringDictionary()
        one_dictionary = Vector.concat_many(
            [coded_of(values, shared) for values in pieces])
        assert one_dictionary.codes is not None
        same(one_dictionary, expected)
        same(Vector.concat_many([coded_of(values) for values in pieces]),
             expected)
        mixed = [coded_of(values, shared) if data.draw(st.booleans())
                 else flat_of(values) for values in pieces]
        before = [vector.codes is not None for vector in mixed]
        same(Vector.concat_many(mixed), expected)
        # Concatenation never changes the form of its inputs.
        assert [vector.codes is not None for vector in mixed] == before

    @_settings
    @given(string_lists)
    def test_chunk_operations(self, values):
        numbers = Vector.from_values(list(range(len(values))))
        flat = DataChunk([flat_of(values), numbers])
        coded = DataChunk([coded_of(values), numbers])
        assert coded.to_rows() == flat.to_rows()
        assert coded.nbytes() == flat.nbytes()
        keep = np.arange(0, len(values), 2)
        assert coded.slice(keep).to_rows() == flat.slice(keep).to_rows()
        assert coded.copy().to_rows() == flat.to_rows()
        if values:
            assert DataChunk.concat_many([coded, coded]).to_rows() \
                == flat.to_rows() * 2
            assert [row for piece in coded.split(7)
                    for row in piece.to_rows()] == flat.to_rows()

    def test_reading_data_flattens_for_good(self):
        coded = coded_of(["a", None, "", "a"])
        data = coded.data
        assert coded.codes is None and data.tolist() == ["a", None, "", "a"]
        data[0] = "z"  # a kernel may now write in place
        assert coded.to_pylist() == ["z", None, "", "a"]

    def test_encode_into_translates_between_dictionaries(self):
        vector = coded_of(["a", None, "b"], StringDictionary(["zz"]))
        target = StringDictionary(["b"])
        codes = vector.encode_into(target)
        assert vector.dictionary is target and codes.tolist() == [2, 0, 1]
        assert "zz" not in target.entries().tolist()


class TestCodec:
    @pytest.mark.parametrize("level", list(CompressionLevel))
    @_settings
    @given(values=string_lists)
    def test_vector_round_trip_stays_coded(self, level, values):
        for vector in (flat_of(values), coded_of(values)):
            back = decode_vector(VARCHAR, *encode_vector(vector, level))
            assert back.codes is not None
            same(back, flat_of(values))

    def test_distinct_strings_written_once_and_codes_narrowed(self):
        values = ["AUTOMOBILE", "BUILDING"] * 5000
        payload, _ = encode_vector(coded_of(values))
        assert payload[0] == CompressionType.STRING_DICT
        assert payload.count(b"AUTOMOBILE") == 1
        assert len(payload) < 10_000 + 100  # one byte per row

    def test_only_referenced_entries_are_written(self):
        dictionary = StringDictionary([f"unused{i}" for i in range(500)])
        payload, _ = encode_vector(coded_of(["x", "y", "x"], dictionary))
        assert b"unused" not in payload

    @pytest.mark.parametrize("codec", [CompressionType.STRINGS,
                                       CompressionType.STRINGS_ZLIB])
    def test_legacy_string_segments_still_decode(self, codec):
        values = ["alpha", "", None, "héllo", "alpha"]
        body = b"".join(
            struct.pack("<i", -1) if value is None
            else struct.pack("<i", len(value.encode())) + value.encode()
            for value in values)
        if codec is CompressionType.STRINGS_ZLIB:
            body = zlib.compress(body, 6)
        payload = struct.pack("<BBQ", codec, 7, len(values)) + body
        assert decode_array(payload).tolist() == values
        validity = encode_array(np.array([v is not None for v in values]))
        vector = decode_vector(VARCHAR, payload, validity)
        assert vector.to_pylist() == values

    def test_corrupt_dictionary_payload_is_reported(self):
        payload, validity = encode_vector(coded_of(["a", "b", "a"]))
        bad_code = payload[:-1] + b"\x09"
        with pytest.raises(repro.CorruptionError):
            decode_vector(VARCHAR, bad_code, validity)
        with pytest.raises(repro.CorruptionError):
            decode_vector(VARCHAR, payload[:-2], validity)


@pytest.fixture
def con():
    connection = repro.connect()
    connection.execute("CREATE TABLE t (id INTEGER, s VARCHAR)")
    connection.execute(
        "INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, NULL), (4, 'a'), (5, '')")
    yield connection
    connection.close()


def column_of(connection, table="t", position=1):
    manager = connection.database.transaction_manager
    transaction = manager.begin()
    try:
        return connection.database.catalog.get_table(
            table, transaction).data.columns[position]
    finally:
        manager.rollback(transaction)


def scan_strings(connection, table="t", position=1):
    """The string column as the scan hands it to the first operator."""
    manager = connection.database.transaction_manager
    transaction = manager.begin()
    try:
        data = connection.database.catalog.get_table(table, transaction).data
        return Vector.concat_many([chunk.columns[0] for chunk in
                                   data.scan(transaction, [position])])
    finally:
        manager.rollback(transaction)


class TestStorage:
    def test_column_is_codes_plus_dictionary(self, con):
        column = column_of(con)
        assert column.data.dtype == np.int32
        assert column.data[:5].tolist() == [1, 2, 0, 1, 3]
        assert column.dictionary.entries().tolist() == [None, "a", "b", ""]

    def test_scan_hands_out_codes_and_queries_agree(self, con):
        scanned = scan_strings(con)
        assert scanned.codes is not None
        assert scanned.dictionary is column_of(con).dictionary
        handed = con.execute("SELECT s FROM t").fetch_chunk()
        assert handed.columns[0].codes is None  # decoded at hand-over
        assert con.execute("SELECT s, count(*) FROM t GROUP BY s "
                           "ORDER BY s").fetchall() \
            == [("", 1), ("a", 2), ("b", 1), (None, 1)]
        assert con.execute("SELECT id FROM t WHERE s = 'a' ORDER BY id"
                           ).fetchall() == [(1,), (4,)]
        assert con.execute("SELECT id FROM t WHERE 'a' < s").fetchall() \
            == [(2,)]
        assert con.execute("SELECT id FROM t WHERE s <> 'a' ORDER BY id"
                           ).fetchall() == [(2,), (5,)]
        assert con.execute("SELECT id FROM t WHERE s IN ('b', '') "
                           "ORDER BY id").fetchall() == [(2,), (5,)]
        assert con.execute("SELECT id FROM t WHERE s NOT IN ('a', NULL)"
                           ).fetchall() == []
        assert con.execute("SELECT id FROM t WHERE s LIKE '_' ORDER BY id"
                           ).fetchall() == [(1,), (2,), (4,)]
        assert con.execute("SELECT id FROM t WHERE s IS NULL").fetchall() \
            == [(3,)]
        assert con.execute("SELECT id FROM t WHERE s = ?", ["b"]).fetchall() \
            == [(2,)]
        assert con.execute("SELECT upper(s) || '!' FROM t WHERE id = 2"
                           ).fetchall() == [("B!",)]
        assert con.execute("SELECT min(s), max(s), count(DISTINCT s) FROM t"
                           ).fetchall() == [("", "b", 3)]

    def test_insert_select_moves_between_dictionaries(self, con):
        con.execute("CREATE TABLE u (s VARCHAR)")
        con.execute("INSERT INTO u VALUES ('zzz')")
        con.execute("INSERT INTO u SELECT s FROM t WHERE id <= 3")
        assert con.execute("SELECT s FROM u").fetchall() \
            == [("zzz",), ("a",), ("b",), (None,)]
        assert column_of(con, "u", 0).dictionary.entries().tolist() \
            == [None, "zzz", "a", "b"]

    def test_statistics_widen_from_new_entries_only(self, con):
        stats = column_of(con).stats
        assert (stats.min_value, stats.max_value, stats.ndv) == ("", "b", 3)
        assert (stats.row_count, stats.null_count) == (5, 1)
        con.execute("INSERT INTO t VALUES (6, 'a'), (7, 'zz'), (8, NULL)")
        stats = column_of(con).stats
        assert (stats.min_value, stats.max_value, stats.ndv) == ("", "zz", 4)
        assert (stats.row_count, stats.null_count) == (8, 2)

    def test_export_paths_decode(self, con, tmp_path):
        arrays = con.execute("SELECT s FROM t").fetch_numpy()
        assert arrays["s"].tolist() == ["a", "b", None, "a", ""]
        assert arrays["s"].mask.tolist() == [False, False, True, False, False]
        path = tmp_path / "out.csv"
        con.execute(f"COPY t TO '{path}'")
        assert path.read_text().splitlines()[:5] \
            == ["id,s", "1,a", "2,b", "3,", "4,a"]
        rows, _ = SocketProtocolClient(con).execute("SELECT s FROM t")
        assert rows == [("a",), ("b",), (None,), ("a",), ("",)]


class TestMVCC:
    def test_update_seen_by_writer_not_by_older_snapshot(self, con):
        reader, writer = con.duplicate(), con.duplicate()
        reader.execute("BEGIN")
        assert reader.execute("SELECT s FROM t WHERE id = 1").fetchall() \
            == [("a",)]
        writer.execute("BEGIN")
        writer.execute("UPDATE t SET s = 'new' WHERE id = 1")
        assert writer.execute("SELECT s FROM t WHERE id = 1").fetchall() \
            == [("new",)]
        assert reader.execute("SELECT s FROM t WHERE id = 1").fetchall() \
            == [("a",)]
        writer.execute("COMMIT")
        assert reader.execute("SELECT s, count(*) FROM t GROUP BY s "
                              "ORDER BY s").fetchall() \
            == [("", 1), ("a", 2), ("b", 1), (None, 1)]
        reader.execute("COMMIT")
        assert con.execute("SELECT s FROM t WHERE id = 1").fetchall() \
            == [("new",)]

    def test_rollback_restores_old_codes(self, con):
        before = column_of(con).data[:5].copy()
        con.execute("BEGIN")
        con.execute("UPDATE t SET s = 'tmp' WHERE id IN (1, 3)")
        con.execute("UPDATE t SET s = NULL WHERE id = 2")
        con.execute("ROLLBACK")
        column = column_of(con)
        assert np.array_equal(column.data[:5], before)
        assert column.validity[:5].tolist() == [True, True, False, True, True]
        assert con.execute("SELECT s FROM t ORDER BY id").fetchall() \
            == [("a",), ("b",), (None,), ("a",), ("",)]

    def test_aborted_insert_of_unseen_string_leaves_scans_correct(self, con):
        con.execute("BEGIN")
        con.execute("INSERT INTO t VALUES (9, 'never-committed')")
        con.execute("ROLLBACK")
        assert con.execute("SELECT count(*) FROM t WHERE s = 'never-committed'"
                           ).fetchall() == [(0,)]
        assert con.execute("SELECT s, count(*) FROM t GROUP BY s ORDER BY s"
                           ).fetchall() \
            == [("", 1), ("a", 2), ("b", 1), (None, 1)]
        # The entry stays (append-only) until a compaction drops it.
        assert "never-committed" in column_of(con).dictionary.entries().tolist()

    def test_update_to_null_stores_the_null_code(self, con):
        con.execute("UPDATE t SET s = NULL WHERE id = 1")
        column = column_of(con)
        assert column.data[0] == 0 and not column.validity[0]


def reopen(path):
    return repro.connect(str(path))


class TestPersistence:
    @pytest.mark.parametrize("kind", ["low_ndv", "all_distinct", "all_null"])
    def test_checkpoint_reopen_and_wal_replay(self, tmp_path, kind):
        rows = SEGMENT_ROWS + 5000  # two segments
        make = {"low_ndv": lambda i: f"tag{i % 7}",
                "all_distinct": lambda i: f"value-{i}",
                "all_null": lambda i: None}[kind]
        first = np.array([make(i) for i in range(rows)], dtype=object)
        second = np.array([make(i) for i in range(rows, rows + 300)],
                          dtype=object)
        valid = kind != "all_null"
        path = tmp_path / "strings.qdb"
        con = repro.connect(str(path), config={"checkpoint_on_close": False})
        con.execute("CREATE TABLE t (id INTEGER, s VARCHAR)")

        def append(start, values):
            with con.appender("t") as appender:
                appender.append_numpy(
                    {"id": np.arange(start, start + len(values),
                                     dtype=np.int32), "s": values},
                    {"s": np.full(len(values), valid)})

        append(0, first)
        con.execute("CHECKPOINT")
        append(rows, second)                      # lives in the WAL only
        con.execute("UPDATE t SET s = 'patched' WHERE id = 3")
        con.close()

        con = reopen(path)
        expected = first.tolist() + second.tolist()
        expected[3] = "patched"
        got = con.execute("SELECT s FROM t ORDER BY id").fetch_numpy()["s"]
        assert got.tolist() == expected
        column = column_of(con)
        assert column.data.dtype == np.int32
        distinct = len(set(expected) - {None})
        # 'value-3' was overwritten but stays until a compaction drops it.
        overwritten = 1 if kind == "all_distinct" else 0
        assert column.dictionary.size == distinct + 1 + overwritten
        con.close()

    def test_dictionary_shrinks_after_delete_and_checkpoint(self, tmp_path):
        path = tmp_path / "shrink.qdb"
        con = repro.connect(str(path))
        con.execute("CREATE TABLE t (id INTEGER, s VARCHAR)")
        con.execute("INSERT INTO t VALUES (1, 'keep'), (2, 'drop-a'), "
                    "(3, 'drop-b'), (4, 'keep')")
        held = scan_strings(con)
        assert column_of(con).dictionary.size == 4
        con.execute("DELETE FROM t WHERE id IN (2, 3)")
        con.execute("CHECKPOINT")
        column = column_of(con)
        assert column.dictionary.entries().tolist() == [None, "keep"]
        assert column.data[:2].tolist() == [1, 1]
        assert column.stats.ndv == 1
        # Codes handed out earlier still resolve against the old one.
        assert held.codes is not None
        assert held.to_pylist() == ["keep", "drop-a", "drop-b", "keep"]
        con.execute("INSERT INTO t VALUES (5, 'later')")
        con.close()
        con = reopen(path)
        assert con.execute("SELECT s FROM t ORDER BY id").fetchall() \
            == [("keep",), ("keep",), ("later",)]
        con.close()


class TestDroppedTablesAreReleased:
    def test_in_memory_drop_loop_keeps_tables_collectable(self):
        con = repro.connect()
        con.execute("CREATE TABLE other (x INTEGER)")
        old = con.duplicate()
        tables = []
        for round_ in range(4):
            con.execute("CREATE TABLE t (id INTEGER, s VARCHAR)")
            with con.appender("t") as appender:
                appender.append_numpy({
                    "id": np.arange(1000, dtype=np.int32),
                    "s": np.array([f"r{round_}-{i}" for i in range(1000)],
                                  dtype=object)})
            del appender  # it references the table it filled
            tables.append(weakref.ref(column_of(con).table))
            if round_ == 1:
                # An older snapshot opened while this incarnation exists.
                old.execute("BEGIN")
                assert old.execute("SELECT count(*) FROM t").fetchall() \
                    == [(1000,)]
            con.execute("DROP TABLE t")
        gc.collect()
        alive = [reference() is not None for reference in tables]
        # Round 0 was dropped before the old snapshot began and is gone;
        # everything the snapshot can still see is kept for it.
        assert alive[0] is False
        assert alive[1] is True
        assert old.execute("SELECT min(s) FROM t").fetchall() == [("r1-0",)]
        old.execute("COMMIT")
        con.execute("CREATE TABLE last (x INTEGER)")
        con.execute("DROP TABLE last")  # the next drop commit prunes
        gc.collect()
        assert [reference() is not None for reference in tables] \
            == [False] * 4
        con.close()
