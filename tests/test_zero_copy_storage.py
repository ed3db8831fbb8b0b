"""Zero-copy hand-over of table storage.

A scan hands out read-only views of a table's master arrays; the two
in-place writers (UPDATE and its rollback) first give the column arrays of
its own while any view of the current ones is alive (copy-on-write behind a
reference-count alias check).  So an exported array never changes, whatever
is written to the table afterwards, and writing into it raises.
"""

import gc

import numpy as np
import pytest

import repro
from repro.storage.table_data import shared
from repro.types import BIGINT, DataChunk, Vector

ROWS = 40_000  # three scan chunks
SOURCE = {
    "a": np.arange(ROWS, dtype=np.int64),
    "b": np.arange(ROWS, dtype=np.float64) / 4,
    "s": np.array([f"w{i % 11}" for i in range(ROWS)], dtype=object),
}


def load(con, name="t"):
    con.execute(f"CREATE TABLE {name} (a BIGINT, b DOUBLE, s VARCHAR)")
    with con.appender(name) as appender:
        appender.append_numpy(SOURCE)


def storage(con, name="t"):
    """The table's ColumnData list (read outside any statement)."""
    manager = con.database.transaction_manager
    transaction = manager.begin()
    try:
        return con.database.catalog.get_table(name, transaction).data.columns
    finally:
        manager.rollback(transaction)


def viewed(column):
    """Whether a view of ``column``'s values may be alive.  Not inside an
    ``assert``: pytest's rewriting keeps ``column.data`` in a temporary,
    which is one more reference."""
    return shared(column.data)


def streamed(con, sql):
    """Every chunk of a streamed result, held by the caller."""
    result = con.execute(sql, stream=True)
    chunks = []
    while True:
        chunk = result.fetch_chunk()
        if chunk is None:
            return chunks
        chunks.append(chunk)


def exported(con, stream):
    """The whole table as {name: array}, through fetch_numpy or chunks."""
    sql = "SELECT a, b, s FROM t"
    if not stream:
        return con.execute(sql).fetch_numpy()
    chunks = streamed(con, sql)
    return {name: [chunk.columns[position].data for chunk in chunks]
            for position, name in enumerate("abs")}


def assert_source(arrays):
    for name, want in SOURCE.items():
        got = arrays[name]
        got = np.concatenate(got) if isinstance(got, list) else got
        np.testing.assert_array_equal(got, want)


class TestReadOnlyViews:
    def test_fetch_numpy_views_storage_read_only(self, con):
        load(con)
        out = con.execute("SELECT a, b, s FROM t").fetch_numpy()
        columns = storage(con)
        for name, column in zip("ab", columns):
            assert np.shares_memory(out[name], column.data)
            assert not out[name].flags.writeable
            with pytest.raises(ValueError):
                out[name][0] = 7
        # Decoded VARCHAR is the result's own array.
        assert out["s"].flags.writeable
        assert_source(out)

    def test_fetch_chunk_views_storage_read_only(self, con):
        load(con)
        chunks = streamed(con, "SELECT a, b FROM t")
        assert len(chunks) == 3
        for chunk in chunks:
            for vector in chunk.columns:
                assert not vector.data.flags.writeable
                with pytest.raises(ValueError):
                    vector.data[0] = 1
                with pytest.raises(ValueError):
                    vector.validity[0] = False

    @pytest.mark.parametrize("sql", [
        "SELECT a, b FROM t ORDER BY a DESC",
        "SELECT a, b FROM t WHERE a % 3 = 0",
        "SELECT a + 1 AS a, b * 2 AS b FROM t",
    ])
    def test_sorted_filtered_computed_results_stay_writable(self, con, sql):
        load(con)
        out = con.execute(sql).fetch_numpy()
        for array in out.values():
            assert array.flags.writeable
            array[0] = -1


class TestHeldExportsKeepTheirValues:
    @pytest.mark.parametrize("stream", [False, True], ids=["eager", "stream"])
    @pytest.mark.parametrize("writer", ["same", "other"])
    def test_update_delete_rollback(self, stream, writer):
        with repro.serve() as server:
            with server.session("reader") as reader, \
                    server.session("writer") as other:
                reader = reader.connection  # sessions do not stream
                load(reader)
                write = reader if writer == "same" else other
                held = exported(reader, stream)
                write.execute("UPDATE t SET a = -a, b = 0")
                write.execute("BEGIN")
                write.execute("UPDATE t SET a = 5 WHERE a < -10")
                write.execute("ROLLBACK")
                write.execute("DELETE FROM t WHERE a > -100")
                assert_source(held)
                assert reader.execute(
                    "SELECT count(*), min(a), max(b) FROM t").fetchall() \
                    == [(ROWS - 100, -(ROWS - 1), 0.0)]

    def test_checkpoint_with_compaction(self, tmp_path):
        con = repro.connect(str(tmp_path / "zero.qdb"))
        try:
            load(con)
            con.execute("CHECKPOINT")
            held_numpy = exported(con, False)
            held_chunks = exported(con, True)
            con.execute("DELETE FROM t WHERE a % 2 = 0")
            con.execute("UPDATE t SET a = 0")
            con.execute("CHECKPOINT")
            assert storage(con)[0].table.row_count == ROWS // 2
            assert_source(held_numpy)
            assert_source(held_chunks)
        finally:
            con.close()

    def test_uncommitted_own_writes_survive_rollback(self, con):
        load(con)
        con.execute("BEGIN")
        con.execute("UPDATE t SET b = -1 WHERE a < 10")
        seen = con.execute("SELECT b FROM t").fetch_numpy()["b"]
        con.execute("ROLLBACK")
        np.testing.assert_array_equal(seen[:10], -1)
        np.testing.assert_array_equal(seen[10:], SOURCE["b"][10:])
        assert con.execute("SELECT min(b) FROM t").fetchall() == [(0.0,)]

    def test_open_stream_reads_its_snapshot(self):
        with repro.serve() as server:
            with server.session("reader") as reader, \
                    server.session("writer") as writer:
                reader = reader.connection
                load(reader)
                result = reader.execute("SELECT a FROM t", stream=True)
                first = result.fetch_chunk()
                writer.execute("UPDATE t SET a = -1")
                rest = []
                while True:
                    chunk = result.fetch_chunk()
                    if chunk is None:
                        break
                    rest.append(chunk.columns[0].data)
                np.testing.assert_array_equal(
                    np.concatenate([first.columns[0].data] + rest),
                    SOURCE["a"])


class TestCopyOnWrite:
    def test_update_without_readers_writes_in_place(self, con):
        load(con)
        con.execute("SELECT a, b FROM t").fetch_numpy()  # dropped at once
        column = storage(con)[0]
        before = id(column.data), id(column.validity)
        con.execute("UPDATE t SET a = a + 1")
        con.execute("UPDATE t SET a = a - 1 WHERE b > 10")
        assert (id(column.data), id(column.validity)) == before

    @pytest.mark.parametrize("threads", [2, 4])
    def test_update_writes_in_place_at_any_thread_count(self, threads):
        """A DML scan streams in place however many workers the engine
        may use: no queued morsel chunk views the column it writes."""
        con = repro.connect(config={"threads": threads,
                                    "morsel_size": 16384})
        try:
            load(con)  # three morsels
            column = storage(con)[0]
            before = id(column.data), id(column.validity)
            con.execute("UPDATE t SET a = a + 1")
            con.execute("UPDATE t SET a = a - 1 WHERE b > 10")
            assert (id(column.data), id(column.validity)) == before
        finally:
            con.close()

    def test_update_reading_the_columns_it_writes_in_place(self, con):
        """A swap's SET list reads views of the very columns it writes."""
        con.execute("CREATE TABLE p (x BIGINT, y BIGINT)")
        with con.appender("p") as appender:
            appender.append_numpy({"x": SOURCE["a"], "y": -SOURCE["a"]})
        columns = storage(con, "p")
        before = [id(column.data) for column in columns]
        con.execute("UPDATE p SET x = y, y = x")
        con.execute("UPDATE p SET x = x")
        assert [id(column.data) for column in columns] == before
        out = con.execute("SELECT x, y FROM p").fetch_numpy()
        np.testing.assert_array_equal(out["x"], -SOURCE["a"])
        np.testing.assert_array_equal(out["y"], SOURCE["a"])

    def test_update_while_a_chunk_is_held_copies(self, con):
        load(con)
        column = storage(con)[0]
        result = con.execute("SELECT a FROM t", stream=True)
        chunk = result.fetch_chunk()
        result.close()
        before = id(column.data)
        con.execute("UPDATE t SET a = -1 WHERE a < 5")
        assert id(column.data) != before
        np.testing.assert_array_equal(chunk.columns[0].data,
                                      SOURCE["a"][:len(chunk)])
        # The copy is unshared: the next write goes in place.
        del chunk
        gc.collect()
        before = id(column.data)
        con.execute("UPDATE t SET a = -2 WHERE a < 0")
        assert id(column.data) == before


class TestAliasCheck:
    def test_views_count_until_dropped(self, con):
        load(con)
        column = storage(con)[0]
        assert not viewed(column)
        out = con.execute("SELECT a FROM t").fetch_numpy()
        assert viewed(column)
        inner = out["a"][5:9]  # a view of a view still holds the base
        del out
        assert viewed(column)
        del inner
        assert not viewed(column)

    def test_chunks_joined_and_split_views_count(self, con):
        load(con)
        column = storage(con)[0]
        chunks = streamed(con, "SELECT a FROM t")
        joined = DataChunk.concat_many(chunks)
        del chunks
        assert np.shares_memory(joined.columns[0].data, column.data)
        assert viewed(column)
        pieces = list(joined.split(1000))
        del joined
        assert viewed(column)
        del pieces
        assert not viewed(column)

    def test_plain_arrays(self):
        base = np.arange(10)
        alone = shared(base)
        view = base[2:5]
        held = shared(base)
        del view
        assert (alone, held, shared(base)) == (False, True, False)


def read_only_views(base, bounds):
    views = []
    for start, end in bounds:
        view = base[start:end]
        view.flags.writeable = False
        views.append(Vector(BIGINT, view))
    return views


class TestConcatMany:
    def test_adjacent_read_only_views_join_without_copy(self):
        base = np.arange(100, dtype=np.int64)
        joined = Vector.concat_many(
            read_only_views(base, [(10, 30), (30, 31), (31, 70)]))
        assert joined.data.base is base
        assert not joined.data.flags.writeable
        np.testing.assert_array_equal(joined.data, base[10:70])

    @pytest.mark.parametrize("bounds", [
        [(0, 10), (11, 20)],          # a gap
        [(10, 20), (0, 10)],          # reversed
        [(0, 10), (5, 15)],           # overlapping
    ], ids=["gap", "reversed", "overlap"])
    def test_other_views_concatenate(self, bounds):
        base = np.arange(100, dtype=np.int64)
        joined = Vector.concat_many(read_only_views(base, bounds))
        assert not np.shares_memory(joined.data, base)
        np.testing.assert_array_equal(
            joined.data, np.concatenate([base[a:b] for a, b in bounds]))

    def test_different_bases_concatenate(self):
        first, second = np.arange(10), np.arange(10, 20)
        joined = Vector.concat_many(read_only_views(first, [(0, 10)])
                                    + read_only_views(second, [(0, 10)]))
        assert not np.shares_memory(joined.data, first)
        np.testing.assert_array_equal(joined.data, np.arange(20))

    def test_writable_views_concatenate(self):
        """A sort's split chunks are writable views: joining them must not
        alias the sort's array (ORDER BY results stay private)."""
        base = np.arange(100, dtype=np.int64)
        joined = Vector.concat_many(
            [Vector(BIGINT, base[0:50]), Vector(BIGINT, base[50:100])])
        assert not np.shares_memory(joined.data, base)
        assert joined.data.flags.writeable


@pytest.mark.parametrize("threads", [1, 4])
def test_threads_agree(threads):
    con = repro.connect(config={"threads": threads, "morsel_size": 16384,
                                "result_cache_entries": 0})
    try:
        load(con)
        held = exported(con, False)
        held_chunks = exported(con, True)
        con.execute("UPDATE t SET b = b + 1 WHERE a % 5 = 0")
        con.execute("UPDATE t SET a = a * 2")
        con.execute("DELETE FROM t WHERE a % 3 = 0")
        answer = con.execute(
            "SELECT count(*), sum(a), sum(b) FROM t").fetchall()
        assert_source(held)
        assert_source(held_chunks)
        a = SOURCE["a"] * 2
        b = SOURCE["b"] + (SOURCE["a"] % 5 == 0)
        keep = a % 3 != 0
        assert answer == [(int(keep.sum()), int(a[keep].sum()),
                           pytest.approx(float(b[keep].sum()), rel=1e-12))]
    finally:
        con.close()
