"""Client API tests: connection lifecycle, results, cursor, appender, protocol."""

import numpy as np
import pytest

import repro
from repro.client.protocol import (
    SocketProtocolClient,
    deserialize_result,
    serialize_result,
)
from repro.errors import ConnectionError as ClosedError
from repro.errors import InvalidInputError


class TestConnectionLifecycle:
    def test_context_manager(self):
        with repro.connect() as con:
            assert con.execute("SELECT 1").fetchvalue() == 1

    def test_closed_connection_rejects_execute(self):
        con = repro.connect()
        con.close()
        with pytest.raises(ClosedError):
            con.execute("SELECT 1")

    def test_double_close_is_fine(self):
        con = repro.connect()
        con.close()
        con.close()

    def test_duplicate_shares_database(self, populated):
        other = populated.duplicate()
        assert other.query_value("SELECT count(*) FROM sample") == 5
        other.close()
        # Closing a duplicate does not close the database.
        assert populated.query_value("SELECT count(*) FROM sample") == 5

    def test_owner_close_closes_database(self):
        con = repro.connect()
        other = con.duplicate()
        con.close()
        with pytest.raises(ClosedError):
            other.execute("SELECT 1")

    def test_open_transaction_rolled_back_on_close(self, db_path):
        con = repro.connect(db_path)
        con.execute("CREATE TABLE t (i INTEGER)")
        other = con.duplicate()
        other.execute("BEGIN")
        other.execute("INSERT INTO t VALUES (1)")
        other.close()  # implicit rollback
        assert con.query_value("SELECT count(*) FROM t") == 0
        con.close()

    def test_config_dict(self):
        con = repro.connect(config={"memory_limit": "64MB", "threads": 2})
        assert con.database.config.memory_limit == 64 * 10**6
        assert con.database.config.threads == 2
        con.close()

    def test_table_names(self, populated):
        assert populated.table_names() == ["sample"]


class TestResults:
    def test_fetchone_sequence(self, populated):
        result = populated.execute("SELECT i FROM sample ORDER BY i")
        assert result.fetchone() == (1,)
        assert result.fetchone() == (2,)
        rest = result.fetchall()
        assert rest == [(3,), (4,), (5,)]
        assert result.fetchone() is None

    def test_fetchmany(self, populated):
        result = populated.execute("SELECT i FROM sample ORDER BY i")
        assert result.fetchmany(2) == [(1,), (2,)]
        assert result.fetchmany(10) == [(3,), (4,), (5,)]

    def test_iteration(self, populated):
        result = populated.execute("SELECT i FROM sample ORDER BY i")
        assert [row[0] for row in result] == [1, 2, 3, 4, 5]

    def test_to_dict(self, populated):
        data = populated.execute(
            "SELECT i, s FROM sample WHERE i <= 2 ORDER BY i").to_dict()
        assert data == {"i": [1, 2], "s": ["alpha", "beta"]}

    def test_names_and_types(self, populated):
        result = populated.execute("SELECT i AS number, s AS tag FROM sample")
        assert result.names == ["number", "tag"]
        from repro.types import INTEGER, VARCHAR

        assert result.types == [INTEGER, VARCHAR]

    def test_fetch_numpy(self, populated):
        arrays = populated.execute(
            "SELECT i, d FROM sample ORDER BY i").fetch_numpy()
        np.testing.assert_array_equal(arrays["i"], [1, 2, 3, 4, 5])
        assert isinstance(arrays["d"], np.ma.MaskedArray)  # d has a NULL
        assert arrays["d"].mask.sum() == 1

    def test_fetch_numpy_empty_result(self, populated):
        arrays = populated.execute(
            "SELECT i FROM sample WHERE i > 100").fetch_numpy()
        assert len(arrays["i"]) == 0

    def test_fetch_chunk_bulk_access(self, populated):
        result = populated.execute("SELECT i FROM sample")
        chunk = result.fetch_chunk()
        assert chunk.size == 5
        assert result.fetch_chunk() is None

    def test_rowcount_for_dml(self, populated):
        result = populated.execute("UPDATE sample SET d = 0 WHERE i <= 2")
        assert result.rowcount == 2
        result = populated.execute("DELETE FROM sample WHERE i = 5")
        assert result.rowcount == 1

    def test_closed_result_rejects_fetch(self, populated):
        result = populated.execute("SELECT i FROM sample")
        result.close()
        with pytest.raises(ClosedError):
            result.fetchall()

    def test_multi_statement_returns_last(self, con):
        result = con.execute("CREATE TABLE t (i INTEGER); "
                             "INSERT INTO t VALUES (1); SELECT i FROM t")
        assert result.fetchall() == [(1,)]


class TestStreaming:
    def test_streaming_result(self, populated):
        result = populated.execute("SELECT i FROM sample ORDER BY i",
                                   stream=True)
        assert result.fetchone() == (1,)
        result.close()

    def test_streaming_commits_on_exhaustion(self, populated):
        result = populated.execute("SELECT count(*) FROM sample", stream=True)
        assert result.fetchall() == [(5,)]
        # Transaction released; a checkpoint-requiring write still works.
        populated.execute("INSERT INTO sample VALUES (6, 'zeta', 0.0)")

    def test_streaming_dml_applies_on_close(self, populated):
        populated.execute("UPDATE sample SET d = 1", stream=True).close()
        assert populated.query_value("SELECT sum(d) FROM sample") == 5.0

    def test_executemany(self, con):
        con.execute("CREATE TABLE t (a INTEGER, b VARCHAR)")
        con.executemany("INSERT INTO t VALUES (?, ?)",
                        [(1, "x"), (2, "y"), (3, None)])
        assert con.query_value("SELECT count(*) FROM t") == 3


class TestCursor:
    def test_sqlite_style_stepping(self, populated):
        cursor = populated.cursor()
        cursor.execute("SELECT i, s FROM sample ORDER BY i")
        values = []
        while cursor.step():
            values.append((cursor.column_value(0), cursor.column_value(1)))
        assert values[0] == (1, "alpha")
        assert len(values) == 5
        cursor.finalize()

    def test_column_metadata(self, populated):
        cursor = populated.cursor()
        cursor.execute("SELECT i AS num FROM sample")
        assert cursor.column_count() == 1
        assert cursor.column_name(0) == "num"
        assert cursor.description[0][0] == "num"

    def test_dbapi_fetch(self, populated):
        with populated.cursor() as cursor:
            cursor.execute("SELECT i FROM sample ORDER BY i")
            assert cursor.fetchone() == (1,)
            assert len(cursor.fetchall()) == 4

    def test_step_before_execute(self, populated):
        with pytest.raises(InvalidInputError):
            populated.cursor().step()


class TestAppender:
    def test_append_rows(self, con):
        con.execute("CREATE TABLE t (i INTEGER, s VARCHAR)")
        with con.appender("t") as appender:
            for index in range(100):
                appender.append_row(index, f"row{index}")
        assert con.query_value("SELECT count(*) FROM t") == 100

    def test_abort_discards(self, con):
        con.execute("CREATE TABLE t (i INTEGER)")
        appender = con.appender("t")
        appender.append_row(1)
        appender.abort()
        assert con.query_value("SELECT count(*) FROM t") == 0

    def test_exception_aborts(self, con):
        con.execute("CREATE TABLE t (i INTEGER)")
        with pytest.raises(RuntimeError):
            with con.appender("t") as appender:
                appender.append_row(1)
                raise RuntimeError("boom")
        assert con.query_value("SELECT count(*) FROM t") == 0

    def test_wrong_arity(self, con):
        con.execute("CREATE TABLE t (i INTEGER, s VARCHAR)")
        with pytest.raises(InvalidInputError):
            con.appender("t").append_row(1)

    def test_not_null_enforced(self, con):
        con.execute("CREATE TABLE t (i INTEGER NOT NULL)")
        appender = con.appender("t")
        appender.append_row(None)
        with pytest.raises(repro.ConstraintError):
            appender.flush()
        appender.abort()

    def test_append_numpy_type_coercion(self, con):
        con.execute("CREATE TABLE t (i INTEGER, d DOUBLE)")
        with con.appender("t") as appender:
            appender.append_numpy({
                "i": np.arange(10, dtype=np.int64),  # narrowed to int32
                "d": np.arange(10, dtype=np.float32),
            })
        assert con.query_value("SELECT sum(i) FROM t") == 45

    def test_append_numpy_with_validity(self, con):
        con.execute("CREATE TABLE t (i INTEGER)")
        with con.appender("t") as appender:
            appender.append_numpy(
                {"i": np.arange(4, dtype=np.int32)},
                validities={"i": np.array([True, False, True, False])})
        assert con.query_value("SELECT count(i) FROM t") == 2

    def test_append_numpy_none_is_null(self, con):
        con.execute("CREATE TABLE t (s VARCHAR)")
        with con.appender("t") as appender:
            appender.append_numpy(
                {"s": np.array(["a", None, "b", "a"], dtype=object)})
        assert con.query_value("SELECT count(s) FROM t") == 3
        assert con.query_value("SELECT count(*) FROM t WHERE s IS NULL") == 1
        assert con.execute("SELECT s FROM t ORDER BY s").fetchall() \
            == [("a",), ("a",), ("b",), (None,)]
        assert con.execute("SELECT min(s), max(s) FROM t").fetchall() \
            == [("a", "b")]

    def test_missing_column_rejected(self, con):
        con.execute("CREATE TABLE t (i INTEGER, s VARCHAR)")
        with pytest.raises(InvalidInputError):
            with con.appender("t") as appender:
                appender.append_numpy({"i": np.arange(3, dtype=np.int32)})


class TestSocketProtocol:
    def test_round_trip(self, populated):
        client = SocketProtocolClient(populated)
        rows, stats = client.execute("SELECT i, s, d FROM sample ORDER BY i")
        direct = populated.execute("SELECT i, s, d FROM sample ORDER BY i"
                                   ).fetchall()
        assert rows == direct
        assert stats["bytes_transferred"] > 0
        assert stats["simulated_wire_seconds"] > 0

    def test_wire_time_scales_with_bandwidth(self, populated):
        fast = SocketProtocolClient(populated, bandwidth=10**9, latency=0)
        slow = SocketProtocolClient(populated, bandwidth=10**6, latency=0)
        _, fast_stats = fast.execute("SELECT i FROM sample")
        _, slow_stats = slow.execute("SELECT i FROM sample")
        assert slow_stats["simulated_wire_seconds"] > \
            fast_stats["simulated_wire_seconds"] * 100

    def test_serialize_handles_all_types(self, con):
        con.execute("CREATE TABLE t (b BOOLEAN, i BIGINT, d DOUBLE, "
                    "s VARCHAR, dt DATE, ts TIMESTAMP)")
        con.execute("INSERT INTO t VALUES (true, 42, 1.5, 'hi', "
                    "CAST('2020-01-01' AS DATE), "
                    "CAST('2020-01-01 12:00:00' AS TIMESTAMP)), "
                    "(NULL, NULL, NULL, NULL, NULL, NULL)")
        client = SocketProtocolClient(con)
        rows, _ = client.execute("SELECT * FROM t")
        assert rows == con.execute("SELECT * FROM t").fetchall()


class TestPragmas:
    def test_set_and_read_option(self, con):
        con.execute("PRAGMA memory_limit='128MB'")
        value = con.execute("PRAGMA memory_limit").fetchvalue()
        assert value == str(128 * 10**6)

    def test_unknown_pragma(self, con):
        with pytest.raises(InvalidInputError):
            con.execute("PRAGMA frobnicate=1")

    def test_database_size(self, file_con):
        file_con.execute("CREATE TABLE t (i INTEGER)")
        file_con.execute("INSERT INTO t VALUES (1)")
        file_con.execute("CHECKPOINT")
        assert file_con.execute("PRAGMA database_size").fetchvalue() > 0

    def test_memory_usage_pragma(self, populated):
        assert populated.execute("PRAGMA memory_usage").fetchvalue() > 0

    def test_show_tables(self, populated):
        assert populated.execute("PRAGMA show_tables").fetchall() == [("sample",)]

    def test_table_info(self, populated):
        lines = [row[0] for row in
                 populated.execute("PRAGMA table_info(sample)").fetchall()]
        assert lines[0].startswith("i INTEGER")
