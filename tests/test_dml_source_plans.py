"""UPDATE and DELETE find their rows through the table scan.

Each runs a source plan -- a scan that also reads the row-id column, the
WHERE filter, and a projection of the row id plus the SET values -- so DML
gets what every SELECT gets from the scan: zone maps, column pruning and
a ``rows_scanned`` count in the statement log.
"""

import threading

import numpy as np
import pytest

import repro
from repro.errors import (BinderError, ConstraintError, ConversionError,
                          TransactionConflict)
from repro.execution.parallel import MorselDriver
from repro.execution.scan import _extract_zone_conditions
from repro.optimizer.cost import _get_stats
from repro.planner.expressions import BoundColumnRef, BoundConstant, \
    BoundOperator
from repro.planner.logical import ColumnSchema, LogicalGet
from repro.storage.table_data import ROW_ID_COLUMN, SCAN_CHUNK_ROWS
from repro.types import BIGINT, BOOLEAN, INTEGER

ROWS = 200_000


def logged_rows_scanned(con, sql):
    rows = con.execute("SELECT sql, rows_scanned FROM repro_statement_log()"
                       ).fetchall()
    return [scanned for text, scanned in rows if text == sql][-1]


@pytest.fixture
def ordered():
    """200k rows ordered on ``batch`` (zone maps prune it), ``v`` not."""
    con = repro.connect()
    con.execute("CREATE TABLE m (batch INTEGER, v INTEGER, x DOUBLE, "
                "tag VARCHAR)")
    with con.appender("m") as appender:
        appender.append_numpy({
            "batch": (np.arange(ROWS) // 1000).astype(np.int32),
            "v": (np.arange(ROWS) % 97).astype(np.int32),
            "x": np.arange(ROWS, dtype=np.float64),
            "tag": np.array(["a", "b", "c"], dtype=object)[
                np.arange(ROWS) % 3],
        })
    yield con
    con.close()


def morsel_threads():
    return [thread for thread in threading.enumerate()
            if thread.name.startswith("repro-morsel")]


class TestRowsScanned:
    def test_update_logs_the_rows_it_fetched(self, ordered):
        sql = "UPDATE m SET x = x + 1 WHERE v = 3"
        updated = ordered.execute(sql).rowcount
        assert updated == int(np.count_nonzero(np.arange(ROWS) % 97 == 3))
        # v is not ordered: no zone is skipped, every row is fetched once.
        assert logged_rows_scanned(ordered, sql) == ROWS

    def test_delete_prunes_zones_on_a_parameter(self, ordered):
        sql = "DELETE FROM m WHERE batch <= ?"
        assert ordered.execute(sql, (5,)).rowcount == 6_000
        scanned = logged_rows_scanned(ordered, sql)
        assert 0 < scanned < ROWS
        assert scanned == SCAN_CHUNK_ROWS
        assert ordered.query_value("SELECT count(*) FROM m") == ROWS - 6_000

    def test_update_that_matches_nothing_fetches_nothing(self, ordered):
        sql = "UPDATE m SET x = NULL WHERE batch = -999"
        assert ordered.execute(sql).rowcount == 0
        assert logged_rows_scanned(ordered, sql) == 0

    def test_executemany_bills_every_parameter_set(self):
        con = repro.connect(config={"result_cache_entries": 0})
        rows = 100_000
        con.execute("CREATE TABLE t (k INTEGER, g INTEGER)")
        with con.appender("t") as appender:
            appender.append_numpy({"k": np.arange(rows, dtype=np.int32),
                                   "g": np.arange(rows, dtype=np.int32) % 7})
        sql = "DELETE FROM t WHERE k = ?"
        assert con.executemany(sql, [(5,), (99999,), (50000,)]).rowcount == 3
        # Each set fetches the one zone holding its key: two whole zones
        # and the table's 1,696-row tail.
        assert logged_rows_scanned(con, sql) \
            == 2 * SCAN_CHUNK_ROWS + rows % SCAN_CHUNK_ROWS == 34_464

        # The statement peaks at its hungriest set, not at its last one.
        con.execute("CREATE TABLE s (g INTEGER, n BIGINT)")
        sql = "INSERT INTO s SELECT g, count(*) FROM t WHERE k < ? GROUP BY g"
        alone = []
        for limit in (1_000, 60_000, 10):
            con.execute(sql, (limit,))
            alone.append(con.database.statement_log.records()[-1]
                         .memory_bytes)
        con.executemany(sql, [(1_000,), (60_000,), (10,)])
        assert con.database.statement_log.records()[-1].memory_bytes \
            == max(alone) > alone[-1]
        con.close()

    def test_executemany_bind_error_bills_earlier_sets_once(self):
        con = repro.connect(config={"result_cache_entries": 0})
        rows = 100_000
        con.execute("CREATE TABLE t (k INTEGER)")
        with con.appender("t") as appender:
            appender.append_numpy({"k": np.arange(rows, dtype=np.int32)})
        sql = "DELETE FROM t WHERE k = ?"
        # The second set fails to bind, before it runs any scan: the bill
        # holds the first set's one zone, once.
        with pytest.raises(BinderError):
            con.executemany(sql, [(5,), ("abc",)])
        record = con.database.statement_log.records()[-1]
        assert record.error == "BinderError"
        assert record.rows_scanned == SCAN_CHUNK_ROWS
        assert con.execute("SELECT count(*) FROM t").fetchall() == [(rows,)]
        con.close()


class TestRowIdColumn:
    def test_scan_reads_physical_row_ids(self, con):
        con.execute("CREATE TABLE t (a INTEGER)")
        con.execute("INSERT INTO t VALUES (10), (11), (12), (13)")
        con.execute("DELETE FROM t WHERE a = 11")
        manager = con.database.transaction_manager
        transaction = manager.begin()
        try:
            table = con.database.catalog.get_table("t", transaction)
            chunks = list(table.data.scan(transaction, [ROW_ID_COLUMN, 0]))
        finally:
            manager.rollback(transaction)
        assert len(chunks) == 1
        row_ids, values = chunks[0].columns
        assert row_ids.dtype == BIGINT
        assert row_ids.data.tolist() == [0, 2, 3]
        assert values.data.tolist() == [10, 12, 13]

    def test_row_id_never_reads_as_a_column(self, con):
        con.execute("CREATE TABLE t (a INTEGER, b INTEGER)")
        con.execute("INSERT INTO t VALUES (1, 2)")
        manager = con.database.transaction_manager
        transaction = manager.begin()
        table = con.database.catalog.get_table("t", transaction)
        manager.rollback(transaction)
        assert ROW_ID_COLUMN >= len(table.columns)
        get = LogicalGet(table, [0, ROW_ID_COLUMN],
                         [ColumnSchema("a", INTEGER),
                          ColumnSchema("rowid", BIGINT)])
        assert _get_stats(get, 0) is not None
        assert _get_stats(get, 1) is None
        on_row_id = BoundOperator(
            "<", [BoundColumnRef(1, BIGINT, "rowid"), BoundConstant(5, BIGINT)],
            BOOLEAN)
        assert _extract_zone_conditions([on_row_id], [0, ROW_ID_COLUMN]) == []

    @pytest.mark.parametrize("sql", [
        "SELECT rowid FROM t",
        "SELECT a FROM t WHERE rowid = 0",
        "UPDATE t SET a = rowid",
        "DELETE FROM t WHERE rowid = 0",
    ])
    def test_sql_cannot_name_the_row_id(self, con, sql):
        con.execute("CREATE TABLE t (a INTEGER)")
        con.execute("INSERT INTO t VALUES (1)")
        with pytest.raises(BinderError, match="rowid.*not found"):
            con.execute(sql)


class TestParallelDML:
    @pytest.fixture
    def parallel(self):
        con = repro.connect(config={"threads": 4,
                                    "morsel_size": SCAN_CHUNK_ROWS})
        con.execute("CREATE TABLE p (k INTEGER, x INTEGER)")
        with con.appender("p") as appender:
            appender.append_numpy({
                "k": np.arange(ROWS, dtype=np.int32),
                "x": (np.arange(ROWS) % 10).astype(np.int32),
            })
        yield con
        con.close()

    def test_dml_scans_without_morsel_workers(self, parallel, monkeypatch):
        # A DML scan streams chunk by chunk in place at every ``threads``
        # value: morsel workers would queue storage views of the columns
        # the statement writes, and each write would copy the column.
        drives = []
        monkeypatch.setattr(MorselDriver, "map",
                            lambda driver, tasks: drives.append(tasks))
        assert parallel.execute(
            "UPDATE p SET x = x + 1 WHERE x > 0").rowcount == ROWS * 9 // 10
        assert parallel.execute("DELETE FROM p WHERE x = 5").rowcount \
            == ROWS // 10
        assert drives == []

    @pytest.mark.parametrize("threads", [1, 4])
    def test_each_row_updated_exactly_once(self, threads):
        con = repro.connect(config={"threads": threads,
                                    "morsel_size": SCAN_CHUNK_ROWS})
        con.execute("CREATE TABLE t (x INTEGER)")
        with con.appender("t") as appender:
            appender.append_numpy({"x": np.arange(ROWS, dtype=np.int32)})
        assert con.execute(
            "UPDATE t SET x = x + 1 WHERE x > 0").rowcount == ROWS - 1
        values = np.sort(con.execute("SELECT x FROM t").fetch_numpy()["x"])
        expected = np.arange(ROWS)
        expected[1:] += 1
        assert values.tolist() == expected.tolist()
        con.close()

    def test_failure_mid_scan_stops_the_workers(self, parallel):
        parallel.execute("CREATE TABLE words (s VARCHAR)")
        words = np.array([str(k) for k in range(ROWS)], dtype=object)
        words[190_000:] = "oops"  # only the last morsel fails to cast
        with parallel.appender("words") as appender:
            appender.append_numpy({"s": words})
        with pytest.raises(ConversionError):
            parallel.execute("SELECT sum(CAST(s AS INTEGER)) FROM words")
        assert morsel_threads() == []
        assert parallel.query_value(
            "SELECT sum(CAST(s AS INTEGER)) FROM words WHERE s <> 'oops'") \
            == 190_000 * (190_000 - 1) // 2


class TestSemantics:
    def test_set_reads_columns_where_does_not(self, con):
        con.execute("CREATE TABLE t (a INTEGER, b INTEGER, c INTEGER, "
                    "d VARCHAR)")
        con.execute("INSERT INTO t VALUES (1, 1, 10, 'p'), (2, 2, 20, 'q'), "
                    "(3, 1, 30, 'r')")
        assert con.execute("UPDATE t SET a = c * 2, d = d || 'x' "
                           "WHERE b = 1").rowcount == 2
        assert con.execute("SELECT a, b, c, d FROM t ORDER BY c").fetchall() \
            == [(20, 1, 10, "px"), (2, 2, 20, "q"), (60, 1, 30, "rx")]

    def test_in_subquery_in_update_where(self, populated):
        assert populated.execute(
            "UPDATE sample SET d = -1 WHERE i IN "
            "(SELECT i FROM sample WHERE s = 'alpha')").rowcount == 2
        assert populated.execute(
            "SELECT i FROM sample WHERE d = -1 ORDER BY i").fetchall() \
            == [(1,), (3,)]

    def test_scalar_subquery_in_set_reads_the_old_table(self):
        con = repro.connect(config={"threads": 4,
                                    "morsel_size": SCAN_CHUNK_ROWS})
        con.execute("CREATE TABLE t (x BIGINT)")
        with con.appender("t") as appender:
            appender.append_numpy({"x": np.arange(ROWS, dtype=np.int64)})
        # Evaluated once, before the first row is written.
        assert con.execute(
            "UPDATE t SET x = x + (SELECT max(x) FROM t)").rowcount == ROWS
        assert con.query_value("SELECT min(x) FROM t") == ROWS - 1
        assert con.query_value("SELECT max(x) FROM t") == 2 * (ROWS - 1)
        con.close()

    def test_conflict_found_mid_scan(self):
        con = repro.connect(config={"threads": 4,
                                    "morsel_size": SCAN_CHUNK_ROWS})
        con.execute("CREATE TABLE t (k INTEGER, v INTEGER)")
        with con.appender("t") as appender:
            appender.append_numpy({"k": np.arange(ROWS, dtype=np.int32),
                                   "v": np.zeros(ROWS, dtype=np.int32)})
        other = con.duplicate()
        other.execute("BEGIN")
        other.execute("UPDATE t SET v = 1 WHERE k = 150000")
        with pytest.raises(TransactionConflict):
            con.execute("UPDATE t SET v = 2")
        assert morsel_threads() == []
        other.execute("COMMIT")
        assert con.query_value("SELECT sum(v) FROM t") == 1
        other.close()
        con.close()

    def test_not_null_violation_leaves_the_table_unchanged(self, con):
        con.execute("CREATE TABLE t (k INTEGER NOT NULL, v INTEGER)")
        with con.appender("t") as appender:
            appender.append_numpy({"k": np.arange(ROWS, dtype=np.int32),
                                   "v": np.ones(ROWS, dtype=np.int32)})
        # The first chunks are written before the last one fails.
        with pytest.raises(ConstraintError):
            con.execute("UPDATE t SET k = CASE WHEN k < 190000 THEN 0 "
                        "ELSE NULL END, v = 2")
        assert con.execute("SELECT sum(k), sum(v) FROM t").fetchone() \
            == (ROWS * (ROWS - 1) // 2, ROWS)

    def test_executemany_returns_total_rowcounts(self, populated):
        updated = populated.executemany(
            "UPDATE sample SET d = ? WHERE i <= ?", [(0.0, 2), (1.0, 4)])
        assert updated.rowcount == 6
        deleted = populated.executemany(
            "DELETE FROM sample WHERE i = ?", [(1,), (5,), (9,)])
        assert deleted.rowcount == 2
        assert populated.execute(
            "SELECT i, d FROM sample ORDER BY i").fetchall() \
            == [(2, 1.0), (3, 1.0), (4, 1.0)]
