"""Zonemap scan-skipping tests (paper §6: "skip irrelevant blocks of rows").

Correctness is the hard part: skipping must never change results, including
under concurrent updates (MVCC snapshots) and after rollbacks.
"""

import numpy as np
import pytest

import repro
from repro.execution.physical import ExecutionContext
from repro.execution.physical_planner import create_physical_plan
from repro.optimizer import optimize
from repro.planner.binder import Binder
from repro.sql import parse_one


def run_with_stats(con, sql):
    """Execute a query returning (rows, stats dict)."""
    transaction = con.database.transaction_manager.begin()
    try:
        binder = Binder(con.database.catalog, transaction)
        bound = binder.bind_statement(parse_one(sql))
        plan = optimize(bound.plan)
        context = ExecutionContext(transaction, con.database)
        physical = create_physical_plan(plan, context)
        rows = [row for chunk in physical.execute() for row in chunk.to_rows()]
        return rows, context.stats
    finally:
        con.database.transaction_manager.rollback(transaction)


@pytest.fixture
def clustered(con):
    """A table whose column t is clustered (sorted), ideal for zonemaps."""
    con.execute("CREATE TABLE ts (t INTEGER, v INTEGER)")
    n = 200_000
    with con.appender("ts") as appender:
        appender.append_numpy({
            "t": np.arange(n, dtype=np.int32),
            "v": (np.arange(n) % 97).astype(np.int32),
        })
    return con


class TestSkipping:
    def test_range_query_skips_zones(self, clustered):
        sql = "SELECT count(*) FROM ts WHERE t >= 150000 AND t < 151000"
        rows, _ = run_with_stats(clustered, sql)   # warms the zone cache
        rows, stats = run_with_stats(clustered, sql)
        assert rows == [(1000,)]
        assert stats.get("zones_skipped", 0) > 0
        assert stats["rows_scanned"] < 200_000 / 2

    def test_equality_skips(self, clustered):
        rows, _ = run_with_stats(clustered, "SELECT v FROM ts WHERE t = 123456")
        rows, stats = run_with_stats(clustered,
                                     "SELECT v FROM ts WHERE t = 123456")
        assert rows == [(123456 % 97,)]
        assert stats.get("zones_skipped", 0) > 0

    def test_no_match_skips_everything(self, clustered):
        rows, _ = run_with_stats(clustered,
                                 "SELECT t FROM ts WHERE t > 10000000")
        rows, stats = run_with_stats(clustered,
                                     "SELECT t FROM ts WHERE t > 10000000")
        assert rows == []
        assert stats.get("rows_scanned", 0) == 0

    def test_unclustered_column_no_false_skips(self, clustered):
        # v cycles 0..96 in every zone: nothing can be skipped, and nothing
        # may be missed.
        rows, stats = run_with_stats(clustered,
                                     "SELECT count(*) FROM ts WHERE v = 5")
        assert rows == [(200_000 // 97 + (1 if 5 < 200_000 % 97 else 0),)]

    def test_explain_shows_zonemap(self, clustered):
        lines = clustered.execute(
            "EXPLAIN SELECT t FROM ts WHERE t < 10").fetchall()
        text = "\n".join(row[0] for row in lines)
        assert "zonemap=" in text

    def test_results_identical_with_and_without(self, clustered):
        sql = ("SELECT sum(v) FROM ts WHERE t BETWEEN 77777 AND 99999")
        expected = clustered.query_value(sql)
        # Disable zonemaps by clearing conditions: compare against a plain
        # Python check.
        t = np.arange(200_000)
        v = t % 97
        mask = (t >= 77777) & (t <= 99999)
        assert expected == int(v[mask].sum())


class TestMVCCSafety:
    def test_update_disables_zone_skipping(self, clustered):
        """Live undo entries must disable zonemaps: an old snapshot may need
        pre-image values outside the current bounds."""
        reader = clustered.duplicate()
        reader.execute("BEGIN")
        before = reader.query_value(
            "SELECT count(*) FROM ts WHERE t >= 199999")
        assert before == 1
        # Writer moves a low row into the queried range.
        clustered.execute("UPDATE ts SET t = 500000 WHERE t = 0")
        # The reader's snapshot still has t=0; it must NOT see 500000, and
        # must still see exactly one row >= 199999.
        assert reader.query_value(
            "SELECT count(*) FROM ts WHERE t >= 199999") == 1
        assert reader.query_value(
            "SELECT count(*) FROM ts WHERE t = 0") == 1
        reader.execute("COMMIT")
        # After the snapshot advances the new value is visible.
        assert reader.query_value(
            "SELECT count(*) FROM ts WHERE t = 500000") == 1
        reader.close()

    def test_zone_cache_invalidated_by_update(self, clustered):
        sql = "SELECT count(*) FROM ts WHERE t >= 190000"
        run_with_stats(clustered, sql)  # build zone cache
        clustered.execute("UPDATE ts SET t = 190001 WHERE t = 5")
        # Undo entries are still alive until vacuum; correctness first.
        assert clustered.query_value(sql) == 10_001

    def test_rollback_keeps_results_correct(self, clustered):
        sql = "SELECT count(*) FROM ts WHERE t >= 190000"
        assert clustered.query_value(sql) == 10_000
        clustered.execute("BEGIN")
        clustered.execute("UPDATE ts SET t = 195000 WHERE t = 1")
        clustered.execute("ROLLBACK")
        run_with_stats(clustered, sql)
        assert clustered.query_value(sql) == 10_000

    def test_inserted_rows_extend_zones(self, clustered):
        sql = "SELECT count(*) FROM ts WHERE t > 300000"
        run_with_stats(clustered, sql)  # warm cache: nothing matches yet
        clustered.execute("INSERT INTO ts VALUES (400000, 1)")
        assert clustered.query_value(sql) == 1

    def test_deleted_rows_still_conservative(self, clustered):
        clustered.execute("DELETE FROM ts WHERE t >= 100000")
        assert clustered.query_value(
            "SELECT count(*) FROM ts WHERE t >= 100000") == 0
        assert clustered.query_value("SELECT count(*) FROM ts") == 100_000


class TestZoneBounds:
    def test_bounds_computed(self, clustered):
        transaction = clustered.database.transaction_manager.begin()
        table = clustered.database.catalog.get_table("ts", transaction)
        bounds = table.data.columns[0].zone_bounds(0, 16384)
        assert bounds == (0, 16383)
        clustered.database.transaction_manager.rollback(transaction)

    def test_varchar_has_no_zones(self, con):
        con.execute("CREATE TABLE s (x VARCHAR)")
        con.execute("INSERT INTO s VALUES ('a'), ('b')")
        transaction = con.database.transaction_manager.begin()
        table = con.database.catalog.get_table("s", transaction)
        assert table.data.columns[0].zone_bounds(0, 2) is None
        con.database.transaction_manager.rollback(transaction)

    def test_undo_entries_disable_bounds(self, clustered):
        writer = clustered.duplicate()
        writer.execute("BEGIN")
        writer.execute("UPDATE ts SET t = 999 WHERE t = 10")
        transaction = clustered.database.transaction_manager.begin()
        table = clustered.database.catalog.get_table("ts", transaction)
        assert table.data.columns[0].zone_bounds(0, 16384) is None
        clustered.database.transaction_manager.rollback(transaction)
        writer.execute("ROLLBACK")
        writer.close()

    def test_cache_keyed_on_full_window(self, con):
        """Regression: the zone cache must key on (start, end), not start
        alone -- a cached narrow window must never answer a wider one."""
        con.execute("CREATE TABLE g (x INTEGER)")
        con.execute("INSERT INTO g VALUES (1), (2), (3)")
        transaction = con.database.transaction_manager.begin()
        column = con.database.catalog.get_table("g", transaction).data.columns[0]
        assert column.zone_bounds(0, 2) == (1, 2)
        # Same start, wider end: must see row 3, not the cached (1, 2).
        assert column.zone_bounds(0, 3) == (1, 3)
        con.database.transaction_manager.rollback(transaction)

    def test_append_into_tail_segment_then_filter(self, con):
        """Regression for the stale-tail-cache bug: grow the tail segment
        after its bounds were cached, then filter on the new rows."""
        con.execute("CREATE TABLE g (x INTEGER)")
        con.executemany("INSERT INTO g VALUES (?)", [(i,) for i in range(100)])
        sql = "SELECT count(*) FROM g WHERE x >= 100"
        run_with_stats(con, sql)  # caches the tail segment's bounds
        assert con.query_value(sql) == 0
        con.execute("INSERT INTO g VALUES (500)")  # same tail segment
        assert con.query_value(sql) == 1
        assert con.query_value("SELECT count(*) FROM g WHERE x = 500") == 1


class TestChurnCorrectness:
    """Zone-map pruning must match an unpruned scan under churn."""

    def _unpruned(self, con, sql, run=None):
        from repro.storage.table_data import ColumnData

        original = ColumnData.zone_bounds
        ColumnData.zone_bounds = lambda self, start, end: None
        try:
            rows, _ = (run or run_with_stats)(con, sql)
        finally:
            ColumnData.zone_bounds = original
        return rows

    def _assert_matches_unpruned(self, con, sql):
        pruned, _ = run_with_stats(con, sql)
        assert sorted(pruned) == sorted(self._unpruned(con, sql))
        return pruned

    @staticmethod
    def _run_dml(con, sql):
        """The rowcount and the table a DML statement leaves, rolled back,
        plus the rows its scan fetched."""
        con.execute("BEGIN")
        try:
            count = con.execute(sql).rowcount
            table = con.execute("SELECT t, v FROM ts ORDER BY t, v").fetchall()
        finally:
            con.execute("ROLLBACK")
        scanned = con.execute(
            "SELECT sql, rows_scanned FROM repro_statement_log()").fetchall()
        return (count, table), [rows for text, rows in scanned
                                if text == sql][-1]

    def _assert_dml_matches_unpruned(self, con, sql):
        pruned, scanned = self._run_dml(con, sql)
        assert pruned == self._unpruned(con, sql, self._run_dml)
        return pruned[0], scanned

    def test_equality_and_range_after_update(self, clustered):
        clustered.execute("UPDATE ts SET t = 300000 WHERE t < 10")
        for sql in ("SELECT v FROM ts WHERE t = 300000",
                    "SELECT count(*) FROM ts WHERE t >= 250000",
                    "SELECT count(*) FROM ts WHERE t < 10"):
            self._assert_matches_unpruned(clustered, sql)
        assert clustered.query_value(
            "SELECT count(*) FROM ts WHERE t = 300000") == 10
        assert clustered.query_value(
            "SELECT count(*) FROM ts WHERE t < 10") == 0

    def test_after_delete_and_compact(self, clustered):
        clustered.execute("DELETE FROM ts WHERE t BETWEEN 50000 AND 149999")
        transaction = clustered.database.transaction_manager.begin()
        table = clustered.database.catalog.get_table("ts", transaction)
        mask = table.data.visible_mask(transaction, 0, table.data.row_count)
        clustered.database.transaction_manager.rollback(transaction)
        table.data.compact(mask)
        for sql in ("SELECT count(*) FROM ts WHERE t >= 100000",
                    "SELECT count(*) FROM ts WHERE t = 49999",
                    "SELECT count(*) FROM ts WHERE t = 100000"):
            self._assert_matches_unpruned(clustered, sql)
        assert clustered.query_value("SELECT count(*) FROM ts") == 100_000

    def test_dml_after_update(self, clustered):
        clustered.execute("UPDATE ts SET t = 300000 WHERE t < 10")
        for sql in ("DELETE FROM ts WHERE t >= 250000",
                    "UPDATE ts SET v = -1 WHERE t = 300000",
                    "DELETE FROM ts WHERE t < 10",
                    "UPDATE ts SET v = v + 1 WHERE t BETWEEN 1000 AND 1999"):
            self._assert_dml_matches_unpruned(clustered, sql)

    def test_dml_at_zone_boundaries(self, clustered):
        for sql, count in (("UPDATE ts SET v = -1 WHERE t <= 16384", 16385),
                           ("DELETE FROM ts WHERE t >= 180223", 19777),
                           ("DELETE FROM ts WHERE t = 32768", 1),
                           ("UPDATE ts SET t = 0 WHERE t > 199999", 0)):
            changed, scanned = self._assert_dml_matches_unpruned(
                clustered, sql)
            assert changed == count
            assert scanned < 200_000

    def test_dml_after_delete_and_compact(self, clustered):
        clustered.execute("DELETE FROM ts WHERE t BETWEEN 50000 AND 149999")
        transaction = clustered.database.transaction_manager.begin()
        table = clustered.database.catalog.get_table("ts", transaction)
        mask = table.data.visible_mask(transaction, 0, table.data.row_count)
        clustered.database.transaction_manager.rollback(transaction)
        table.data.compact(mask)
        for sql in ("DELETE FROM ts WHERE t >= 100000",
                    "UPDATE ts SET v = 0 WHERE t = 49999",
                    "DELETE FROM ts WHERE t < 150000 AND v = 3"):
            self._assert_dml_matches_unpruned(clustered, sql)

    def test_float_constant_against_integer_column(self, clustered):
        for sql in ("SELECT count(*) FROM ts WHERE t > 199998.5",
                    "SELECT count(*) FROM ts WHERE t < 0.5",
                    "SELECT count(*) FROM ts WHERE t = 1000.0"):
            self._assert_matches_unpruned(clustered, sql)
        assert clustered.query_value(
            "SELECT count(*) FROM ts WHERE t > 199998.5") == 1

    def test_temporal_constants_prune_correctly(self, con):
        con.execute("CREATE TABLE ev (d DATE, at TIMESTAMP)")
        con.executemany(
            "INSERT INTO ev VALUES (?, ?)",
            [(f"2024-{month:02d}-01", f"2024-{month:02d}-01 12:00:00")
             for month in range(1, 13)])
        for sql in ("SELECT count(*) FROM ev WHERE d >= "
                    "CAST('2024-06-01' AS DATE)",
                    "SELECT count(*) FROM ev WHERE at < "
                    "CAST('2024-03-01 00:00:00' AS TIMESTAMP)"):
            self._assert_matches_unpruned(con, sql)
        assert con.query_value(
            "SELECT count(*) FROM ev WHERE d >= "
            "CAST('2024-06-01' AS DATE)") == 7


    def test_cast_column_prunes_zones(self, clustered):
        """``t > 199999.5`` binds as ``CAST(t AS DOUBLE) > 199999.5``: the
        widening cast keeps the zone bounds' order, so it prunes."""
        sql = "SELECT count(*) FROM ts WHERE t > 199999.5"
        plan = "\n".join(row[0] for row in
                         clustered.execute("EXPLAIN " + sql).fetchall())
        assert "zonemap=1" in plan
        t = np.arange(200_000).astype(np.float64)
        for text, want in ((sql, 0),
                           ("SELECT count(*) FROM ts WHERE t >= 16383.5",
                            np.count_nonzero(t >= 16383.5)),
                           ("SELECT count(*) FROM ts WHERE 0.5 > t", 1),
                           ("SELECT count(*) FROM ts WHERE t <= 65536.0",
                            np.count_nonzero(t <= 65536.0)),
                           ("SELECT count(*) FROM ts WHERE t = 1000.0", 1)):
            assert self._assert_matches_unpruned(clustered, text) == [(want,)]
        clustered.execute(sql).fetchall()
        logged = clustered.execute(
            "SELECT sql, rows_scanned FROM repro_statement_log()").fetchall()
        assert [rows for text, rows in logged if text == sql][-1] == 0
        changed, scanned = self._assert_dml_matches_unpruned(
            clustered, "UPDATE ts SET t = 0 WHERE t > 199999.5")
        assert (changed, scanned) == (0, 0)

    def test_cast_bounds_round_like_the_cast(self, con):
        """Zone bounds are cast the way the column is: BIGINT 2**53 + 1
        is 2**53 as a DOUBLE, INTEGER 2**24 + 1 is 2**24 as a FLOAT."""
        con.execute("CREATE TABLE big (b BIGINT, f INTEGER)")
        b = np.concatenate([np.full(16384, 2 ** 53 + 1),
                            np.arange(16384)]).astype(np.int64)
        f = np.concatenate([np.full(16384, 2 ** 24 + 1),
                            np.arange(16384)]).astype(np.int32)
        with con.appender("big") as appender:
            appender.append_numpy({"b": b, "f": f})
        as_double, as_float = b.astype(np.float64), f.astype(np.float32)
        for sql, want in (
                ("SELECT count(*) FROM big WHERE b = 9007199254740992.0",
                 np.count_nonzero(as_double == 2.0 ** 53)),
                ("SELECT count(*) FROM big WHERE b > 9007199254740992.0",
                 np.count_nonzero(as_double > 2.0 ** 53)),
                ("SELECT count(*) FROM big WHERE b >= 9007199254740992.0",
                 np.count_nonzero(as_double >= 2.0 ** 53)),
                ("SELECT count(*) FROM big "
                 "WHERE CAST(f AS FLOAT) = CAST(16777216.0 AS FLOAT)",
                 np.count_nonzero(as_float == np.float32(2 ** 24))),
                ("SELECT count(*) FROM big "
                 "WHERE CAST(f AS FLOAT) < CAST(16777216.0 AS FLOAT)",
                 np.count_nonzero(as_float < np.float32(2 ** 24)))):
            assert self._assert_matches_unpruned(con, sql) == [(want,)]
        assert con.query_value(
            "SELECT count(*) FROM big WHERE b = 9007199254740992.0") == 16384


class TestParameterZones:
    """A ``?`` filter prunes zones exactly like its literal form -- which,
    through the plan cache, now runs as that same ``?`` statement."""

    ROWS = 200_000

    @pytest.fixture(scope="class")
    def ordered(self):
        connections = [repro.connect(config={"result_cache_entries": 0,
                                             "plan_cache_entries": entries})
                       for entries in (0, 256)]
        for con in connections:
            con.execute("CREATE TABLE o (id BIGINT, x DOUBLE)")
            with con.appender("o") as appender:
                appender.append_numpy({
                    "id": np.arange(self.ROWS, dtype=np.int64),
                    "x": np.arange(self.ROWS, dtype=np.float64),
                })
        yield connections
        for con in connections:
            con.close()

    @staticmethod
    def _scanned(con, sql, parameters=None):
        con.execute(sql, parameters).fetchall()
        logged = con.execute(
            "SELECT sql, rows_scanned FROM repro_statement_log()").fetchall()
        return [scanned for text, scanned in logged if text == sql][-1]

    @pytest.mark.parametrize("column", ["id", "x"])
    @pytest.mark.parametrize("op,value", [("<", 103), (">=", 150_000),
                                          ("=", 123_456)])
    def test_literal_and_parameter_scan_the_same_rows(self, ordered, column,
                                                      op, value):
        uncached, cached = ordered
        literal = f"SELECT count(*) FROM o WHERE {column} {op} {value}"
        marker = f"SELECT count(*) FROM o WHERE {column} {op} ?"
        constant_bound = self._scanned(uncached, literal)
        assert constant_bound < self.ROWS / 2
        # The x forms compare a DOUBLE column with an INTEGER value: the
        # parameter sits under a cast.
        assert self._scanned(uncached, marker, (value,)) == constant_bound
        assert self._scanned(cached, marker, (value,)) == constant_bound
        assert self._scanned(cached, literal) == constant_bound
        assert cached.execute(literal).fetchall() \
            == uncached.execute(literal).fetchall()
