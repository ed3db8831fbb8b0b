"""Scan batch shapes: zones stay 16,384-row chunks, fetches become batches.

A scan prunes and bills per ``SCAN_CHUNK_ROWS`` chunk but fetches each run
of surviving chunks inside one morsel as one batch.  These tests pin the
batch boundaries, show that answers do not depend on them (``morsel_size``
16,384 gives one chunk per batch, the shape before batches), and check the
aggregate's shared per-group count against arguments with NULLs.
"""

import numpy as np
import pytest

import repro
from repro.execution.physical import ExecutionContext
from repro.execution.physical_planner import create_physical_plan
from repro.optimizer import optimize
from repro.planner.binder import Binder
from repro.sql import parse_one
from repro.storage.table_data import SCAN_CHUNK_ROWS, TableData

#: Five chunks and a tail: two default morsels, six at ``morsel_size``
#: 16,384.
ROWS = 5 * SCAN_CHUNK_ROWS + 123
#: One chunk per batch: the shape a scan had before it fetched in batches.
CHUNK_BATCHES = {"morsel_size": SCAN_CHUNK_ROWS}


def run_with_stats(con, sql):
    """Execute a query returning (rows, stats dict)."""
    transaction = con.database.transaction_manager.begin()
    try:
        binder = Binder(con.database.catalog, transaction)
        plan = optimize(binder.bind_statement(parse_one(sql)).plan)
        context = ExecutionContext(transaction, con.database)
        physical = create_physical_plan(plan, context)
        rows = [row for chunk in physical.execute() for row in chunk.to_rows()]
        return rows, context.stats
    finally:
        con.database.transaction_manager.rollback(transaction)


@pytest.fixture
def fetches(monkeypatch):
    """The ``[start, end)`` of every ``TableData._fetch`` call."""
    calls = []
    fetch = TableData._fetch

    def spy(self, transaction, column_indices, start, end):
        calls.append((start, end))
        return fetch(self, transaction, column_indices, start, end)

    monkeypatch.setattr(TableData, "_fetch", spy)
    return calls


def striped(config=None):
    """One default morsel (four chunks) whose second chunk holds only
    values >= 1000, so ``v < 500`` prunes that zone alone."""
    con = repro.connect(config=dict(config or {}, result_cache_entries=0))
    values = np.arange(4 * SCAN_CHUNK_ROWS, dtype=np.int64) % 100
    values[SCAN_CHUNK_ROWS:2 * SCAN_CHUNK_ROWS] += 1000
    con.execute("CREATE TABLE t (v BIGINT)")
    with con.appender("t") as appender:
        appender.append_numpy({"v": values})
    return con


class TestBatchBoundaries:
    def test_a_pruned_middle_zone_cuts_the_morsel_into_two_batches(
            self, fetches):
        con = striped()
        rows, stats = run_with_stats(con, "SELECT v FROM t WHERE v < 500")
        assert fetches == [(0, SCAN_CHUNK_ROWS),
                           (2 * SCAN_CHUNK_ROWS, 4 * SCAN_CHUNK_ROWS)]
        assert len(rows) == 3 * SCAN_CHUNK_ROWS
        assert stats["rows_scanned"] == 3 * SCAN_CHUNK_ROWS
        assert stats["zones_skipped"] == 1

    def test_zone_counts_equal_the_one_chunk_batches(self, fetches):
        answers = []
        for config in (None, CHUNK_BATCHES):
            fetches.clear()
            rows, stats = run_with_stats(striped(config),
                                         "SELECT v FROM t WHERE v < 500")
            answers.append((rows, stats["rows_scanned"],
                            stats["zones_skipped"]))
        assert fetches == [(0, SCAN_CHUNK_ROWS),
                           (2 * SCAN_CHUNK_ROWS, 3 * SCAN_CHUNK_ROWS),
                           (3 * SCAN_CHUNK_ROWS, 4 * SCAN_CHUNK_ROWS)]
        assert answers[0] == answers[1]

    def test_morsel_ranges_are_the_scan_batch_boundaries(self, fetches):
        for config in ({}, CHUNK_BATCHES, {"morsel_size": 40_000}):
            con = repro.connect(config=config)
            con.execute("CREATE TABLE t (v BIGINT)")
            with con.appender("t") as appender:
                appender.append_numpy({"v": np.arange(ROWS)})
            fetches.clear()
            con.execute("SELECT v FROM t").fetch_numpy()
            transaction = con.database.transaction_manager.begin()
            table = con.database.catalog.get_table("t", transaction)
            con.database.transaction_manager.rollback(transaction)
            assert fetches == table.data.morsel_ranges(
                con.database.config.morsel_size)
            con.close()

    def test_a_limit_scan_fetches_chunk_by_chunk(self, fetches):
        con = striped()
        assert len(con.execute("SELECT v FROM t LIMIT 5").fetchall()) == 5
        assert fetches == [(0, SCAN_CHUNK_ROWS)]


def loaded(config):
    """``t`` over two default morsels with committed, uncheckpointed
    deletes, and a small ``d`` that misses some of ``t``'s keys."""
    con = repro.connect(config=dict(config, result_cache_entries=0))
    rng = np.random.default_rng(47)
    con.execute("CREATE TABLE t (a BIGINT, b DOUBLE, g INTEGER, s VARCHAR)")
    with con.appender("t") as appender:
        appender.append_numpy({
            "a": np.arange(ROWS, dtype=np.int64),
            "b": rng.random(ROWS),
            "g": rng.integers(0, 40, ROWS).astype(np.int32),
            "s": np.array([f"s{i % 301}" for i in range(ROWS)], dtype=object),
        })
    con.execute("CREATE TABLE d (g INTEGER, name VARCHAR)")
    con.executemany("INSERT INTO d VALUES (?, ?)",
                    [(g, f"n{g}") for g in range(0, 40, 3)])
    con.execute("DELETE FROM t WHERE a % 7 = 0")
    return con


def streamed(con, sql):
    result = con.execute(sql, stream=True)
    return list(result.chunks())


SELECTS = [
    "SELECT * FROM t",
    "SELECT a, s FROM t WHERE b > 0.25 AND g <> 5",
    "SELECT t.a, d.name FROM t JOIN d ON t.g = d.g WHERE t.b < 0.5",
    "SELECT a + 1, b * 2 FROM t WHERE a > 40000",
]


class TestSameRowsAtEveryBatchShape:
    @pytest.fixture(scope="class")
    def pair(self):
        cons = [loaded({}), loaded(CHUNK_BATCHES)]
        yield cons
        for con in cons:
            con.close()

    @pytest.mark.parametrize("sql", SELECTS)
    def test_selects_and_inner_joins(self, pair, sql):
        batched, chunked = (con.execute(sql).fetchall() for con in pair)
        assert batched == chunked
        assert batched

    def test_outer_join_rows(self, pair):
        # Rows without a match close each probe batch, and a probe batch
        # gathers scan batches up to 65,536 rows: here the first holds
        # five chunks' survivors or one morsel's and the rest.  So only
        # the multiset is shape-independent; the order is not pinned.
        sql = "SELECT t.a, d.name FROM t LEFT JOIN d ON t.g = d.g " \
              "WHERE t.b < 0.99"
        batched, chunked = (con.execute(sql).fetchall() for con in pair)
        assert sorted(batched, key=repr) == sorted(chunked, key=repr)
        assert any(name is None for _, name in batched)

    def test_numpy_and_streamed_exports(self, pair):
        sql = "SELECT a, b, s FROM t"
        exports = [con.execute(sql).fetch_numpy() for con in pair]
        for name in ("a", "b", "s"):
            assert np.array_equal(exports[0][name], exports[1][name])
        chunks = [streamed(con, sql) for con in pair]
        assert max(chunk.size for chunk in chunks[0]) == SCAN_CHUNK_ROWS
        for chunk in chunks[0]:
            assert chunk.columns[2].codes is None  # handed over decoded
        assert [row for chunk in chunks[0] for row in chunk.to_rows()] \
            == [row for chunk in chunks[1] for row in chunk.to_rows()]

    def test_an_older_snapshot_reads_pre_images(self, pair):
        answers = []
        for con in pair:
            reader = con.database.connect()
            reader.execute("BEGIN")
            reader.execute("SELECT count(*) FROM t").fetchall()
            con.execute("UPDATE t SET a = -a, s = 'new' WHERE g = 3")
            rows = reader.execute("SELECT a, s FROM t").fetchall()
            reader.execute("ROLLBACK")
            reader.close()
            assert all(a >= 0 and s != "new" for a, s in rows)
            answers.append(rows)
        assert answers[0] == answers[1]


class TestSameDmlAtEveryBatchShape:
    STATEMENTS = [
        "UPDATE t SET b = b + 1 WHERE a % 3 = 0 AND g < 20",
        "DELETE FROM t WHERE b > 1.5",
        "UPDATE t SET s = 'x' || s WHERE g = 7",
        "INSERT INTO t SELECT a + 1000000, b, g, s FROM t WHERE g = 11",
    ]

    def test_update_delete_and_insert_sources(self):
        tables, scanned = [], []
        for config in ({}, CHUNK_BATCHES):
            con = loaded(config)
            for sql in self.STATEMENTS:
                con.execute(sql)
            scanned.append(con.execute(
                "SELECT sql, rows_scanned FROM repro_statement_log() "
                "WHERE sql NOT LIKE '%repro_statement_log%'").fetchall())
            tables.append(con.execute("SELECT * FROM t").fetchall())
            con.close()
        assert tables[0] == tables[1]
        assert scanned[0] == scanned[1]


class TestSharedGroupCounts:
    @pytest.mark.parametrize("rows", [1000, ROWS])
    def test_an_argument_with_nulls_counts_its_own_rows(self, rows):
        # ``rows`` = ROWS folds two morsel partials; 1000 is one batch.
        con = repro.connect(config={"result_cache_entries": 0})
        rng = np.random.default_rng(3)
        g = rng.integers(0, 5, rows).astype(np.int32)
        x = rng.random(rows)
        y = rng.random(rows)
        present = rng.random(rows) > 0.3
        con.execute("CREATE TABLE t (g INTEGER, x DOUBLE, y DOUBLE)")
        with con.appender("t") as appender:
            appender.append_numpy({"g": g, "x": x, "y": y},
                                  validities={"x": present})
        got = con.execute(
            "SELECT g, count(x), avg(x), count(*), sum(y), count(y) "
            "FROM t GROUP BY g ORDER BY g").fetchall()
        assert [row[0] for row in got] == list(range(5))
        for group, count_x, avg_x, count_all, sum_y, count_y in got:
            rows_of = g == group
            kept = rows_of & present
            assert count_x == kept.sum() < count_all == rows_of.sum()
            assert avg_x == pytest.approx(x[kept].mean(), rel=1e-12)
            assert sum_y == pytest.approx(y[rows_of].sum(), rel=1e-12)
            assert count_y == count_all
        total = con.execute("SELECT count(x), count(*) FROM t").fetchall()
        assert total == [(int(present.sum()), rows)]
        con.close()
